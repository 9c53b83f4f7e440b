"""Canonical labeling of small vertex-colored multigraphs.

Every diagram handled by this package has at most ~16 vertices, so canonical
forms are computed exactly: a color-respecting relabeling minimizing the
sorted edge list is found by depth-first search with prefix pruning, after a
Weisfeiler-Leman style refinement of the color classes.  The search returns
*all* minimizing relabelings, which doubles as the automorphism group (its
order is the number of relabelings returned).

Edges are triples ``(u, v, tag)``; parallel edges are simply repeated
entries.  Edge tokens are keyed by the larger endpoint first so that the
edges inside an assigned prefix of slots form a prefix of the final sorted
token list, which is what makes the pruning sound.
"""

from itertools import groupby


def _edge_token(a, b, tag, directed):
    if a < b:
        lo, hi, flip = a, b, 0
    else:
        lo, hi, flip = b, a, 1
    if directed:
        return (hi, lo, flip, tag)
    return (hi, lo, tag)


def _refine(cells, incidence):
    """Split cells by iterated neighborhood signatures.

    `cells` is an ordered partition (list of lists).  The final order of the
    subcells is determined by the (relabeling-invariant) signature values, so
    refinement commutes with isomorphism.
    """
    while True:
        cell_of = {}
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sigs = {}
            for v in cell:
                sig = tuple(sorted((cell_of[w], tag, role)
                                   for (w, tag, role) in incidence[v]))
                sigs.setdefault(sig, []).append(v)
            if len(sigs) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(sigs):
                    new_cells.append(sigs[sig])
        cells = new_cells
        if not changed:
            return cells


def canonical_form(n, colors, edges, directed=False):
    """Minimal relabeling of a vertex-colored multigraph.

    Returns ``(key, perms)`` where ``key = (slot_colors, edge_tokens)`` is
    relabeling-invariant and ``perms`` lists every map ``vertex -> slot``
    (as a tuple indexed by vertex) that achieves the minimum.  Relabelings
    must preserve colors; slots are ordered by color.
    """
    if n == 0:
        return ((), ()), [()]
    order = sorted(range(n), key=lambda v: (colors[v], v))
    slot_colors = tuple(colors[v] for v in order)

    incidence = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        if directed:
            incidence[u].append((v, tag, 1))
            incidence[v].append((u, tag, -1))
        else:
            incidence[u].append((v, tag, 0))
            incidence[v].append((u, tag, 0))

    cells = [list(g) for _, g in groupby(order, key=lambda v: colors[v])]
    cells = _refine(cells, incidence)

    # Slot ranges follow the refined cell order; all vertices in one cell
    # share a color, so any assignment keeps slot_colors fixed.
    flat_cells = []
    for cell in cells:
        flat_cells.append(sorted(cell))

    best_tokens = None
    best_perms = []
    assign = [-1] * n  # vertex -> slot
    slot_vertex = [-1] * n

    # Edges grouped by vertex for incremental finalization.
    edges_at = [[] for _ in range(n)]
    for idx, (u, v, tag) in enumerate(edges):
        edges_at[u].append((idx, u, v, tag))
        if u != v:
            edges_at[v].append((idx, u, v, tag))

    def dfs(cell_i, pos_in_cell, next_slot, tokens):
        nonlocal best_tokens, best_perms
        if cell_i == len(flat_cells):
            if best_tokens is None or tokens < best_tokens:
                best_tokens = list(tokens)
                best_perms = [tuple(assign)]
            elif tokens == best_tokens:
                best_perms.append(tuple(assign))
            return
        cell = flat_cells[cell_i]
        if pos_in_cell == len(cell):
            dfs(cell_i + 1, 0, next_slot, tokens)
            return
        for v in cell:
            if assign[v] != -1:
                continue
            assign[v] = next_slot
            slot_vertex[next_slot] = v
            new_tokens = []
            for (idx, a, b, tag) in edges_at[v]:
                w = b if a == v else a
                if assign[w] != -1:
                    if directed:
                        new_tokens.append(_edge_token(assign[a], assign[b], tag, True))
                    else:
                        new_tokens.append(_edge_token(assign[a], assign[b], tag, False))
            merged = sorted(tokens + new_tokens)
            prune = False
            if best_tokens is not None:
                prefix = best_tokens[:len(merged)]
                if merged > prefix:
                    prune = True
            if not prune:
                dfs(cell_i, pos_in_cell + 1, next_slot + 1, merged)
            assign[v] = -1
            slot_vertex[next_slot] = -1
        return

    dfs(0, 0, 0, [])
    return (slot_colors, tuple(best_tokens)), best_perms


def edge_map_for_perm(edges, perm, directed=False):
    """Map original edge indices to canonical edge slots under `perm`.

    Parallel edges are tied in ascending original order (a fixed convention;
    any other choice differs by an even reorientation at both endpoints, so
    downstream signs do not depend on it).  Returns ``(tokens, edge_map)``
    with ``tokens`` the sorted canonical edge list and ``edge_map[i]`` the
    slot of original edge ``i``.
    """
    tagged = []
    for idx, (u, v, tag) in enumerate(edges):
        tagged.append((_edge_token(perm[u], perm[v], tag, directed), idx))
    tagged.sort()
    edge_map = [-1] * len(edges)
    for slot, (_tok, idx) in enumerate(tagged):
        edge_map[idx] = slot
    return [tok for tok, _ in tagged], edge_map
