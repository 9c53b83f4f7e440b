"""Canonical labeling of small vertex-colored multigraphs.

Every diagram handled by this package has at most ~16 vertices, so canonical
forms are computed exactly: a color-respecting relabeling minimizing the
sorted edge list is found by depth-first search with prefix pruning, after a
Weisfeiler-Leman style refinement of the color classes.  The search also
collects generators of the automorphism group and prunes with them
[McKay-Piperno, *Practical graph isomorphism II*, JSC 60 (2014)]: a child
in the same orbit as an earlier sibling, under the generators found so far
that fix the current prefix pointwise, roots a subtree with the same edge
lists, so it is skipped.  Each further leaf reaching the best edge list is
one generator, and the search jumps back to where that leaf's path leaves
the best one, since the generator maps the rest of that subtree onto
explored ground.  Every skipped minimal leaf is the image of an earlier one
under the group found so far, so that group is all of Aut.

Edges are triples ``(u, v, tag)``; parallel edges are simply repeated
entries.  Edge tokens are keyed by the larger endpoint first so that the
edges inside an assigned prefix of slots form a prefix of the final sorted
token list, which is what makes the pruning sound.  That prefix is also
complete: every later token has a larger first entry, so a prefix that
stops short of the best list's tokens on the same slots already loses.
"""

from bisect import bisect_left
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


def orbits(n, gens):
    """Orbit labels of the group generated by `gens` on 0..n-1 (each a
    sequence mapping point -> point)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                root[a] = b
    return [find(v) for v in range(n)]


def canonical_form(n, colors, edges, directed=False):
    """Minimal relabeling of a vertex-colored multigraph.

    Returns ``(key, perm, gens)``.  ``key = (slot_colors, edge_tokens)`` is
    relabeling-invariant; ``perm`` is one map ``vertex -> slot`` (a tuple
    indexed by vertex) that achieves the minimum; ``gens`` lists vertex
    permutations generating the automorphism group, so the minimizing
    relabelings are exactly ``perm`` composed with that group.  Relabelings
    must preserve colors; slots are ordered by color.
    """
    if n == 0:
        return ((), ()), (), []
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
    slot_cell = []
    for cell in cells:
        slot_cell.extend([sorted(cell)] * len(cell))

    edges_at = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        edges_at[u].append((u, v, tag))
        if u != v:
            edges_at[v].append((u, v, tag))

    assign = [-1] * n  # vertex -> slot
    path = []          # slot -> vertex, for the assigned prefix
    best = None        # (tokens, perm, path) of the least leaf so far
    end = [(n,)]       # sorts after every token
    gens = []

    def dfs(s, tokens):
        """Search below the prefix `path`; return the level to resume at
        (``s`` to go on with the siblings, less to jump back)."""
        nonlocal best
        if s == n:
            if best is None or tokens < best[0]:
                best = (tokens, tuple(assign), list(path))
                return s
            # tokens equal the best (anything larger was pruned): the map
            # carrying this leaf onto the best leaf is an automorphism
            best_path = best[2]
            gens.append(tuple(best_path[assign[v]] for v in range(n)))
            c = 0
            while path[c] == best_path[c]:
                c += 1
            return c
        tried = []
        seen_gens = 0
        orbit = None
        for v in slot_cell[s]:
            if assign[v] != -1:
                continue
            if seen_gens != len(gens):
                seen_gens = len(gens)
                fixing = [g for g in gens if all(g[w] == w for w in path)]
                orbit = orbits(n, fixing) if fixing else None
            if orbit is not None and any(orbit[v] == orbit[w] for w in tried):
                continue
            tried.append(v)
            assign[v] = s
            path.append(v)
            new_tokens = []
            for (a, b, tag) in edges_at[v]:
                if assign[a] != -1 and assign[b] != -1:
                    new_tokens.append(
                        _edge_token(assign[a], assign[b], tag, directed))
            # every new token has the largest slot s, so it sorts last, and
            # merged holds every token with hi <= s of any leaf below: a
            # leaf there loses to the best if merged, ended by a sentinel,
            # is larger than the best's tokens with hi <= s
            new_tokens.sort()
            merged = tokens + new_tokens
            back = s
            if best is None or not merged + end > (
                    best[0][:bisect_left(best[0], (s + 1,))] + end):
                back = dfs(s + 1, merged)
            path.pop()
            assign[v] = -1
            if back < s:
                return back
        return s

    dfs(0, [])
    return (slot_colors, tuple(best[0])), best[1], gens


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
