"""Canonical labeling of small vertex-colored, loop-free multigraphs.

Every diagram handled by this package has at most ~16 vertices, so canonical
forms are computed exactly: a color-respecting relabeling minimizing the
sorted edge list, after a Weisfeiler-Leman style refinement of the color
classes.  When the refinement leaves every cell a single vertex there is
one relabeling and no automorphism, so no search runs; when the colors
alone do (a chord diagram, say), no refinement runs either.  Otherwise a
depth-first search assigns the slots in order, one vertex of the slot's
cell at a time.

Edges are triples ``(u, v, tag)`` with ``u != v``; parallel edges are
simply repeated entries.  Edge tokens are keyed by the larger endpoint
first, so a leaf's sorted token list is the concatenation of its levels:
level ``s`` holds the tokens whose larger endpoint is slot ``s``, and
which vertex takes slot ``s`` fixes level ``s``.  Ended by a sentinel
above every token, the levels compare as the leaves below them do.  The
search codes a level's token ``(lo, tag)`` as the int ``lo * R +
rank(tag)``, with the ``R`` tags of the call ranked in order, and the
sentinel as ``n * R``: the ints order as the tokens do, so the search is
unchanged, and the least leaf's levels are decoded to tuples at the end.
Three cuts follow.

* Least children.  A node visits only the vertices whose level is the
  least among its children; a larger level roots only leaves that lose to
  a sibling's, so every minimal leaf stays in the tree.
* Automorphisms [McKay-Piperno, *Practical graph isomorphism II*, JSC 60
  (2014)].  A child in the same orbit as an earlier sibling, under the
  generators found so far that fix the current prefix pointwise, roots a
  subtree with the same token lists, so it is skipped.  Each further leaf
  reaching the best token list is one generator, and the search jumps back
  to where that leaf's path leaves the best one, since the generator maps
  the rest of that subtree onto explored ground.  Every skipped minimal
  leaf is the image of an earlier one under the group found so far, so
  that group is all of Aut.
* The bound.  A node compares its level with the best leaf's level only
  while its prefix equals the best's: a smaller prefix stays smaller, and a
  larger level loses.  A new best found below a node runs through it, so
  the node's prefix equals the best's from then on.

None of the cuts drops a minimal leaf, and the visited nodes keep their
depth-first order, so the first minimal leaf reached, which gives ``perm``,
is the first in depth-first order of the uncut tree.
"""

from itertools import groupby


def _refine(cells, incidence):
    """Split cells by iterated neighborhood signatures.

    `cells` is an ordered partition (list of lists).  The final order of the
    subcells is determined by the (relabeling-invariant) signature values, so
    refinement commutes with isomorphism.
    """
    cell_of = [0] * len(incidence)
    while True:
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
                sig = tuple(sorted((cell_of[w], tag)
                                   for (w, tag) in incidence[v]))
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


def canonical_form(n, colors, edges):
    """Minimal relabeling of a vertex-colored, loop-free multigraph.

    Returns ``(key, perm, gens)``.  ``key = (slot_colors, edge_tokens)`` is
    relabeling-invariant; ``perm`` is one map ``vertex -> slot`` (a tuple
    indexed by vertex) that achieves the minimum; ``gens`` lists vertex
    permutations generating the automorphism group, so the minimizing
    relabelings are exactly ``perm`` composed with that group.  Relabelings
    must preserve colors; slots are ordered by color.

    No edge may be a loop, which would drop out of the key, and no caller
    passes one: the enumeration's candidates are loop-free; `class_of`,
    `canonicalize` and `canonical_key` turn a loop away; an STU term at
    (t, u) moves a half-edge of t to u, whose one edge ran to t; and IHX
    is taken only at an edge with no parallel partner, so no half-edge
    that H or X moves lands at its own edge's other end.
    """
    order = sorted(range(n), key=colors.__getitem__)  # stable: ties by v
    slot_colors = tuple(colors[v] for v in order)

    cells = [list(g) for _, g in groupby(order, key=colors.__getitem__)]
    if len(cells) < n:
        incidence = [[] for _ in range(n)]
        for (u, v, tag) in edges:
            incidence[u].append((v, tag))
            incidence[v].append((u, tag))
        cells = _refine(cells, incidence)

    if len(cells) == n:
        # a discrete (or empty) partition leaves one leaf, no automorphism
        perm = [0] * n
        for s, (v,) in enumerate(cells):
            perm[v] = s
        tokens = []
        for (u, v, tag) in edges:
            a, b = perm[u], perm[v]
            tokens.append((b, a, tag) if a < b else (a, b, tag))
        tokens.sort()
        return (slot_colors, tuple(tokens)), tuple(perm), []

    # Slot ranges follow the refined cell order; all vertices in one cell
    # share a color, so any assignment keeps slot_colors fixed.
    slot_cell = []
    for cell in cells:
        slot_cell.extend([sorted(cell)] * len(cell))

    # adj[w] lists (x, rank of the tag) for the tokens that w's slot gives
    # x, sorted so that each x receives its tokens in order
    tags = sorted({tag for (_, _, tag) in edges})
    tag_rank = {tag: r for r, tag in enumerate(tags)}
    R = len(tags)
    adj = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        r = tag_rank[tag]
        adj[u].append((v, r))
        adj[v].append((u, r))
    for lst in adj:
        lst.sort()

    end = n * R  # above every token, since lo < n
    # vertex -> its level tokens if it took the next slot, ended by `end`;
    # slots are assigned in increasing order, so appending keeps them sorted
    pending = [[end] for _ in range(n)]
    assign = [-1] * n  # vertex -> slot
    path = []          # slot -> vertex, for the assigned prefix
    best = None        # (levels, perm, path) of the least leaf so far
    gens = []

    def dfs(s, eq, fixing):
        """Search below the prefix `path`, whose levels equal the best
        leaf's if `eq` and are smaller (or there is no best yet) if not;
        `fixing` holds the generators found so far that fix `path`
        pointwise.  Return the level to resume at (``s`` to go on with the
        siblings, less to jump back)."""
        nonlocal best
        if s == n:
            if not eq:
                # an assigned vertex's pending tokens are its level's
                best = ([pending[v][:] for v in path], tuple(assign),
                        list(path))
                return s
            # equal to the best leaf: the map carrying this leaf onto it
            # is an automorphism, and it fixes the common prefix
            best_path = best[2]
            gens.append(tuple(best_path[assign[v]] for v in range(n)))
            c = 0
            while path[c] == best_path[c]:
                c += 1
            return c
        children = [(pending[v], v) for v in slot_cell[s] if assign[v] == -1]
        least = min(children)[0]
        if eq:
            if least > best[0][s]:
                return s
            eq = least == best[0][s]
        tried = []
        orbit = None
        seen_gens = len(gens)
        for t, v in children:
            if t != least:
                continue
            if tried and fixing:
                if orbit is None:
                    orbit = orbits(n, fixing)
                if any(orbit[v] == orbit[w] for w in tried):
                    continue
            tried.append(v)
            assign[v] = s
            path.append(v)
            base = s * R
            for x, r in adj[v]:
                if assign[x] == -1:
                    pending[x].insert(-1, base + r)
            before = best
            back = dfs(s + 1, eq, [g for g in fixing if g[v] == v])
            for x, _ in adj[v]:
                if assign[x] == -1:
                    del pending[x][-2]
            path.pop()
            assign[v] = -1
            if back < s:
                return back
            if best is not before:
                # the new best runs through this node and `least`
                eq = True
            if seen_gens != len(gens):
                # generators found below fix every prefix still open
                fixing = fixing + gens[seen_gens:]
                seen_gens = len(gens)
                orbit = None
        return s

    dfs(0, False, [])
    dfs = None  # the closure refers to itself: break the cycle
    tokens = tuple((s, code // R, tags[code % R])
                   for s, level in enumerate(best[0]) for code in level[:-1])
    return (slot_colors, tokens), best[1], gens

