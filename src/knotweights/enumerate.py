"""Exhaustive enumeration of diagram isomorphism classes per degree.

A BCR diagram is fixed by the flavors of its cycle edges, and its class
by that flavor word up to rotation (see `bcr`).  The legs sit where two
neighbouring flavors agree, one per cycle vertex at most, so a cycle of
length L carries 2k - L legs and k <= L <= 2k.  Each class is drawn
once, from the rotation whose word of cycle pieces is least, and the
classes are sorted by their least flavor words.  Jacobi diagrams are generated
as loop-free multigraphs with the prescribed valences, using a first-touch
symmetry cut on the interchangeable trivalent vertices, and a candidate
that swapping two of them turns into a smaller sorted edge list, read off
the two vertices' neighbours, is skipped before its canonical search,
as is a closed candidate with parallel edges whose list does not start
with a pair of them.  The least labeling of each class passes every cut,
so no class is lost.
The multigraphs grow one edge list in place, and a candidate stays an
edge list: its class, with the default orientation, is read off the list
by the one class search (`jacobi.class_of_parts`).  A diagram
is drawn only for a new key, as the representative of its class, and it
keeps the record and the automorphism generators that search found, so
each enumeration carries one representative per class in a deterministic
order.

Only two kinds of candidate are searched: those whose components all
touch the line, and those that are one closed (purely trivalent)
component; the multigraph search drops the others as it goes.  Every
other class has a closed part beside a line part, or several closed
components, and it is joined from classes of lower degree with no search
(`jacobi.joined`): its closed part is a multiset of connected closed
classes, and its line part a class whose components all touch the line,
the empty one included.  The lower degrees come from `enumerate_jacobi`
under its per-degree memo.

A closed part of several components.  Refinement never splits a purely
closed graph: every vertex reads three incidences into the one cell.  In
the search (`canon.canonical_form`), a vertex with an assigned neighbour
has a level below [end] and any other vertex has the level [end], so
while a component has vertices left the least children lie in it: each
component takes consecutive slots.  Its levels, taken from its first
slot, shift with that slot and compare as they would unshifted, so the
least leaf labels each component as the search of it alone does, and it
takes the components in the order of their level sequences, each level
closed by [end].  No such sequence is a prefix of another (the first c
levels of a larger component would hold all 3c/2 edges of c trivalent
vertices, which would then be a component), so the least concatenation
is the sorted one.  The token lists, (slot, lower slot) in order, compare
as the level sequences do, a step to the next slot standing for [end],
so that is the order of the components' token lists.
So the key is the components' tokens in that order, each shifted to its
first slot.  The default orientation at a vertex reads only its own
component's slots, all shifted alike, so the sign is the product of the
components' signs.  The automorphisms are generated by each component's,
moved to its slots, and the swaps of adjacent equal components; a swap
shifts every vertex's neighbours alike, so it keeps the default
orientation.  Beside a line part, the closed part takes the first slots
and the line part the rest, shifted (rule 3 in `relations`); an
automorphism keeps the two parts apart, so the generators are each
part's, and the class vanishes when a part does.
"""

from functools import lru_cache, wraps
from itertools import product as iproduct

from .bcr import EXTERNAL, INTERNAL, bcr_key, cycle_with_legs
from .errors import DegreeOutOfRange
from .jacobi import (_closed_slots, _halves, class_of_parts, drawn, joined,
                     kept)

K_MAX = 4


def check_degree(k, k_max, lowest=0):
    """Raise DegreeOutOfRange unless lowest <= k <= k_max."""
    if not lowest <= k <= k_max:
        raise DegreeOutOfRange(k, k_max, lowest)


def per_degree(lowest=0):
    """Memoise a function of the degree alone, behind the degree cap.

    The decorated function is called as ``f(k, k_max=K_MAX)``.  Every call
    checks ``lowest <= k <= k_max`` first, so a warm memo never serves a
    degree the caller's cap excludes; only then is the result looked up,
    keyed on ``k`` alone.  Results are shared by every caller, so bodies
    return values nobody mutates.  A body that calls another per-degree
    function at a degree its own cap admitted passes ``k_max=k``, which
    keeps degrees above K_MAX reachable under a larger cap.
    """
    def decorate(body):
        memo = lru_cache(maxsize=None)(body)

        @wraps(body)
        def capped(k, k_max=K_MAX):
            check_degree(k, k_max, lowest)
            return memo(k)

        capped.cache_info = memo.cache_info
        capped.cache_clear = memo.cache_clear
        return capped
    return decorate


@per_degree(lowest=1)
def enumerate_bcr(k):
    """All BCR diagram classes of degree k, one representative each.

    The cycle vertex with flavors a in and b out is the piece ranked
    2 (a == b) + (a == INTERNAL): b4 (external in, internal out) < b5
    < t1 (both external) < t2 (both internal).
    """
    reps = []
    for length in range(max(2, k), 2 * k + 1):
        for flavors in iproduct((EXTERNAL, INTERNAL), repeat=length):
            word = [2 * (flavors[i - 1] == b) + (flavors[i - 1] == INTERNAL)
                    for i, b in enumerate(flavors)]
            if (sum(p >= 2 for p in word) == 2 * k - length
                    and word == min(word[i:] + word[:i]
                                    for i in range(length))):
                reps.append(cycle_with_legs(flavors))
    return tuple(sorted(reps, key=bcr_key))


def _multigraphs(deg_seq, free_start):
    """Loop-free labeled multigraphs with the given degrees.

    Vertices with index >= free_start are treated as interchangeable: they
    may only be first touched in increasing order, which prunes most of the
    relabeling redundancy before the canonical dedup.  The pivot, the least
    vertex with stubs left, is joined to partners j in ascending order, a
    multi-edge by taking j again; then the next pivot.  The search keeps
    one edge list, grown and shrunk in place, on an explicit stack, and
    yields a copy of it at each leaf.

    A free pivot past vertex 0 that is still untouched ends its branch:
    the vertices from it on, all untouched as they are touched in
    increasing order, have no edge to an earlier vertex, so they make
    closed components apart from the rest, and such a class is joined
    from its parts (`_joined_classes`).  What is left is the multigraphs
    whose components all touch a vertex below free_start or, when
    free_start is 0, the connected ones.
    """
    deg = list(deg_seq)
    n = len(deg)
    orig = tuple(deg_seq)
    edges = []

    def first_untouched():
        for j in range(free_start, n):
            if deg[j] == orig[j] and deg[j] > 0:
                return j
        return None

    def opened(pivot):
        """The frame of the next pivot from `pivot` on, its stubs taken
        off, None when every stub is used, or False when the branch
        ends at a closed part apart from the rest."""
        while pivot < n and not deg[pivot]:
            pivot += 1
        if pivot == n:
            return None
        need = deg[pivot]
        if pivot > 0 and pivot >= free_start and need == orig[pivot]:
            return False
        deg[pivot] = 0
        return [pivot, need, 0, first_untouched(), need]

    # a frame chooses the partner of one stub: [pivot, stubs left, next
    # partner to try, the first untouched free vertex, and the pivot's
    # degree to restore when the frame opened the pivot, else 0]
    frame = opened(0)
    if frame is None:
        yield []
        return
    frames = [frame]
    while frames:
        frame = frames[-1]
        pivot, left, j, fu, need = frame
        while j < n and (j == pivot or not deg[j] or (
                j >= free_start and deg[j] == orig[j] and j != fu)):
            j += 1
        if j == n:
            frames.pop()
            if need:
                deg[pivot] = need
            if frames:  # undo the choice that led here
                deg[edges.pop()[1]] += 1
            continue
        frame[2] = j + 1
        deg[j] -= 1
        edges.append((pivot, j))
        if left > 1:
            frames.append([pivot, left - 1, j, first_untouched(), 0])
            continue
        frame = opened(pivot + 1)
        if frame:
            frames.append(frame)
        else:
            if frame is None:
                yield edges[:]
            deg[edges.pop()[1]] += 1


def _swap_beats(edges, free_start, n):
    """Whether swapping two free vertices gives a smaller sorted edge list.

    `edges` is one of `_multigraphs`' lists, sorted pairs in sorted order.
    A swap keeps the class; the least labeling of a class passes this test,
    and it obeys the first-touch rule (were a free vertex first touched
    before a lower untouched one, swapping the two would lower the list at
    that touch), so it is among the candidates kept.

    The edges away from the two vertices i < j, the edges between them and
    one edge each to a neighbour they share are common to both lists.  Of
    the rest, an edge from i to x becomes one from j to x, which sorts
    later, and one from j to y becomes one from i to y, which sorts
    earlier; the edges at i sort as their far ends do.  So the swap lowers
    the list exactly when the least neighbour only j has is below the least
    one only i has: when j's neighbours, i aside, sort below i's, j aside.
    Read off the sorted edge list, each vertex's neighbours come sorted.
    """
    around = [[] for _ in range(n)]
    for a, b in edges:
        around[a].append(b)
        around[b].append(a)
    for i in range(free_start, n):
        at_i = around[i]
        for j in range(i + 1, n):
            at_j = around[j]
            if i in at_j:
                if ([y for y in at_j if y != i]
                        < [x for x in at_i if x != j]):
                    return True
            elif at_j < at_i:
                return True
    return False


def _parallel_first(edges):
    """Whether a closed multigraph's sorted edge list starts with a pair of
    parallel edges, or has none.  The least labeling of a class passes:
    its list starts (0, 1), (0, 1) whenever some labeling's does."""
    return len(set(edges)) == len(edges) or edges[0] == edges[1]


def _candidates(k):
    """The degree-k multigraphs that pass the swap test, as ``(u, edges)``
    with line vertices 0..u-1: those whose components all touch the line,
    and those that are one closed component with, when it has parallel
    edges, a pair of them at vertex 0 (`_parallel_first`).  `_multigraphs`
    gives each one loop-free with the right valences; with t trivalent
    vertices the valences sum to 3t + u = 2(t + k), even for every t."""
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        for edges in _multigraphs([1] * u + [3] * t, free_start=u):
            if ((u or _parallel_first(edges))
                    and not _swap_beats(edges, u, 2 * k)):
                yield u, edges


def _closed_multisets(closed, k, first=0):
    """The multisets of at least one of the connected closed classes in
    `closed`, a list of representatives, of total degree at most k, as
    lists taken in list order."""
    for i in range(first, len(closed)):
        rep = closed[i]
        if rep.degree <= k:
            yield [rep]
            for rest in _closed_multisets(closed, k - rep.degree, i):
                yield [rep] + rest


def _joined_classes(k):
    """The degree-k classes with a closed part beside a line part, or with
    several closed components: every multiset of connected closed classes
    of degree below k, of total degree j <= k, beside every class of
    degree k - j whose components all touch the line (at j = k, the empty
    diagram, whose key is that of no slots and no tokens)."""
    lower = [enumerate_jacobi(j, k_max=j) for j in range(1, k)]
    closed = [rep for reps in lower for rep in reps
              if not rep.univalent_order and rep.is_connected()]
    line = [[kept(((), ()), 1, [])]] + [
        [rep for rep in reps if not _closed_slots(rep.record[0])]
        for reps in lower]
    for parts in _closed_multisets(closed, k):
        j = sum(rep.degree for rep in parts)
        for rep in line[k - j]:
            yield joined(parts, rep)


@per_degree()
def enumerate_jacobi(k):
    """All Jacobi diagram classes of degree k, one representative each.

    The candidates whose components all touch the line, and those that
    are one closed component, are searched: each one's class is read off
    its edge list with the default vertex orientation (ascending
    half-edges), and the representative of the class is drawn from the
    key only the first time the key is seen.  The other classes are
    joined from lower-degree classes with no search (`jacobi.joined`).
    A representative carries the record `canonicalize` would give it and
    the generators of its automorphism group, so neither needs another
    search.
    """
    n = 2 * k
    found = {}
    for u, edges in _candidates(k):
        key, sign, perm, gens = class_of_parts(n, range(u), edges,
                                               _halves(n, edges)[u:])
        if key not in found:
            rep = drawn(key, sign, perm, gens)
            found[rep.record[0]] = rep
    for rep in _joined_classes(k):
        found[rep.record[0]] = rep
    return tuple(found[key] for key in sorted(found))
