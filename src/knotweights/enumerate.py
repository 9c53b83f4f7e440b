"""Exhaustive enumeration of diagram isomorphism classes per degree.

A BCR diagram is fixed by the flavors of its cycle edges, and its class
by that flavor word up to rotation (see `bcr`).  The legs sit where two
neighbouring flavors agree, one per cycle vertex at most, so a cycle of
length L carries 2k - L legs and k <= L <= 2k.  Each class is drawn
once, from the rotation whose word of cycle pieces is least, and the
classes are sorted by canonical key.  Jacobi diagrams are generated
as loop-free multigraphs with the prescribed valences, using a first-touch
symmetry cut on the interchangeable trivalent vertices, and a candidate
that swapping two of them turns into a smaller sorted edge list, read off
the two vertices' neighbours, is skipped before its canonical search.
The least labeling of each class passes both cuts, so no class is lost.
The multigraphs grow one edge list in place, and a candidate stays an
edge list: its class, with the default orientation, is read off the list
by the sign routine `class_of` uses (`jacobi.class_of_edges`).  A diagram
is drawn only for a new key, as the representative of its class, and it
keeps the record and the automorphism generators that search found, so
each enumeration carries one representative per class in a deterministic
order.
"""

from functools import lru_cache, wraps
from itertools import product as iproduct

from .bcr import EXTERNAL, INTERNAL, bcr_key, cycle_with_legs
from .errors import DegreeOutOfRange
from .jacobi import class_of_edges, drawn

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
        off, or None when every stub is used."""
        while pivot < n and not deg[pivot]:
            pivot += 1
        if pivot == n:
            return None
        need = deg[pivot]
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
        if frame is None:
            yield edges[:]
            deg[edges.pop()[1]] += 1
        else:
            frames.append(frame)


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


def _candidates(k):
    """The degree-k multigraphs that pass the swap test, as ``(u, edges)``
    with line vertices 0..u-1.  `_multigraphs` gives each one loop-free
    with the right valences."""
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in _multigraphs([1] * u + [3] * t, free_start=u):
            if not _swap_beats(edges, u, 2 * k):
                yield u, edges


@per_degree()
def enumerate_jacobi(k):
    """All Jacobi diagram classes of degree k, one representative each.

    Each candidate's class is read off its edge list with the default
    vertex orientation (ascending half-edges), and the representative of
    the class is drawn from the key only the first time the key is seen.
    It carries the record `canonicalize` would give it and the generators
    of its automorphism group, so neither needs another search.
    """
    n = 2 * k
    found = {}
    for u, edges in _candidates(k):
        key, sign, perm, gens = class_of_edges(n, u, edges)
        if key not in found:
            found[key] = drawn(key, sign, perm, gens)
    return tuple(found[key] for key in sorted(found))
