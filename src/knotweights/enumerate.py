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
The candidates are built unvalidated and deduplicated through canonical
keys, with a representative drawn only for a new key, so each enumeration
carries one representative per class in a deterministic order.
"""

from functools import lru_cache, wraps
from itertools import product as iproduct

from .bcr import EXTERNAL, INTERNAL, bcr_key, cycle_with_legs
from .errors import DegreeOutOfRange
from .jacobi import (JacobiDiagram, class_of, default_orientation,
                     representative)

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
    relabeling redundancy before the canonical dedup.
    """
    deg = list(deg_seq)
    n = len(deg)
    orig = tuple(deg_seq)

    def first_untouched():
        for j in range(free_start, n):
            if deg[j] == orig[j] and deg[j] > 0:
                return j
        return None

    def rec():
        pivot = None
        for v in range(n):
            if deg[v] > 0:
                pivot = v
                break
        if pivot is None:
            yield []
            return
        need = deg[pivot]
        deg[pivot] = 0

        def stubs(remaining, min_j, acc):
            if remaining == 0:
                for rest in rec():
                    yield acc + rest
                return
            fu = first_untouched()
            for j in range(min_j, n):
                if j == pivot or deg[j] == 0:
                    continue
                if j >= free_start and deg[j] == orig[j] and j != fu:
                    continue
                deg[j] -= 1
                yield from stubs(remaining - 1, j, acc + [(pivot, j)])
                deg[j] += 1

        yield from stubs(need, 0, [])
        deg[pivot] = need

    yield from rec()


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
    """
    around = [[] for _ in range(n)]
    for a, b in edges:
        around[a].append(b)
        around[b].append(a)
    for v in around:
        v.sort()
    for i in range(free_start, n):
        for j in range(i + 1, n):
            if ([y for y in around[j] if y != i]
                    < [x for x in around[i] if x != j]):
                return True
    return False


def _candidates(k):
    """The degree-k multigraphs that pass the swap test, as diagrams with
    the default vertex orientation.  `_multigraphs` gives each one loop-free
    with the right valences, so it is built unvalidated."""
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in _multigraphs([1] * u + [3] * t, free_start=u):
            if not _swap_beats(edges, u, 2 * k):
                yield JacobiDiagram(
                    2 * k, range(u), edges,
                    default_orientation(2 * k, range(u), edges),
                    validate=False)


@per_degree()
def enumerate_jacobi(k):
    """All Jacobi diagram classes of degree k, one representative each.

    Each candidate is canonically labeled, and the representative of its
    class, with the default vertex orientation (ascending half-edges), is
    drawn from the key only the first time the key is seen.  It carries
    the record `canonicalize` would give it, so its class is known without
    a search.
    """
    found = {}
    for d in _candidates(k):
        key, sign = class_of(d)
        if key not in found:
            rep = representative(key)
            rep.record = (key, 1 if sign else 0, rep)
            found[key] = rep
    return tuple(found[key] for key in sorted(found))
