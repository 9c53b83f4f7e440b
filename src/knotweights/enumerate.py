"""Exhaustive enumeration of diagram isomorphism classes per degree.

A BCR diagram is fixed by the flavors of its cycle edges, and its class
by that flavor word up to rotation (see `bcr`).  The legs sit where two
neighbouring flavors agree, one per cycle vertex at most, so a cycle of
length L carries 2k - L legs and k <= L <= 2k.  Each class is drawn
once, from the rotation whose word of cycle pieces is least, and the
classes are sorted by canonical key.  Jacobi diagrams are generated
as loop-free multigraphs with the prescribed valences, using a first-touch
symmetry cut on the interchangeable trivalent vertices, and a candidate
that swapping two of them turns into a smaller sorted edge list is skipped
before its canonical search.  The least labeling of each class passes
both cuts, so no class is lost.  They are deduplicated through canonical
keys, so each enumeration carries one representative per class in a
deterministic order.
"""

from functools import lru_cache, wraps
from itertools import product as iproduct

from .bcr import EXTERNAL, INTERNAL, bcr_key, cycle_with_legs
from .errors import DegreeOutOfRange
from .jacobi import canonicalize, make_diagram

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
    that touch), so it is among the candidates kept.  The edges away from
    the two vertices are common to both lists, so the lists compare as the
    sorted edges at the two vertices do, before and after the swap.
    """
    at = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            at[v].append(e)
    for i in range(free_start, n):
        for j in range(i + 1, n):
            touched = sorted(at[i] + [e for e in at[j] if i not in e])
            p = list(range(n))
            p[i], p[j] = j, i
            moved = sorted((p[a], p[b]) if p[a] < p[b] else (p[b], p[a])
                           for (a, b) in touched)
            if moved < touched:
                return True
    return False


@per_degree()
def enumerate_jacobi(k):
    """All Jacobi diagram classes of degree k, one representative each.

    Representatives carry the default vertex orientation (ascending
    half-edges).
    """
    found = {}
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        deg_seq = [1] * u + [3] * t
        for edges in _multigraphs(deg_seq, free_start=u):
            if _swap_beats(edges, u, 2 * k):
                continue
            d = make_diagram(2 * k, range(u), edges)
            key, _, rep = canonicalize(d)
            found.setdefault(key, rep)
    return tuple(found[key] for key in sorted(found))

