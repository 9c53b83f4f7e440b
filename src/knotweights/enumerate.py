"""Exhaustive enumeration of diagram isomorphism classes per degree.

BCR diagrams are generated from cyclic words over four cycle pieces (the
two bivalent transition vertices and the two legged trivalent vertices),
with edge flavors matching around the cycle.  Jacobi diagrams are generated
as loop-free multigraphs with the prescribed valences, using a first-touch
symmetry cut on the interchangeable trivalent vertices.  Both enumerations
are deduplicated through canonical keys, so the output carries one
representative per class in a deterministic order.
"""

from functools import lru_cache, wraps
from itertools import product as iproduct

from .bcr import EXTERNAL, INTERNAL, bcr_key, validate_bcr
from .errors import DegreeOutOfRange
from .jacobi import canonicalize, empty_diagram, make_diagram

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


# cycle pieces: (incoming flavor, outgoing flavor, has leg, external vertex)
_PIECES = {
    "b4": (EXTERNAL, INTERNAL, False, False),
    "b5": (INTERNAL, EXTERNAL, False, False),
    "t1": (EXTERNAL, EXTERNAL, True, True),
    "t2": (INTERNAL, INTERNAL, True, False),
}


def _word_ok(word):
    for i, w in enumerate(word):
        nxt = word[(i + 1) % len(word)]
        if _PIECES[w][1] != _PIECES[nxt][0]:
            return False
    return True


def _min_rotation(word):
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def _diagram_from_word(word):
    length = len(word)
    external = [i for i, w in enumerate(word) if _PIECES[w][3]]
    edges = []
    for i, w in enumerate(word):
        cls = _PIECES[w][1]
        edges.append((i, (i + 1) % length, cls))
    next_id = length
    for i, w in enumerate(word):
        if _PIECES[w][2]:
            edges.append((next_id, i, EXTERNAL))
            next_id += 1
    return validate_bcr(next_id, external, edges)


@per_degree(lowest=1)
def enumerate_bcr(k):
    """All BCR diagram classes of degree k, one representative each."""
    found = {}
    for length in range(2, 2 * k + 1):
        legs = 2 * k - length
        for word in iproduct(_PIECES, repeat=length):
            if sum(1 for w in word if _PIECES[w][2]) != legs:
                continue
            if word != _min_rotation(list(word)):
                continue
            if not _word_ok(word):
                continue
            d = _diagram_from_word(list(word))
            key = bcr_key(d)
            if key not in found:
                found[key] = d
    return tuple(found[key] for key in sorted(found))


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


@per_degree()
def enumerate_jacobi(k):
    """All Jacobi diagram classes of degree k, one representative each.

    Representatives carry the default vertex orientation (ascending
    half-edges).
    """
    if k == 0:
        d = empty_diagram()
        key, _, rep = canonicalize(d)
        return (rep,)
    found = {}
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        deg_seq = [1] * u + [3] * t
        for edges in _multigraphs(deg_seq, free_start=u):
            d = make_diagram(2 * k, range(u), edges)
            key, _, rep = canonicalize(d)
            if key in found:
                continue
            found[key] = rep
    return tuple(found[key] for key in sorted(found))

