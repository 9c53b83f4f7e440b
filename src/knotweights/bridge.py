"""From cycle-with-legs diagrams to Jacobi classes: signs and the weight.

An ordering of a BCR diagram is a total order of its internal vertices.
Each ordering induces a Jacobi diagram: keep all vertices, keep only the
external edges, order the univalent vertices by rank, and orient every
external vertex by (incoming cycle edge, outgoing cycle edge, leg).
Three signs enter the weight:

  epsilon    (-1)^(external edges + trivalent vertices), fixed per diagram;
  epsilon2   the product over internal edges (v, w) of sign(rank w - rank v);
  epsilon3   the antisymmetry sign comparing the induced orientation with
             the target class representative.

The weight of a Jacobi diagram d sums epsilon * epsilon2 * epsilon3 over
the ordered, numbered BCR diagrams inducing d, up to isomorphism, and
divides by 2^(2k - edge count).  Matched onto d, such a source is a BCR
structure on d's own vertices and edges, ordered by d's line, and `wbcr`
sums the signs there without building the sources.  Each trivalent vertex
picks its outgoing edge, its leg and its incoming cycle edge; that fixes
epsilon3 and the external chains, which run from a type-5 vertex u
through trivalent vertices to a type-4 vertex x.  The internal edges close
a ring into one cycle.  The ring holds the chains (u, x) and one element
per chord a-b, with four options:

  (b, b), (a, a)   a leg into a type-2 head at b or at a, weight -1;
  (a, b), (b, a)   a step from type 5 to type 4, weight +1.

Summed over the options and the cyclic orders, epsilon2 times these
weights is a sum over the Hamiltonian cycles of the ring in which each
step e -> f scores sgn(rank(start f) - rank(end e)); a lone type-2
element would close a loop, and sgn(0) = 0 drops it.  A subset recursion
[Bellman, JACM 9 (1962); Held-Karp, SIAM J. 10 (1962)] takes
O(2^m m^2 16) steps for m elements, where the sources number
4^c (m-1)! for c chords.  When the chains close up by themselves, the one
cycle through every trivalent vertex is the only source.  The test
oracles in `tests/oracles.py` are `sources`, which lists the sources one
by one, and `wbcr_by_orderings`, which scans every ordering of every BCR
class.
"""

from fractions import Fraction
from itertools import permutations, product

from .bcr import EXTERNAL, bcr_canonical
from .enumerate import (K_MAX, check_degree, enumerate_bcr, enumerate_jacobi,
                        per_degree)
from .errors import AmbiguousIsomorphism, NotIsomorphic
from .jacobi import JacobiDiagram, class_of
from .vectors import vector_of

ZERO = Fraction(0)


def orderings(bcr):
    """All total orders of the internal vertices, as vertex -> rank dicts."""
    internal = bcr.internal_vertices
    for perm in permutations(internal):
        yield {v: i + 1 for i, v in enumerate(perm)}


def jacobi_of(bcr, rho, sigma=None):
    """The Jacobi diagram induced by an ordering (and optional numbering).

    Edges are the external edges of `bcr`, stored tail-to-head so the
    construction's edge directions stay readable; univalent vertices are
    the internal vertices in rank order.
    """
    ext_edges = bcr.external_edges()
    new_idx = {e: i for i, e in enumerate(ext_edges)}
    edges = [(bcr.edges[e][0], bcr.edges[e][1]) for e in ext_edges]
    order = sorted(bcr.internal_vertices, key=lambda v: rho[v])

    legs = bcr.leg_edges()
    orient = {}
    cyc_in = {}
    cyc_out = {}
    for i, e in enumerate(bcr.edges):
        a, b, cls = e
        if cls != EXTERNAL:
            continue
        if bcr.type_of[a] != 3 and b in bcr.external:
            cyc_in[b] = i
        if a in bcr.external:
            cyc_out[a] = i
    for v in bcr.external:
        e_in = new_idx[cyc_in[v]]
        leg = new_idx[legs[v]]
        f_out = new_idx[cyc_out[v]]
        orient[v] = ((e_in, 1), (f_out, 0), (leg, 1))

    numbering = None
    if sigma is not None:
        numbering = {new_idx[e]: sigma[e] for e in ext_edges}
    return JacobiDiagram(bcr.nv, order, edges, orient, numbering,
                         validate=False)


def epsilon(bcr):
    return -1 if (len(bcr.external_edges()) + bcr.n_trivalent()) % 2 else 1


def epsilon2(bcr, rho):
    s = 1
    for e in bcr.internal_edges():
        v, w, _ = bcr.edges[e]
        if rho[w] < rho[v]:
            s = -s
    return s


def epsilon3(target, bcr, rho):
    """Antisymmetry sign relating the induced diagram to `target`."""
    t_key, t_sign = class_of(target)
    if t_sign == 0:
        raise AmbiguousIsomorphism(
            "the target admits an orientation-reversing symmetry, so the "
            "sign is undefined")
    key, sign = class_of(jacobi_of(bcr, rho))
    if key != t_key:
        raise NotIsomorphic("ordering does not induce the target diagram")
    if sign == 0:
        raise AmbiguousIsomorphism(
            "an orientation-reversing symmetry leaves the sign undefined")
    return sign * t_sign


# -- the source count on the target -----------------------------------------

def _vertex_roles(d, v, univalent):
    """The (out, leg, cycle-in, epsilon3 factor) choices at trivalent v: the
    leg comes from a univalent vertex, and the factor is +1 exactly when
    (cycle-in, out, leg) is a rotation of v's cyclic order."""
    cyc = [e for (e, _end) in d.orient[v]]
    roles = []
    for out, leg, c_in in permutations(cyc):
        if any(x in univalent for x in d.edges[leg]):
            turn = (cyc.index(out) - cyc.index(c_in)) % 3
            roles.append((out, leg, c_in, 1 if turn == 1 else -1))
    return roles


def _orbit_length(succ, v):
    x, n = succ[v], 1
    while x != v:
        x, n = succ[x], n + 1
    return n


def _cycle_sum(ring):
    """The signed sum over the Hamiltonian cycles of the ring.

    `ring` lists each element's options as ``(start, end, weight)`` with
    line ranks for vertices.  A cycle picks one option per element and a
    cyclic order, and scores the product of the weights and, over its steps
    e -> f, of sgn(start of f - end of e).  Held-Karp subset recursion:
    element 0 opens every cycle; the state is the set of elements visited
    and the rank at the last one's end (no two elements share a vertex, so
    that rank names the last element).
    """
    others = range(1, len(ring))
    total = 0
    for start, end, weight in ring[0]:
        layer = {(1, end): weight}
        for _ in range(len(ring) - 1):
            step = {}
            for (seen, r), val in layer.items():
                for j in others:
                    if seen >> j & 1:
                        continue
                    for s, e, w in ring[j]:
                        if s != r:
                            key = (seen | 1 << j, e)
                            step[key] = step.get(key, 0) + (
                                val * w if s > r else -val * w)
            layer = step
        total += sum(val if start > r else -val
                     for (_, r), val in layer.items() if start != r)
    return total


def wbcr(d, k_max=K_MAX):
    """The signed, weighted count of ordered numbered sources of `d`, as a
    cycle sum per choice of roles at the trivalent vertices."""
    k = d.degree
    check_degree(k, k_max)
    if not d.edges or any(a == b for (a, b) in d.edges):
        return ZERO  # the empty diagram and loops have no sources
    rank = {v: i for i, v in enumerate(d.univalent_order)}
    tri = [v for v in range(d.nv) if v not in rank]
    tt = [i for i, (a, b) in enumerate(d.edges)
          if a not in rank and b not in rank]
    # a chord a-b is a leg into type 2 at b or at a (a loop element, -1),
    # or a step from type 5 to type 4, either way (+1)
    chords = [((rank[b], rank[b], -1), (rank[a], rank[a], -1),
               (rank[a], rank[b], 1), (rank[b], rank[a], 1))
              for (a, b) in d.edges if a in rank and b in rank]

    def far(i, v):
        a, b = d.edges[i]
        return b if a == v else a

    total = 0
    for choice in product(*(_vertex_roles(d, v, rank) for v in tri)):
        # every edge between trivalent vertices leaves exactly one of them
        if sorted(r[0] for r in choice if r[0] in tt) != tt:
            continue
        succ, ring, s3, seen = {}, [], 1, 0
        for v, (out, _leg, _c_in, s) in zip(tri, choice):
            s3 *= s
            succ[v] = far(out, v)
        for v, (_out, _leg, c_in, _s) in zip(tri, choice):
            if c_in in tt:
                continue
            x = v  # walk from type 5 through trivalent to type 4
            while x in succ:
                x, seen = succ[x], seen + 1
            ring.append(((rank[far(c_in, v)], rank[x], 1),))
        if seen < len(tri):  # a closed cycle must be the whole cycle
            if not ring and not chords \
                    and _orbit_length(succ, tri[0]) == len(tri):
                total += s3
        else:
            total += s3 * _cycle_sum(ring + chords)
    if (len(d.edges) + len(tri)) % 2:
        total = -total
    if not total:
        return ZERO
    return Fraction(total, 2 ** (2 * k - len(d.edges)))


# -- the ordering scan (test oracle) -----------------------------------------

def _group_order(n, gens):
    """Order of the group generated by vertex permutations `gens`, by
    closure: only the ordering scan and the tests need |Aut|."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {tuple(g[x] for x in p)
                                for p in frontier for g in gens}
                    if q not in seen]
        seen.update(frontier)
    return len(seen)


@per_degree(lowest=1)
def _wbcr_table(k):
    """Base sums keyed by induced class: sum of eps*eps2*sign over all
    (representative, ordering) pairs, each divided by |Aut| of its source.
    Only `tests/oracles.py:wbcr_by_orderings` reads it; it stays here while
    the benchmark's tracer test (perfbench/test_perfbench.py) expects every
    traced layer function to exist."""
    table = {}
    for bcr in enumerate_bcr(k, k_max=k):
        aut = _group_order(bcr.nv, bcr_canonical(bcr)[2])
        eps = epsilon(bcr)
        # the per-term denominator identity: internal edges make up
        # exactly the gap between 2k and the induced edge count
        n_ext, n_int = len(bcr.external_edges()), len(bcr.internal_edges())
        if 2 * k - n_ext != n_int:
            raise ArithmeticError(
                f"degree-{k} source has {n_ext} external and {n_int} "
                f"internal edges")
        for rho in orderings(bcr):
            jd = jacobi_of(bcr, rho)
            key, sign = class_of(jd)
            if sign == 0:
                continue
            term = Fraction(eps * epsilon2(bcr, rho) * sign, aut)
            table[key] = table.get(key, ZERO) + term
    return table


# -- verification reports ---------------------------------------------------

def verify_main(k, k_max=K_MAX):
    """Compare the weight with minus the logarithmic circle weight on every
    degree-k class.  Returns a list of per-class report rows."""
    from .conway import wc_prime_eval
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        key, sign = class_of(rep)
        lhs = wbcr(rep, k_max)
        rhs = -wc_prime_eval(vector_of(rep), k_max=k_max)
        rows.append({
            "key": key,
            "degenerate": sign == 0,
            "wbcr": lhs,
            "minus_wc_prime": rhs,
            "equal": lhs == rhs,
        })
    return rows


def verify_stu(k, k_max=K_MAX):
    """Check the weight against every STU relator and antisymmetry."""
    from .jacobi import flipped, stu_expand, stu_sites
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        key = class_of(rep)[0]
        w = wbcr(rep, k_max)
        for (t, u) in stu_sites(rep):
            d1, d2 = stu_expand(rep, t, u)
            w1, w2 = wbcr(d1, k_max), wbcr(d2, k_max)
            rows.append({
                "site": (key, t, u),
                "kind": "STU",
                "equal": w == w1 - w2,
                "values": (w, w1, w2),
            })
        for v in rep.trivalent:
            rows.append({
                "site": (key, v),
                "kind": "AS",
                "equal": wbcr(flipped(rep, v), k_max) == -w,
                "values": (w,),
            })
    return rows
