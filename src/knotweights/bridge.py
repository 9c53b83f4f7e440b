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
[Bellman, JACM 9 (1962); Held-Karp, SIAM J. 10 (1962)] over bitmasks of
the elements visited keeps, per mask, the signed sums by the rank the
path ends at, and extends a mask by all of an element's options at one
start with a single fold over those ends: O(2^m m^2) steps for m
elements, where the sources number 4^c (m-1)! for c chords.  When the
chains close up by themselves, the one cycle through every trivalent
vertex is the only source.  The roles are chosen by a product over the
trivalent vertices, and a choice is kept when the edges between
trivalent vertices, one bit each, are each the out-edge of exactly one
end.  A trivalent vertex with no leg, no edge to a univalent vertex,
has no role at all (`_vertex_roles` picks its leg among the edges to
univalent vertices), so the product of roles is empty and the diagram
has no source: `wbcr` returns 0 on it before building any role
(``JacobiDiagram.has_legless_vertex``).  This is the leg-less zero of wc
and wc' too (see `conway`), so all three weights vanish on such a
diagram.

On a chord diagram D with k chords there are no roles to choose, and the
ring is the chords alone.  Over a chord's two ends, ordered a < b, its
options weigh W[start][end] = -1 when start = end and +1 otherwise, so
W = -u u^T with u = (1, -1), a rank-one matrix.  Summed over the options,
a cycle through chords i then j takes from that pair u(end of i) u(start
of j) sgn(start of j - end of i) over the four choices of ends:
sgn(a_j - a_i) - sgn(b_j - a_i) - sgn(a_j - b_i) + sgn(b_j - b_i), which
is 2 S_ij for the signed intersection matrix S of `conway`.  So the ring
sum is (-2)^k times the sum over the cyclic orders sigma of the chords of
prod_i S[i][sigma(i)], and the sign (-1)^k and divisor 2^k of `wbcr`
leave that cycle sum.  At odd k it is 0 (reversal, see `conway`), and at
even k `conway` gives wc' as minus it: Prop 3.2 on chord diagrams.  This
step is proved, and so is `conway`'s step wc = det S_D, by the band
surface.
The test oracles in `tests/oracles.py` are `sources`, which lists
the sources one by one, `wbcr_by_orderings`, which scans every ordering
of every BCR class, and `cycle_sum_by_layers`, the cycle sum with one
state per (visited set, end rank) stepping by each option on its own.
"""

from fractions import Fraction
from itertools import groupby, permutations, product
from operator import itemgetter

from .bcr import aut_order
from .conway import wc_prime_eval
from .enumerate import (K_MAX, check_degree, enumerate_bcr, enumerate_jacobi,
                        per_degree)
from .errors import AmbiguousIsomorphism, NotIsomorphic
from .jacobi import (JacobiDiagram, class_of, flipped, stu_expand,
                     stu_sites)

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
    the internal vertices in rank order.  An external vertex is oriented
    by the out-edges of its cycle predecessor, itself and its leg.
    """
    ext_edges = bcr.external_edges()
    new_idx = {e: i for i, e in enumerate(ext_edges)}
    edges = [(bcr.edges[e][0], bcr.edges[e][1]) for e in ext_edges]
    order = sorted(bcr.internal_vertices, key=lambda v: rho[v])

    out, cycle = bcr.out_edge, bcr.cycle
    orient = {}
    for i, v in enumerate(cycle):
        if v in bcr.external:
            orient[v] = ((new_idx[out[cycle[i - 1]]], 1),
                         (new_idx[out[v]], 0),
                         (new_idx[out[bcr.legs[v]]], 1))

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
    for i, leg in enumerate(cyc):
        a, b = d.edges[leg]
        if a in univalent or b in univalent:
            after, last = cyc[i - 2], cyc[i - 1]  # (leg, after, last)
            roles.append((last, leg, after, 1))
            roles.append((after, leg, last, -1))
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
    element 0 opens every cycle, once per start rank of its options.  The
    state is the set of elements visited, as a bitmask, and the rank at the
    last one's end (no two elements share a vertex, so that rank names the
    last element): ``sums[mask]`` maps each end rank to the signed sum of
    the paths through `mask`.  Masks are taken in increasing order, so a
    mask is complete before it is extended, and dropped once it is.  An
    option of element j extends every end of a mask at once: its start s
    folds the ends into sum over r of sgn(s - r) * value, and the options
    listed together with the same start share one fold.  With m elements
    that is O(2^m m^2) fold steps per opening start.
    """
    full = (1 << len(ring)) - 1
    total = 0
    for start, opening in groupby(ring[0], key=itemgetter(0)):
        sums = [None] * (full + 1)
        sums[1] = first = {}
        for _, end, weight in opening:
            first[end] = first.get(end, 0) + weight
        for mask in range(1, full, 2):
            ends = sums[mask]
            if not ends:
                continue
            sums[mask] = None
            ends = ends.items()
            free = full ^ mask
            while free:
                bit = free & -free
                free ^= bit
                step = sums[mask | bit]
                if step is None:
                    step = sums[mask | bit] = {}
                at = None
                for s, e, w in ring[bit.bit_length() - 1]:
                    if s != at:
                        at, fold = s, 0
                        for r, val in ends:
                            if r < s:
                                fold += val
                            elif r > s:
                                fold -= val
                    if fold:
                        step[e] = step.get(e, 0) + w * fold
        for r, val in (sums[full] or {}).items():
            if start > r:
                total += val
            elif start < r:
                total -= val
    return total


def wbcr(d, k_max=K_MAX):
    """The signed, weighted count of ordered numbered sources of `d`, as a
    cycle sum per choice of roles at the trivalent vertices; 0 with no
    role built when a trivalent vertex has no leg, and so no role."""
    k = d.degree
    check_degree(k, k_max)
    if (not d.edges or any(a == b for (a, b) in d.edges)
            or d.has_legless_vertex()):
        return ZERO  # the empty diagram, loops and leg-less vertices
    rank = {v: i for i, v in enumerate(d.univalent_order)}
    tri = [v for v in range(d.nv) if v not in rank]
    tt = [i for i, (a, b) in enumerate(d.edges)
          if a not in rank and b not in rank]
    # a chord a-b is a leg into type 2 at b or at a (a loop element, -1),
    # or a step from type 5 to type 4, either way (+1); listed by start,
    # so each start's two options share one fold in the cycle sum
    chords = [((rank[b], rank[b], -1), (rank[b], rank[a], 1),
               (rank[a], rank[a], -1), (rank[a], rank[b], 1))
              for (a, b) in d.edges if a in rank and b in rank]

    def far(i, v):
        a, b = d.edges[i]
        return b if a == v else a

    # per role: the bit of its out-edge if that joins two trivalent
    # vertices, the vertex it leads to, the rank its chain starts from (None
    # when its cycle-in edge joins two trivalent vertices) and its sign
    bit = {e: 1 << i for i, e in enumerate(tt)}
    full = (1 << len(tt)) - 1
    options = [[(bit.get(out, 0), far(out, v),
                 None if c_in in bit else rank[far(c_in, v)], s)
                for out, _leg, c_in, s in _vertex_roles(d, v, rank)]
               for v in tri]
    total = 0
    for choice in product(*options):
        # every edge between trivalent vertices leaves exactly one of them
        used = outs = 0
        for b, _, _, _ in choice:
            used |= b
            outs += b
        if used != full or outs != full:
            continue
        succ, ring, s3, seen = {}, [], 1, 0
        for v, (_, w, _, s) in zip(tri, choice):
            s3 *= s
            succ[v] = w
        for v, (_, _, start, _) in zip(tri, choice):
            if start is None:
                continue
            x = v  # walk from type 5 through trivalent to type 4
            while x in succ:
                x, seen = succ[x], seen + 1
            ring.append(((start, rank[x], 1),))
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

@per_degree(lowest=1)
def _wbcr_table(k):
    """Base sums keyed by induced class: sum of eps*eps2*sign over all
    (representative, ordering) pairs, each divided by |Aut| of its source.
    Only `tests/oracles.py:wbcr_by_orderings` reads it; it stays here while
    the benchmark's tracer test (perfbench/test_perfbench.py) expects every
    traced layer function to exist."""
    table = {}
    for bcr in enumerate_bcr(k, k_max=k):
        aut = aut_order(bcr)
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
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        lhs = wbcr(rep, k_max)
        rhs = -wc_prime_eval(rep, k_max=k_max)
        rows.append({
            "key": class_of(rep)[0],
            "wbcr": lhs,
            "minus_wc_prime": rhs,
            "equal": lhs == rhs,
        })
    return rows


def verify_stu(k, k_max=K_MAX):
    """Check the weight against every STU relator and antisymmetry."""
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        w = wbcr(rep, k_max)
        for (t, u) in stu_sites(rep):
            d1, d2 = stu_expand(rep, t, u)
            w1, w2 = wbcr(d1, k_max), wbcr(d2, k_max)
            rows.append({"kind": "STU", "equal": w == w1 - w2})
        for v in rep.trivalent:
            rows.append({"kind": "AS",
                         "equal": wbcr(flipped(rep, v), k_max) == -w})
    return rows
