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
structure on d's own vertices and edges, ordered by d's line, so `sources`
builds the sources there and `wbcr` sums their signs.  The test oracle
`wbcr_by_orderings` scans every ordering of every BCR class instead.
"""

from fractions import Fraction
from itertools import permutations, product

from .bcr import EXTERNAL, INTERNAL, bcr_canonical
from .canon import canonical_form
from .enumerate import (K_MAX, check_degree, enumerate_bcr, enumerate_jacobi,
                        per_degree)
from .errors import AmbiguousIsomorphism, NotIsomorphic
from .jacobi import (JacobiDiagram, _colors, canonicalize, class_of,
                     representative)
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


# -- sources on the target ---------------------------------------------------

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


def sources(d):
    """Every BCR source of `d` built on d's own vertices and edges.

    Yields ``(edges, sign)``: `edges` lists the ``(tail, head, class)``
    triples, d's edges first in d's order and directed, then the internal
    edges; d's trivalent vertices are the external vertices; `sign` is
    epsilon * epsilon2 * epsilon3 with the ordering read off d's line.
    Each trivalent vertex gets an outgoing edge, a leg from a type-3
    vertex and an incoming cycle edge; each chord is a leg into type 2 or
    a step from type 5 to type 4.  The external edges then form chains
    from type 5 to type 4 (or one closed cycle), and the internal edges
    close chains and type-2 vertices into one cycle in every order.
    """
    if not d.edges or any(a == b for (a, b) in d.edges):
        return  # the empty diagram and loops have no sources
    rank = {v: i for i, v in enumerate(d.univalent_order)}
    tri = [v for v in range(d.nv) if v not in rank]
    tt = [i for i, (a, b) in enumerate(d.edges)
          if a not in rank and b not in rank]
    chords = [i for i, (a, b) in enumerate(d.edges)
              if a in rank and b in rank]
    chord_ways = [[(a, b, 2), (b, a, 2), (a, b, 4), (b, a, 4)]
                  for (a, b) in (d.edges[i] for i in chords)]
    parity = len(d.edges) + len(tri)

    def far(i, v):
        a, b = d.edges[i]
        return b if a == v else a

    for choice in product(*(_vertex_roles(d, v, rank) for v in tri)):
        # every edge between trivalent vertices leaves exactly one of them
        if sorted(r[0] for r in choice if r[0] in tt) != tt:
            continue
        tails = [None] * len(d.edges)
        succ, starts, s3 = {}, [], 1
        for v, (out, leg, c_in, s) in zip(tri, choice):
            s3 *= s
            tails[out], succ[v], tails[leg] = v, far(out, v), far(leg, v)
            if c_in not in tt:
                tails[c_in] = far(c_in, v)
                starts.append((tails[c_in], v))
        chains, seen = [], 0
        for u, x in starts:  # walk from type 5 through trivalent to type 4
            while x in succ:
                x, seen = succ[x], seen + 1
            chains.append((u, x))
        for ways in product(*chord_ways):
            ring = list(chains)
            for i, (a, b, head_type) in zip(chords, ways):
                tails[i] = a
                ring.append((b, b) if head_type == 2 else (a, b))
            ext = [(t, far(i, t), EXTERNAL) for i, t in enumerate(tails)]
            n2 = sum(1 for (a, b) in ring if a == b)
            sign = s3 * (-1 if (parity + n2) % 2 else 1)
            if seen < len(tri):  # a closed cycle must be the whole cycle
                if not ring and _orbit_length(succ, tri[0]) == len(tri):
                    yield ext, sign
            elif len(ring) > 1 or ring[0][0] != ring[0][1]:  # no loop
                for perm in permutations(ring[1:]):
                    order = ring[:1] + list(perm)
                    internal, s2 = [], sign
                    for (_, x), (y, _) in zip(order, order[1:] + order[:1]):
                        internal.append((x, y, INTERNAL))
                        if rank[y] < rank[x]:
                            s2 = -s2
                    yield ext + internal, s2


def _orbit_length(succ, v):
    x, n = succ[v], 1
    while x != v:
        x, n = succ[x], n + 1
    return n


def wbcr(d, k_max=K_MAX):
    """The signed, weighted count of ordered numbered sources of `d`."""
    k = d.degree
    check_degree(k, k_max)
    total = sum(sign for _edges, sign in sources(d))
    if not total:
        return ZERO
    return Fraction(total, 2 ** (2 * k - len(d.edges)))


def wbcr_eval(v, k_max=K_MAX):
    """Linear extension of the weight to diagram vectors."""
    total = ZERO
    for key, c in v.terms.items():
        total += c * wbcr(representative(key), k_max)
    return total


# -- the ordering scan (test oracle) -----------------------------------------

def _parallel_factor(rep):
    """Number of edge bijections per vertex automorphism (parallel swaps)."""
    counts = {}
    for (a, b) in rep.edges:
        pair = (min(a, b), max(a, b))
        counts[pair] = counts.get(pair, 0) + 1
    out = 1
    for m in counts.values():
        f = 1
        for i in range(2, m + 1):
            f *= i
        out *= f
    return out


def _jacobi_edge_aut_order(rep):
    entries = [(u, v, 0) for (u, v) in rep.edges]
    _, perms = canonical_form(rep.nv, _colors(rep), entries)
    return len(perms) * _parallel_factor(rep)


@per_degree(lowest=1)
def _wbcr_table(k):
    """Base sums keyed by induced class: sum of eps*eps2*sign over all
    (representative, ordering) pairs, each divided by |Aut| of its source."""
    table = {}
    for bcr in enumerate_bcr(k, k_max=k):
        _, perms = bcr_canonical(bcr)
        aut = len(perms)
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


def wbcr_by_orderings(d, k_max=K_MAX):
    """`wbcr` by the test oracle: the degree-wide ordering scan, whose terms
    are divided by |Aut(source)|, times the target's edge automorphisms."""
    key, sign, rep = canonicalize(d)
    if sign == 0:
        return ZERO
    k = rep.degree
    if k == 0:
        return ZERO
    base = _wbcr_table(k, k_max).get(key, ZERO)
    if not base:
        return ZERO
    weight = Fraction(_jacobi_edge_aut_order(rep), 2 ** (2 * k - len(rep.edges)))
    return sign * base * weight


# -- verification reports ---------------------------------------------------

def verify_main(k, k_max=K_MAX):
    """Compare the weight with minus the logarithmic circle weight on every
    degree-k class.  Returns a list of per-class report rows."""
    from .conway import wc_prime_eval
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        key, sign, _ = canonicalize(rep)
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
        key = canonicalize(rep)[0]
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
