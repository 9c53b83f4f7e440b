"""From cycle-with-legs diagrams to Jacobi classes: signs and the weight.

An ordering of a BCR diagram is a total order of its internal vertices.
Each ordering induces a Jacobi diagram: keep all vertices, keep only the
external edges, order the univalent vertices by rank, and orient every
external vertex by (incoming cycle edge head, leg head, outgoing cycle edge
tail).  Three signs enter the weight:

  epsilon    (-1)^(external edges + trivalent vertices), fixed per diagram;
  epsilon2   the product over internal edges (v, w) of sign(rank w - rank v);
  epsilon3   the antisymmetry sign comparing the induced orientation with
             the target class representative.

The weight of a Jacobi diagram sums epsilon * epsilon2 * epsilon3 over all
ordered, numbered BCR diagrams inducing it, counted up to isomorphism of
the decorated diagrams, and divides by 2^(2k - edge count).  Enumerating
class representatives with all orderings counts each decorated isomorphism
class |Aut(target)| times per matching ordering and |Aut(source)| times
overall, which the implementation divides out explicitly.
"""

from fractions import Fraction
from itertools import permutations

from .bcr import EXTERNAL, bcr_canonical
from .canon import canonical_form
from .enumerate import K_MAX, enumerate_bcr, enumerate_jacobi, per_degree
from .errors import AmbiguousIsomorphism, NotIsomorphic
from .jacobi import (JacobiDiagram, _colors, canonicalize, class_of,
                     representative)
from .relations import stu_triple
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


def wbcr(d, k_max=K_MAX):
    """The signed, weighted count of ordered numbered sources of `d`."""
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


def wbcr_eval(v, k_max=K_MAX):
    """Linear extension of the weight to diagram vectors."""
    total = ZERO
    for key, c in v.terms.items():
        total += c * wbcr(representative(key), k_max)
    return total


# -- explicit triples (for numbering-independence and involution tests) ----

class Triple:
    """An ordered, numbered source diagram matched onto a target.

    Carries the matching maps: vmap sends source vertices to target
    vertices, emap sends source *external* edge indices to target edge
    indices, and sigma numbers the external edges accordingly.
    """

    __slots__ = ("bcr", "rho", "sigma", "vmap", "emap")

    def __init__(self, bcr, rho, sigma, vmap, emap):
        self.bcr = bcr
        self.rho = rho
        self.sigma = sigma
        self.vmap = vmap
        self.emap = emap

    def term_sign(self, target):
        return (epsilon(self.bcr) * epsilon2(self.bcr, self.rho)
                * epsilon3(target, self.bcr, self.rho))

    def key(self):
        """Canonical form of the fully decorated source diagram."""
        colors = []
        for v in range(self.bcr.nv):
            if v in self.bcr.external:
                colors.append(("e",))
            else:
                colors.append(("i", self.rho[v]))
        entries = []
        for i, (a, b, cls) in enumerate(self.bcr.edges):
            tag = (cls, self.sigma.get(i, 0))
            entries.append((a, b, tag))
        key, _ = canonical_form(self.bcr.nv, colors, entries, directed=True)
        return key


def _isomorphisms(source_jd, target_jd):
    """All vertex/edge matchings between isomorphic unoriented diagrams."""
    def parts(d):
        entries = [(a, b, 0) for (a, b) in d.edges]
        key, perms = canonical_form(d.nv, _colors(d), entries)
        return key, perms, entries

    key_s, perms_s, _entries_s = parts(source_jd)
    key_t, perms_t, _entries_t = parts(target_jd)
    if key_s != key_t:
        return
    inv_t = {perms_t[0][v]: v for v in range(target_jd.nv)}

    for perm_s in perms_s:
        vmap = tuple(inv_t[perm_s[v]] for v in range(source_jd.nv))
        # group source and target edges by the matched unordered pair
        buckets_s = {}
        for i, (a, b) in enumerate(source_jd.edges):
            pair = tuple(sorted((vmap[a], vmap[b])))
            buckets_s.setdefault(pair, []).append(i)
        buckets_t = {}
        for i, (a, b) in enumerate(target_jd.edges):
            pair = tuple(sorted((a, b)))
            buckets_t.setdefault(pair, []).append(i)
        for emap in _edge_bijections(buckets_s, buckets_t,
                                     len(source_jd.edges)):
            yield vmap, emap


def _edge_bijections(buckets_s, buckets_t, n_edges):
    pairs = sorted(buckets_s)
    def rec(i, acc):
        if i == len(pairs):
            yield list(acc)
            return
        src = buckets_s[pairs[i]]
        dst = buckets_t[pairs[i]]
        for assignment in permutations(dst):
            for e_s, e_t in zip(src, assignment):
                acc[e_s] = e_t
            yield from rec(i + 1, acc)
    yield from rec(0, [-1] * n_edges)


@per_degree(lowest=1)
def _match_table(k):
    """(source index, ordering) pairs per induced class, one degree at a
    time, so repeated triple listings share the scan."""
    table = {}
    for idx, bcr in enumerate(enumerate_bcr(k, k_max=k)):
        for rho in orderings(bcr):
            key, _sign = class_of(jacobi_of(bcr, rho))
            table.setdefault(key, []).append((idx, tuple(sorted(rho.items()))))
    return table


def source_triples(target, numbering, k_max=K_MAX):
    """All decorated sources of a numbered target diagram, one per
    isomorphism class of triples."""
    k = target.degree
    t_key, _ = class_of(target)
    matches = _match_table(k, k_max).get(t_key, [])
    reps = enumerate_bcr(k, k_max=k_max)
    out = []
    seen = set()
    for idx, rho_items in matches:
        bcr = reps[idx]
        rho = dict(rho_items)
        ext = bcr.external_edges()
        jd = jacobi_of(bcr, rho)
        for vmap, emap in _isomorphisms(jd, target):
            sigma = {ext[i]: numbering[emap[i]] for i in range(len(ext))}
            tri = Triple(bcr, rho, sigma, list(vmap), list(emap))
            key = tri.key()
            if key in seen:
                continue
            seen.add(key)
            out.append(tri)
    return out


def wbcr_from_triples(target, numbering, k_max=K_MAX):
    """Recompute the weight from the explicit triple list."""
    k = target.degree
    total = ZERO
    for tri in source_triples(target, numbering, k_max):
        total += tri.term_sign(target)
    return total / Fraction(2 ** (2 * k - len(target.edges)))


def canonical_numbering(d):
    return {i: i + 1 for i in range(len(d.edges))}


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
    from .jacobi import flipped, stu_sites
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        for (t, u) in stu_sites(rep):
            s, d1, d2 = stu_triple(rep, t, u)
            ws, w1, w2 = wbcr(s, k_max), wbcr(d1, k_max), wbcr(d2, k_max)
            rows.append({
                "site": (canonicalize(rep)[0], t, u),
                "kind": "STU",
                "equal": ws == w1 - w2,
                "values": (ws, w1, w2),
            })
        for v in rep.trivalent:
            rows.append({
                "site": (canonicalize(rep)[0], v),
                "kind": "AS",
                "equal": wbcr(flipped(rep, v), k_max) == -wbcr(rep, k_max),
                "values": (wbcr(rep, k_max),),
            })
    return rows
