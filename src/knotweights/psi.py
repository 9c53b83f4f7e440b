"""Edge substitution by two-legged diagram series.

A substitution series assigns to each degree a combination of diagrams with
exactly two univalent vertices.  Applying it to a diagram picks, in every
connected component, as many edges as the component's degree, and sums over
all ways of splicing series terms into the picked edges: the edge is cut
and its endpoints inherit the term's first and second univalent vertex (in
the order the edge pair is stored).  Splicing the single chord restores the
edge, which makes the degree-1 part of the doubled framing anomaly act
trivially; that is the only part the weight-level compatibility check needs.
"""

from fractions import Fraction
from itertools import product as iproduct

from .enumerate import K_MAX, enumerate_jacobi
from .errors import BadSelection
from .jacobi import JacobiDiagram, class_of, representative, single_chord
from .vectors import DiagramVector, vector_of


class TwoLegSeries:
    """Degree-indexed combinations of two-legged diagrams (degree-1 nonzero)."""

    def __init__(self, parts):
        self.parts = {}
        for deg, vec in parts.items():
            if vec.is_zero():
                continue
            if vec.degree != deg:
                raise BadSelection(
                    f"degree-{vec.degree} vector stored at degree {deg}")
            for key in vec.terms:
                rep = representative(key)
                if len(rep.univalent_order) != 2:
                    raise BadSelection(
                        f"series term at degree {deg} has "
                        f"{len(rep.univalent_order)} univalent vertices")
            self.parts[deg] = vec
        if 1 not in self.parts:
            raise BadSelection("the degree-1 part must be nonzero")

    def terms(self):
        """Flat list of (degree, key, coefficient)."""
        out = []
        for deg in sorted(self.parts):
            for key, c in self.parts[deg].items():
                out.append((deg, key, c))
        return out


def doubled_anomaly_degree_one():
    """The degree-1 part of twice the framing anomaly: the single chord."""
    return TwoLegSeries({1: vector_of(single_chord())})


def default_edge_selection(d):
    """Lowest edge indices per component, one per unit of its degree."""
    comps, comp_of = d.component_map()
    per_comp = [[] for _ in comps]
    for i, (a, _b) in enumerate(d.edges):
        per_comp[comp_of[a]].append(i)
    return sorted(i for comp, edges in zip(comps, per_comp)
                  for i in edges[:len(comp) // 2])


def _check_selection(d, X):
    if (any(type(e) is not int or not 0 <= e < len(d.edges) for e in X)
            or len(set(X)) != len(X)):
        raise BadSelection(f"{list(X)} must list distinct edge indices "
                           f"among 0..{len(d.edges) - 1}")
    comps, comp_of = d.component_map()
    counts = [0] * len(comps)
    for e in X:
        counts[comp_of[d.edges[e][0]]] += 1
    for ci, comp in enumerate(comps):
        if counts[ci] != len(comp) // 2:
            raise BadSelection(
                f"component {ci} needs {len(comp) // 2} chosen edges, "
                f"got {counts[ci]}")


def splice(d, assignment):
    """Replace each assigned edge by a two-legged diagram.

    `assignment` maps edge indices of `d` to two-legged representatives.
    The edge (a, b) is removed and a is glued where the insert's first
    univalent vertex sat, b where the second sat; a bare chord therefore
    restores the edge.  Inserted trivalent vertices keep their cyclic
    orders.
    """
    edges = []
    emap = {}           # surviving host edge -> new index
    host_half = {}      # (host edge, end) -> new half for spliced edges
    orient_new = {}
    nv = d.nv

    for i, (a, b) in enumerate(d.edges):
        if i not in assignment:
            emap[i] = len(edges)
            edges.append((a, b))

    for e in sorted(assignment):
        a, b = d.edges[e]
        ins = assignment[e]
        l1, l2 = ins.univalent_order
        (h1,) = ins.incident(l1)
        (h2,) = ins.incident(l2)
        base = len(edges)
        lmap = {}
        for v in range(ins.nv):
            if v not in (l1, l2):
                lmap[v] = nv
                nv += 1
        for (u, v) in ins.edges:
            u2 = a if u == l1 else b if u == l2 else lmap[u]
            v2 = a if v == l1 else b if v == l2 else lmap[v]
            edges.append((u2, v2))
        host_half[(e, 0)] = (base + h1[0], h1[1])
        host_half[(e, 1)] = (base + h2[0], h2[1])
        for v, cyc in ins.orient.items():
            orient_new[lmap[v]] = tuple((base + ej, end) for (ej, end) in cyc)

    def map_half(h):
        e, end = h
        if e in emap:
            return (emap[e], end)
        return host_half[(e, end)]

    for v, cyc in d.orient.items():
        orient_new[v] = tuple(map_half(h) for h in cyc)
    return JacobiDiagram(nv, d.univalent_order, edges, orient_new,
                         validate=False)


class PsiResult:
    """Graded output of a substitution, with an overflow flag."""

    def __init__(self, parts, dropped, input_degree):
        self.parts = parts
        self.dropped = dropped
        self.input_degree = input_degree

    @property
    def vector(self):
        if not self.parts:
            return DiagramVector(self.input_degree)
        if len(self.parts) > 1:
            raise ValueError("inhomogeneous result; use .parts")
        return next(iter(self.parts.values()))


def psi_apply(gamma, d, K, X=None):
    """Sum the splices of series terms into the selected edges of `d`.

    Terms above the truncation degree K are dropped and flagged.
    """
    if d.nv == 0:
        return PsiResult({0: vector_of(d)}, False, 0)
    if X is None:
        X = default_edge_selection(d)
    else:
        _check_selection(d, X)
    terms = gamma.terms()
    dropped = False
    by_degree = {}
    for choice in iproduct(range(len(terms)), repeat=len(X)):
        coeff = Fraction(1)
        out_degree = d.degree
        assignment = {}
        for e, ti in zip(X, choice):
            deg, key, c = terms[ti]
            coeff *= c
            out_degree += deg - 1
            assignment[e] = representative(key)
        if out_degree > K:
            dropped = True
            continue
        spliced = splice(d, assignment)
        if spliced.degree != out_degree:
            raise ArithmeticError(
                f"splice produced degree {spliced.degree}, expected "
                f"{out_degree}")
        vec = by_degree.setdefault(out_degree, DiagramVector(out_degree))
        for key, c in vector_of(spliced, coeff).terms.items():
            vec.add_term(key, c)
    parts = {deg: vec for deg, vec in sorted(by_degree.items())
             if not vec.is_zero()}
    return PsiResult(parts, dropped, d.degree)


def verify_wc_psi(k, k_max=K_MAX):
    """Check the weight-level substitution compatibility on every class.
    The only series substituted is the degree-1 part, a bare chord, and
    splicing a bare chord restores the edge, so psi(D) = D and each row
    reads wc(D) = wc(D)."""
    from .conway import wc_eval
    gamma = doubled_anomaly_degree_one()
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        res = psi_apply(gamma, rep, K=k)
        lhs = sum(wc_eval(v) for v in res.parts.values())
        rhs = wc_eval(vector_of(rep))
        rows.append({
            "key": class_of(rep)[0],
            "lhs": lhs,
            "rhs": rhs,
            "equal": lhs == rhs,
        })
    return rows
