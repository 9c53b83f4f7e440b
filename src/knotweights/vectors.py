"""Formal rational combinations of Jacobi diagram classes.

Coefficients are exact `fractions.Fraction` values throughout.  Inserting a
diagram folds its orientation into the coefficient via the antisymmetry
sign, so no two stored terms differ only by trivalent orientations and
classes killed by an orientation-reversing symmetry never appear.
"""

from fractions import Fraction
from math import factorial

from .errors import NonzeroConstantTerm
from .jacobi import class_of, empty_diagram, product, representative


class DiagramVector:
    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def add_term(self, key, coeff):
        c = self.terms.get(key, Fraction(0)) + coeff
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = DiagramVector(self.degree, self.terms)
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiagramVector(self.degree,
                             {k: -c for k, c in self.terms.items()})

    def scale(self, s):
        s = Fraction(s)
        if not s:
            return DiagramVector(self.degree)
        return DiagramVector(self.degree,
                             {k: c * s for k, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, DiagramVector)
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, tuple(self.items())))

    def __repr__(self):
        if not self.terms:
            return f"<0 (degree {self.degree})>"
        bits = [f"{c}*<{hash(k) & 0xffff:04x}>" for k, c in self.items()]
        return " + ".join(bits)


def vector_of(d, coeff=1):
    """The class of an oriented diagram as a vector (0 if it vanishes)."""
    key, sign = class_of(d)
    v = DiagramVector(d.degree)
    if sign:
        v.add_term(key, Fraction(coeff) * sign)
    return v


def algebra_product(u, v):
    """Bilinear extension of the diagram product (not reduced)."""
    out = DiagramVector(u.degree + v.degree)
    for k1, c1 in u.terms.items():
        d1 = representative(k1)
        for k2, c2 in v.terms.items():
            d2 = representative(k2)
            key, sign = class_of(product(d1, d2))
            if sign:
                out.add_term(key, c1 * c2 * sign)
    return out


class GradedSeries:
    """Degree-indexed vectors, truncated above degree K."""

    __slots__ = ("K", "parts")

    def __init__(self, K, parts=None):
        self.K = K
        self.parts = {}
        for d, vec in (parts or {}).items():
            if d <= K and not vec.is_zero():
                if vec.degree != d:
                    raise ValueError(f"degree {vec.degree} vector at slot {d}")
                self.parts[d] = vec

    def part(self, d):
        return self.parts.get(d, DiagramVector(d))

    def __add__(self, other):
        K = min(self.K, other.K)
        out = {}
        for d in range(K + 1):
            out[d] = self.part(d) + other.part(d)
        return GradedSeries(K, out)

    def __mul__(self, other):
        K = min(self.K, other.K)
        out = {d: DiagramVector(d) for d in range(K + 1)}
        for d1, v1 in self.parts.items():
            for d2, v2 in other.parts.items():
                if d1 + d2 <= K:
                    out[d1 + d2] = out[d1 + d2] + algebra_product(v1, v2)
        return GradedSeries(K, out)

    def scale(self, s):
        return GradedSeries(self.K,
                            {d: v.scale(s) for d, v in self.parts.items()})

    def __eq__(self, other):
        return (self.K == other.K
                and all(self.part(d) == other.part(d)
                        for d in range(self.K + 1)))

    def __hash__(self):
        return hash((self.K, tuple(sorted(self.parts))))


def unit_series(K):
    return GradedSeries(K, {0: vector_of(empty_diagram())})


def graded_exp(s):
    """exp of a graded series with vanishing degree-0 part, truncated."""
    if not s.part(0).is_zero():
        raise NonzeroConstantTerm("exp needs a zero constant term")
    acc = unit_series(s.K)
    power = unit_series(s.K)
    for m in range(1, s.K + 1):
        power = power * s
        acc = acc + power.scale(Fraction(1, factorial(m)))
    return acc
