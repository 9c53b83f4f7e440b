"""Formal rational combinations of Jacobi diagram classes.

Coefficients are exact: a Python `int` while the value is integral, a
`fractions.Fraction` only when it is not, and any other type (a float, say)
raises `TypeError`.  Relators and class vectors have integer coefficients,
so the line quotient's rows stay in ints.  Inserting a diagram folds its
orientation into the coefficient via the antisymmetry sign, so no two
stored terms differ only by trivalent orientations and classes killed by an
orientation-reversing symmetry never appear.
"""

from fractions import Fraction

from .jacobi import class_of


def _exact(c):
    """`c` as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class DiagramVector:
    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c = _exact(c)
                if c:
                    self.terms[key] = c

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def add_term(self, key, coeff):
        c = _exact(self.terms.get(key, 0) + coeff)
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

    def __eq__(self, other):
        return (isinstance(other, DiagramVector)
                and self.degree == other.degree
                and self.terms == other.terms)

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
        v.add_term(key, coeff * sign)
    return v
