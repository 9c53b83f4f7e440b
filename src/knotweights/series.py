"""Exact Laurent polynomials in t and truncated power series in h."""

from fractions import Fraction
from math import factorial

from .errors import NonUnitConstantTerm


class LaurentPolynomial:
    """Finitely supported exponent -> Fraction map in one variable t."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[int(e)] = c

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) \
            and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                var = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = "-" + var
                else:
                    term = f"{c}*{var}"
            bits.append(term)
        out = bits[0]
        for term in bits[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    __repr__ = __str__


class PowerSeries:
    """Truncated series in h with exact rational coefficients."""

    __slots__ = ("K", "coeffs")

    def __init__(self, K, coeffs=None):
        self.K = K
        base = list(coeffs or [])
        base += [Fraction(0)] * (K + 1 - len(base))
        self.coeffs = [Fraction(c) for c in base[:K + 1]]

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        return (isinstance(other, PowerSeries) and self.K == other.K
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        K = min(self.K, other.K)
        return PowerSeries(K, [self.coeffs[i] + other.coeffs[i]
                               for i in range(K + 1)])

    def __sub__(self, other):
        K = min(self.K, other.K)
        return PowerSeries(K, [self.coeffs[i] - other.coeffs[i]
                               for i in range(K + 1)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries(self.K, [c * other for c in self.coeffs])
        K = min(self.K, other.K)
        out = [Fraction(0)] * (K + 1)
        for i in range(K + 1):
            if not self.coeffs[i]:
                continue
            for j in range(K + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return PowerSeries(K, out)

    __rmul__ = __mul__

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise NonUnitConstantTerm("exp needs constant term 0")
        out = PowerSeries(self.K, [1])
        power = PowerSeries(self.K, [1])
        for m in range(1, self.K + 1):
            power = power * self
            out = out + power * Fraction(1, factorial(m))
        return out

    def log(self):
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise NonUnitConstantTerm("log needs constant term 1")
        x = self - PowerSeries(self.K, [1])
        out = PowerSeries(self.K)
        power = PowerSeries(self.K, [1])
        for m in range(1, self.K + 1):
            power = power * x
            out = out + power * Fraction((-1) ** (m + 1), m)
        return out

    def __str__(self):
        bits = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            if n == 0:
                bits.append(str(c))
            else:
                var = "h" if n == 1 else f"h^{n}"
                bits.append(var if c == 1 else f"{c}*{var}")
        return (" + ".join(bits) or "0") + f" + O(h^{self.K + 1})"

    __repr__ = __str__


def exp_substitute(p, K):
    """Expand p(e^h) to order K: each t^m contributes m^n/n! at h^n."""
    out = [Fraction(0)] * (K + 1)
    for m, c in p.coeffs.items():
        for n in range(K + 1):
            out[n] += c * Fraction(m ** n if n else 1, factorial(n))
    return PowerSeries(K, out)


def zbcr_series(p, K):
    """Degree-indexed invariants from the symmetric normalized polynomial.

    Returns {k: -[h^k] log p(e^h)} for 2 <= k <= K.  Requires p(1) = 1 so
    the substituted series has constant term 1.
    """
    s = exp_substitute(p, K)
    if s[0] != 1:
        raise NonUnitConstantTerm("polynomial must evaluate to 1 at t=1")
    ell = s.log()
    return {k: -ell[k] for k in range(2, K + 1)}


def conway_series(p, K):
    """Coefficients of p(e^h) through order K (exact rationals)."""
    return dict(enumerate(exp_substitute(p, K).coeffs))
