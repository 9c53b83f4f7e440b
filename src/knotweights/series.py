"""Exact Laurent polynomials in t and truncated power series in h.

`PowerSeries.log` and `PowerSeries.exp` take O(K^2) Fraction products by
the recurrences that differentiating the series gives (Brent and Kung,
"Fast algorithms for manipulating formal power series", J. ACM 25, 1978).
For s with s_0 = 1 and l = log s, s' = l' s; the coefficient of h^(n-1)
on each side is

    n s_n = sum_{k=1}^{n} k l_k s_{n-k},

and the k = n term is n l_n s_0 = n l_n, so

    l_n = s_n - (1/n) sum_{k=1}^{n-1} k l_k s_{n-k},

each l_n from l_1 .. l_(n-1).  Likewise for a with a_0 = 0 and e = exp a,
e' = a' e gives n e_n = sum_{k=1}^{n} k a_k e_{n-k} with e_0 = 1.
"""

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

    def exp(self):
        """exp of a series with zero constant term."""
        a = self.coeffs
        if a[0]:
            raise NonUnitConstantTerm("exp needs constant term 0")
        e = [Fraction(1)]
        for n in range(1, self.K + 1):
            e.append(sum((k * a[k] * e[n - k] for k in range(1, n + 1)
                          if a[k]), Fraction(0)) / n)
        return PowerSeries(self.K, e)

    def log(self):
        """log of a series with constant term 1."""
        s = self.coeffs
        if s[0] != 1:
            raise NonUnitConstantTerm("log needs constant term 1")
        ell = [Fraction(0)]
        for n in range(1, self.K + 1):
            ell.append(s[n] - sum((k * ell[k] * s[n - k]
                                   for k in range(1, n) if s[n - k]),
                                  Fraction(0)) / n)
        return PowerSeries(self.K, ell)

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
