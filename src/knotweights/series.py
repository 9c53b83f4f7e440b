"""Exact Laurent polynomials in t and truncated power series in h.

For p = sum_m c_m t^m, p(e^h) = sum_n mu_n h^n / n! with the power sums
mu_n = sum_m c_m m^n.  If mu_0 = p(1) = 1, let log p(e^h) = sum_n kappa_n
h^n / n!.  For M = p(e^h), the h^(n-1) / (n-1)! coefficients of M' =
(log M)' M give mu_n = sum_{k=1}^{n} C(n-1, k-1) kappa_k mu_{n-k}; the k = n
term is kappa_n, so kappa_n = mu_n - sum_{k=1}^{n-1} C(n-1, k-1) kappa_k
mu_{n-k} (P. J. Smith, The American Statistician 49, 1995).  D mu_n is an
integer for D the least common denominator of the c_m; D h in place of h
multiplies mu_n and kappa_n by D^n, and D^n mu_n = D^(n-1) (D mu_n), so the
recursion runs in integers.  `exp_substitute` and `zbcr_series` make one
Fraction per order, mu_n / n! and -kappa_n / n!.

`PowerSeries.exp` takes O(K^2) Fraction products by the same kind of
identity (Brent and Kung, J. ACM 25, 1978): for a_0 = 0 and e = exp a,
e' = a' e gives n e_n = sum_{k=1}^{n} k a_k e_{n-k}, e_0 = 1.
"""

from fractions import Fraction
from math import comb, factorial, lcm

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


def _power_sums(p, K):
    """D and the integers D mu_n, n <= K, for p's power sums mu_n."""
    D = lcm(*(c.denominator for c in p.coeffs.values()))
    terms = [(c.numerator * (D // c.denominator), m)
             for m, c in p.coeffs.items()]
    return D, [sum(a * m ** n for a, m in terms) for n in range(K + 1)]


def exp_substitute(p, K):
    """Expand p(e^h) to order K: mu_n / n! at h^n."""
    D, sums = _power_sums(p, K)
    return PowerSeries(K, [Fraction(s, D * factorial(n))
                           for n, s in enumerate(sums)])


def zbcr_series(p, K):
    """{k: -[h^k] log p(e^h)} for 2 <= k <= K; p(1) must be 1."""
    D, sums = _power_sums(p, K)
    if sums[0] != D:
        raise NonUnitConstantTerm("polynomial must evaluate to 1 at t=1")
    mu = [1] + [D ** (n - 1) * sums[n] for n in range(1, K + 1)]
    kappa = [0]
    for n in range(1, K + 1):
        kappa.append(mu[n] - sum(comb(n - 1, k - 1) * kappa[k] * mu[n - k]
                                 for k in range(1, n) if mu[n - k]))
    return {n: Fraction(-kappa[n], D ** n * factorial(n))
            for n in range(2, K + 1)}


def conway_series(p, K):
    """Coefficients of p(e^h) through order K (exact rationals)."""
    return dict(enumerate(exp_substitute(p, K).coeffs))
