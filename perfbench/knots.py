"""Knot inputs for the `knots` workload and the exact references they are
checked against.

Three families are generated as PD codes in the format the program reads
(`X(a,b,c,d)` per crossing, arcs labelled 1..2n consecutively along the
knot, so the crossing signs are inferred):

  torus(n)        T(2,n), n odd: two strands twisted n times;
  twist(n)        the twist knot with n half-twists and a clasp (n + 2
                  crossings): 3_1, 4_1, 5_2, 6_1, 7_2, ... for n = 1, 2, ...;
  connected sums  of two knots of the families above.

Every reference below is computed here from the family's closed form, never
by the program under test:

  torus      Delta = (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), with p = 2;
  twist      Delta = s m (t + 1/t) + 1 - 2 s m, m = ceil(n/2), s = (-1)^(n+1);
  sums       the factors' polynomials multiply.

Polynomials are dicts {exponent: int}, normalised to the symmetric form with
value 1 at t = 1.
"""

import random
from fractions import Fraction
from math import factorial

# -- PD codes -----------------------------------------------------------------


def torus_pd(n):
    """T(2,n) as crossings (a, b, c, d); matches the fixture corpus."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"T(2,{n}) is a knot only for odd n >= 3")
    m = 2 * n
    wrap = lambda x: (x - 1) % m + 1  # noqa: E731
    return [(2 * i + 1, wrap(2 * i + 1 + n), 2 * i + 2, wrap(2 * i + 2 + n))
            for i in range(n)]


# A crossing of the braid region has four ports; strands run top to bottom,
# TL -> BR and TR -> BL.  CCW lists them counterclockwise.
_OPPOSITE = {"TL": "BR", "BR": "TL", "TR": "BL", "BL": "TR"}
_CCW = ("TL", "BL", "BR", "TR")


def plat_pd(word):
    """PD code of the plat closure of a braid word on four strands.

    `word` lists crossings (i, s): strands at positions i and i + 1 cross,
    the TL-BR strand on top when s > 0.  Caps join positions (0, 1) and
    (2, 3) above the word, and cups join them below.
    """
    width = 4
    link = {}

    def join(p, q):
        link[p] = q
        link[q] = p

    through = {}
    for p in range(0, width, 2):
        for end in ("cap", "cup"):
            through[(end, p)] = (end, p + 1)
            through[(end, p + 1)] = (end, p)
    open_ends = [("cap", p) for p in range(width)]
    for c, (i, _s) in enumerate(word):
        join(open_ends[i], (c, "TL"))
        join(open_ends[i + 1], (c, "TR"))
        open_ends[i], open_ends[i + 1] = (c, "BL"), (c, "BR")
    for p in range(width):
        join(open_ends[p], ("cup", p))

    arc_at = {}
    entries = []
    here = (0, "TL")
    while True:
        entries.append(here)
        out = (here[0], _OPPOSITE[here[1]])
        arc_at[out] = len(entries)
        end = link[out]
        while end[0] in ("cap", "cup"):
            end = link[through[end]]
        arc_at[end] = len(entries)
        here = end
        if here == (0, "TL"):
            break
    if len(entries) != 2 * len(word):
        raise ValueError("the plat closure has more than one component")

    crossings = []
    for c, port in sorted(entries):
        over = ("TL", "BR") if word[c][1] > 0 else ("TR", "BL")
        if port in over:
            continue
        k = _CCW.index(port)
        crossings.append(tuple(arc_at[(c, _CCW[(k + j) % 4])]
                               for j in range(4)))
    return crossings


def twist_pd(n):
    """The twist knot with n >= 1 half-twists (n + 2 crossings)."""
    if n < 1:
        raise ValueError("a twist knot needs at least one half-twist")
    return plat_pd([(1, 1)] * n + [(0, -1), (1, 1)])


def connected_sum_pd(x1, x2):
    """Join two PD codes: arc 2n1 of the first runs on into the second."""
    top = 2 * len(x1)
    shifted = [tuple(a + top for a in x) for x in x2]
    last = top + 2 * len(x2)

    def reroute(crossings, label, prev, new):
        # the occurrence of `label` whose strand partner is `prev` is where
        # the arc starts; it becomes `new`
        out = []
        for (a, b, c, d) in crossings:
            x = [a, b, c, d]
            for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
                if x[i] == label and x[j] == prev:
                    x[i] = new
            out.append(tuple(x))
        return out

    return (reroute(x1, 1, top, top + 1)
            + reroute(shifted, top + 1, last, 1))


def format_pd(crossings):
    return "".join("X(%d,%d,%d,%d)\n" % x for x in crossings)


# -- closed forms -------------------------------------------------------------


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_divexact(p, q):
    """Exact division of polynomials with integer coefficients."""
    p = dict(p)
    dq = max(q)
    out = {}
    while p:
        dp = max(p)
        if dp < dq or p[dp] % q[dq]:
            raise ArithmeticError("division is not exact")
        c = p[dp] // q[dq]
        out[dp - dq] = c
        p = _poly_sub(p, {e + dp - dq: c * v for e, v in q.items()})
    return out


def _poly_sub(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _normalise(p):
    lo, hi = min(p), max(p)
    if (lo + hi) % 2:
        raise ArithmeticError("odd exponent span")
    p = {e - (lo + hi) // 2: c for e, c in p.items()}
    at_one = sum(p.values())
    if at_one not in (1, -1):
        raise ArithmeticError("not a knot polynomial")
    return {e: c * at_one for e, c in p.items()}


def torus_delta(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), symmetric and normalised."""
    def tm1(e):
        return {e: 1, 0: -1}
    num = _poly_mul(tm1(p * q), tm1(1))
    den = _poly_mul(tm1(p), tm1(q))
    return _normalise(_poly_divexact(num, den))


def twist_delta(n):
    m = (n + 1) // 2
    s = 1 if n % 2 else -1
    return {1: s * m, 0: 1 - 2 * s * m, -1: s * m}


def sum_delta(d1, d2):
    return _poly_mul(d1, d2)


# -- series references ----------------------------------------------------------


def exp_series(delta, K):
    """Coefficients of Delta(e^h) through h^K: t^m gives m^n / n! at h^n."""
    return [sum((Fraction(c * m ** n, factorial(n)) for m, c in delta.items()),
                Fraction(0)) for n in range(K + 1)]


def log_series(s):
    """log of a series with constant term 1: n l_n = n s_n - sum k l_k s_(n-k)."""
    if s[0] != 1:
        raise ArithmeticError("constant term must be 1")
    out = [Fraction(0)] * len(s)
    for n in range(1, len(s)):
        acc = n * s[n] - sum(k * out[k] * s[n - k] for k in range(1, n))
        out[n] = acc / n
    return out


def parse_laurent(text):
    """Parse the program's printed Laurent polynomial, e.g. '2*t - 3 + 2*t^-1'."""
    out = {}
    text = text.strip()
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "*" in term:
            coeff, var = term.split("*")
        elif term.startswith("t"):
            coeff, var = "1", term
        else:
            coeff, var = term, ""
        if var == "":
            e = 0
        elif var == "t":
            e = 1
        elif var.startswith("t^"):
            e = int(var[2:])
        else:
            raise ValueError(f"cannot parse term {term!r}")
        if e in out:
            raise ValueError(f"repeated exponent in {text!r}")
        out[e] = sign * Fraction(coeff)
    return out


# -- the seeded draw ------------------------------------------------------------

TORUS_NS = tuple(range(3, 18, 2))          # 3 .. 17 crossings
TWIST_NS = tuple(range(1, 16))             # 3 .. 17 crossings
SERIES_K = 8

# Connected sums as ((family, n), (family, n)), first factor first.  The
# factor order matters to the cost: a torus factor first makes the
# determinant's expansion much slower than the same factor second.
SUMS = (
    (("T", 3), ("W", 12)), (("W", 1), ("T", 5)), (("T", 7), ("W", 4)),
    (("W", 2), ("T", 9)), (("T", 11), ("W", 1)), (("W", 2), ("T", 13)),
    (("T", 3), ("T", 3)), (("T", 5), ("T", 7)), (("T", 7), ("T", 9)),
    (("W", 1), ("W", 1)), (("W", 2), ("W", 3)), (("W", 4), ("W", 6)),
    (("W", 5), ("W", 8)),
)


def _prime(kind, n):
    if kind == "T":
        return f"T(2,{n})", torus_pd(n), torus_delta(2, n)
    return f"Tw({n})", twist_pd(n), twist_delta(n)


def mirror_pd(crossings):
    """The mirror image: reflect the diagram, swapping b and d."""
    return [(a, d, c, b) for (a, b, c, d) in crossings]


def draw(seed):
    """The knots of one run as (name, crossings, delta), in seeded order.

    The knots are every torus and twist knot of 3 to 17 crossings and the
    connected sums in SUMS, each as drawn and as its mirror image (marked
    '*'; same polynomial, opposite crossing signs).  The seed sets only the
    order.  The set itself is fixed because single knots cost up to a
    hundred times the median, and mirroring alone moves a cost by up to
    40%: a seeded choice of knots would let the seed, not the program, set
    the latency tail.
    """
    out = [_prime("T", n) for n in TORUS_NS]
    out += [_prime("W", n) for n in TWIST_NS]
    for a, b in SUMS:
        (name_a, pd_a, da), (name_b, pd_b, db) = _prime(*a), _prime(*b)
        out.append((f"{name_a}#{name_b}", connected_sum_pd(pd_a, pd_b),
                    sum_delta(da, db)))
    out += [(f"{name}*", mirror_pd(crossings), delta)
            for name, crossings, delta in out]
    random.Random(seed).shuffle(out)
    return out
