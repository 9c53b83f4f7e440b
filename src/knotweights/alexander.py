"""Two independent routes to the Alexander/Conway polynomial of a knot.

The primary route builds the Alexander matrix from the crossing relations
of the knot group (one generator per arc, one relation per crossing, with
the derivative rows (1-t, t, -1) at the overstrand, incoming and outgoing
understrand for positive crossings and the unit-adjusted transpose for
negative ones), deletes one row and one column, takes the exact
determinant over Z[t] by Bareiss's fraction-free elimination [Bareiss,
Math. Comp. 22 (1968)] in O(n^3) polynomial products, and normalizes to
the symmetric representative with value 1 at t = 1.  Every Bareiss step
divides by the previous pivot, and the division is checked to be exact:
a remainder raises ArithmeticError.  From the matrix entries to the
normalized polynomial, an element of Z[t] is a list of integer
coefficients, lowest power first, with no zero top coefficient and [] for
0; each route builds one `LaurentPolynomial`, centered on t^0, at its
end.

The oracle route resolves crossings through Conway's skein relation
[Conway, An enumeration of knots and links, 1970]: switch and smooth at the
first crossing met on its understrand, reaching descending diagrams, which
are unknots or split links.  Before each step the tangle drops its kinks,
isolated curls and bigons (Reidemeister I and II), and a tangle left with
both free circles and crossings is split, so its polynomial is 0.  The
polynomial of each reduced tangle is memoized for the length of one call,
which makes the recursion polynomial on T(2,n), where the bare recursion
grows like a Fibonacci sequence.  The moves keep the link type on planar
codes, the only ones a `PDCode` holds.  The value at
z = t^(1/2) - t^(-1/2) is symmetric and equals 1 at t = 1 by construction,
so the two routes must agree exactly.
"""

from math import comb

from .errors import DegenerateDiagram
from .series import LaurentPolynomial


def _arc_classes(pd):
    """Merge the PD edges of each overpass into one strand generator."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in pd.crossings:
        o_in, o_out = pd.over_pair(x)
        ri, ro = find(o_in), find(o_out)
        if ri != ro:
            parent[max(ri, ro)] = min(ri, ro)
    return {label: find(label) for label in pd.arcs()}


# the entries c0 + c1 t of a crossing's row at its over-in, under-in and
# under-out arcs: relation out = over * in * over^-1 at a positive
# crossing, and out = over^-1 * in * over (times the unit t) at a negative
# one
_POSITIVE_ROW = ((1, -1), (0, 1), (-1, 0))
_NEGATIVE_ROW = ((-1, 1), (1, 0), (0, -1))


def _trimmed(coeffs):
    """`coeffs` without its zero top coefficients."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _alexander_matrix(pd):
    cls = _arc_classes(pd)
    gens = sorted(set(cls.values()))
    idx = {g: i for i, g in enumerate(gens)}
    rows = []
    for x in pd.crossings:
        row = [[0, 0] for _ in gens]
        arcs = (pd.over_pair(x)[0], x.under_in, x.under_out)
        entries = _POSITIVE_ROW if x.sign > 0 else _NEGATIVE_ROW
        for arc, (c0, c1) in zip(arcs, entries):
            entry = row[idx[cls[arc]]]
            entry[0] += c0
            entry[1] += c1
        rows.append([_trimmed(entry) for entry in row])
    return rows, gens


def _mul_sub(a, b, c, d):
    """a*b - c*d for coefficient lists, with no zero leading coefficient."""
    out = [0] * max(len(a) + len(b), len(c) + len(d))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i, x in enumerate(c):
        for j, y in enumerate(d):
            out[i + j] -= x * y
    return _trimmed(out)


def _div_exact(num, den):
    """num / den in Z[t]; a remainder raises ArithmeticError."""
    num = list(num)
    lead = den[-1]
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], lead)
        if r:
            raise ArithmeticError("Bareiss step is not an exact division")
        quot[k] = q
        if q:
            for i, y in enumerate(den):
                num[k + i] -= q * y
    if any(num[:len(den) - 1]):
        raise ArithmeticError("Bareiss step is not an exact division")
    return quot


def _det(rows):
    """Exact determinant over Z[t] by Bareiss's fraction-free elimination.

    Entries and the result are coefficient lists, lowest power first, with
    no zero top coefficient; [] is 0, and the empty matrix has determinant
    [1].  Step k replaces each entry below and right of the pivot p_k by
    (p_k a_ij - a_ik a_kj) / p_(k-1), a minor of the input, so the division
    is exact; a remainder raises ArithmeticError.  A zero pivot swaps in a
    lower row; a column with no pivot makes the determinant 0.  O(n^3)
    products of polynomials of degree <= n.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, [1]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            for j in range(k + 1, n):
                num = _mul_sub(p, row_i[j], row_i[k], row_k[j])
                row_i[j] = _div_exact(num, prev) if num else num
        prev = p
    return [sign * c for c in prev]


def symmetric_normalize(coeffs):
    """Unit-adjust a determinant, given as a coefficient list with no zero
    top coefficient, to the symmetric form with value 1 at 1: the list
    from its lowest nonzero power up, read as centered on t^0."""
    low = next((i for i, c in enumerate(coeffs) if c), None)
    if low is None:
        raise DegenerateDiagram("vanishing determinant")
    q = coeffs[low:]
    if len(q) % 2 == 0:
        # balance by the frame shift t^(1/2); knots always allow it
        raise DegenerateDiagram("odd exponent span cannot be symmetrized")
    if q != q[::-1]:
        raise DegenerateDiagram("determinant is not symmetric up to units")
    at_one = sum(q)
    if at_one == 1:
        return q
    if at_one == -1:
        return [-c for c in q]
    raise DegenerateDiagram(f"value {at_one} at t=1; expected a unit")


def _centered(coeffs):
    """The Laurent polynomial of an odd-length coefficient list whose
    middle entry is the coefficient of t^0."""
    mid = len(coeffs) // 2
    return LaurentPolynomial({i - mid: c for i, c in enumerate(coeffs)})


def alexander_poly(pd):
    """Symmetric Alexander polynomial with value 1 at t = 1."""
    rows, gens = _alexander_matrix(pd)
    sub = [row[:len(gens) - 1] for row in rows[:-1]]
    return _centered(symmetric_normalize(_det(sub)))


# -- skein-recursion oracle ---------------------------------------------------

def _joined(crossings, joins, free_circles):
    """Crossings with each pair of arcs in `joins` merged, and the free
    circle count.  Each join renames the larger of its two arcs to the
    smaller, after the joins before it; a join of an arc with itself closes
    a free circle."""
    rename = {}
    for (x, y) in joins:
        x, y = rename.get(x, x), rename.get(y, y)
        if x == y:
            free_circles += 1
            continue
        lo, hi = min(x, y), max(x, y)
        for k, v in rename.items():
            if v == hi:
                rename[k] = lo
        rename[hi] = lo
    if rename:
        crossings = [(rename.get(a, a), rename.get(b, b), rename.get(c, c),
                      rename.get(d, d), s) for (a, b, c, d, s) in crossings]
    return crossings, free_circles


def _reidemeister_move(crossings):
    """(crossings to drop, arcs to join) of the first Reidemeister I or II
    move the tangle allows, or None.

    A kink is a crossing whose understrand runs straight into its
    overstrand (uo == oi) or back (oo == ui); dropping it joins the two
    other ends, and a crossing that is both is an isolated curl, whose join
    closes a free circle.  A bigon is a pair i != j of opposite signs where
    the overstrand leaves i and enters j as the over arc and the
    understrand joins i and j by one arc, in the same direction (uo_i ==
    ui_j) or the opposite one (uo_j == ui_i); dropping both joins the ends
    of each strand.  On a planar code, the opposite signs are what make the
    two arcs bound a face.
    """
    for k, (ui, uo, oi, oo, _s) in enumerate(crossings):
        if uo == oi:
            return (k,), ((ui, oo),)
        if oo == ui:
            return (k,), ((oi, uo),)
    over_in = {c[2]: k for k, c in enumerate(crossings)}
    for i, (ui, uo, oi, oo, s) in enumerate(crossings):
        j = over_in.get(oo)
        if j is None or crossings[j][4] != -s:
            continue
        uj, uoj, _oij, ooj, _sj = crossings[j]
        if uj == uo:
            return (i, j), ((oi, ooj), (ui, uoj))
        if uoj == ui:
            return (i, j), ((oi, ooj), (uj, uo))
    return None


class _Tangle:
    """Crossing tuples (under_in, under_out, over_in, over_out, sign) for
    the recursion, with a count of free circles."""

    __slots__ = ("crossings", "free_circles")

    def __init__(self, crossings, free_circles=0):
        self.crossings = crossings
        self.free_circles = free_circles

    @classmethod
    def from_pd(cls, pd):
        return cls([(x.under_in, x.under_out) + pd.over_pair(x) + (x.sign,)
                    for x in pd.crossings])

    def walk(self):
        """(first underpass, component count) in one walk of the arcs.

        Components are walked from their smallest arc, smallest first; the
        first underpass is the first crossing met on its understrand before
        it is met on its overstrand.  When there is one, the walk stops
        there and the count is None.
        """
        succ = {}
        enters_under = {}
        enters_over = {}
        for ci, (ui, uo, oi, oo, _s) in enumerate(self.crossings):
            succ[ui] = uo
            succ[oi] = oo
            enters_under[ui] = ci
            enters_over[oi] = ci
        passed_over = set()
        seen = set()
        n_comp = 0
        for start in sorted(succ):
            if start in seen:
                continue
            n_comp += 1
            arc = start
            while True:
                seen.add(arc)
                ci = enters_under.get(arc)
                if ci is None:
                    passed_over.add(enters_over[arc])
                elif ci not in passed_over:
                    return ci, None
                arc = succ[arc]
                if arc == start:
                    break
        return None, n_comp

    def switched(self, i):
        crossings = list(self.crossings)
        ui, uo, oi, oo, s = crossings[i]
        crossings[i] = (oi, oo, ui, uo, -s)
        return _Tangle(crossings, self.free_circles)

    def smoothed(self, i):
        """Oriented smoothing: under-in joins over-out and vice versa."""
        crossings = list(self.crossings)
        ui, uo, oi, oo, _s = crossings.pop(i)
        return _Tangle(*_joined(crossings, ((ui, oo), (oi, uo)),
                                self.free_circles))

    def reduced(self):
        """The tangle after every Reidemeister I and II move it allows,
        with its crossings as a sorted tuple."""
        crossings, free = self.crossings, self.free_circles
        while (move := _reidemeister_move(crossings)) is not None:
            drop, joins = move
            crossings, free = _joined(
                [c for k, c in enumerate(crossings) if k not in drop],
                joins, free)
        return _Tangle(tuple(sorted(crossings)), free)


def _nabla(tangle, memo):
    """Conway polynomial coefficients as {exponent of z: int}, memoized in
    `memo` on the reduced tangle."""
    tangle = tangle.reduced()
    if not tangle.crossings:
        return {0: 1} if tangle.free_circles == 1 else {}
    if tangle.free_circles:
        return {}   # a free circle beside a nonempty diagram: a split link
    key = (tangle.crossings, tangle.free_circles)
    got = memo.get(key)
    if got is not None:
        return got
    ci, n_comp = tangle.walk()
    if ci is None:
        # descending diagram: an unknot when there is a single component
        out = {0: 1} if n_comp == 1 else {}
    else:
        sign = tangle.crossings[ci][4]
        out = dict(_nabla(tangle.switched(ci), memo))
        for e, c in _nabla(tangle.smoothed(ci), memo).items():
            out[e + 1] = out.get(e + 1, 0) + sign * c
        out = {e: c for e, c in out.items() if c}
    memo[key] = out
    return out


def conway_skein(pd):
    """Conway polynomial in z by the two-term crossing recursion on reduced
    tangles.

    Every tangle is first reduced by Reidemeister I and II moves; one with
    crossings and a free circle is split, so its polynomial is 0.  The
    reduced tangle picks its first underpass and recurses on the switch and
    the smoothing there, memoized on the exact reduced tangle in a dict
    that lives for this call only.  The moves keep the link type because a
    `PDCode` is planar.
    """
    if len(pd) == 0:
        return {0: 1}
    return _nabla(_Tangle.from_pd(pd), {})


def nabla_to_alexander(nabla):
    """Substitute z^2 = t - 2 + 1/t (knots have even powers only)."""
    if any(e % 2 for e in nabla):
        raise DegenerateDiagram("odd z power; not a knot polynomial")
    half = max(nabla, default=0) // 2
    out = [0] * (2 * half + 1)
    for e, c in nabla.items():
        m = e // 2
        # t^m z^(2m) = (t - 1)^(2m)
        for i in range(2 * m + 1):
            out[half - m + i] += (-1) ** i * comb(2 * m, i) * c
    return _centered(out)


def alexander_by_skein(pd):
    return nabla_to_alexander(conway_skein(pd))
