import random
from fractions import Fraction
from pathlib import Path

import pytest

from knotweights.alexander import (_alexander_matrix, _det, _div_exact,
                                   _Tangle, alexander_by_skein,
                                   alexander_poly, conway_skein,
                                   symmetric_normalize)
from knotweights.errors import (ArcCountError, DegenerateDiagram,
                                MultiComponentError, NonUnitConstantTerm,
                                ParseError)
from knotweights.pd import format_pd, parse_pd
from knotweights.series import (LaurentPolynomial, PowerSeries,
                                conway_series, exp_substitute, zbcr_series)

from helpers import (connected_sum, gauss_pd, random_gauss_knot, torus_knot,
                     twist_knot)
from oracles import _ListTangle, conway_skein_lists, laplace_det

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS = ["unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1"]

DELTAS = {
    "unknot": {0: 1},
    "3_1": {1: 1, 0: -1, -1: 1},
    "4_1": {1: -1, 0: 3, -1: -1},
    "5_1": {2: 1, 1: -1, 0: 1, -1: -1, -2: 1},
    "5_2": {1: 2, 0: -3, -1: 2},
    "6_1": {1: -2, 0: 5, -1: -2},
    "6_2": {2: -1, 1: 3, 0: -3, -1: 3, -2: -1},
    "6_3": {2: 1, 1: -3, 0: 5, -1: -3, -2: 1},
    "7_1": {3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1},
}

NABLAS = {
    "unknot": {0: 1},
    "3_1": {0: 1, 2: 1},
    "4_1": {0: 1, 2: -1},
    "5_1": {0: 1, 2: 3, 4: 1},
    "5_2": {0: 1, 2: 2},
    "6_1": {0: 1, 2: -2},
    "6_2": {0: 1, 2: -1, 4: -1},
    "6_3": {0: 1, 2: 1, 4: 1},
    "7_1": {0: 1, 2: 6, 4: 5, 6: 1},
}


def load(name):
    return parse_pd((FIXTURES / f"{name}.pd").read_text())


def test_parse_empty_is_unknot():
    pd = parse_pd("# nothing here\n\n")
    assert len(pd) == 0
    assert alexander_poly(pd) == LaurentPolynomial.one()


def test_parse_round_trip():
    pd = load("3_1")
    again = parse_pd(format_pd(pd))
    assert again.crossings == pd.crossings


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3)\n")


def test_arc_count_error():
    with pytest.raises(ArcCountError):
        parse_pd("X(1,2,1,3) +\nX(1,3,2,2) +\n")


def test_multi_component_rejected():
    # a two-component link: every arc label twice, two traversal cycles
    with pytest.raises(MultiComponentError):
        parse_pd("X(1,3,2,4) +\nX(2,4,1,3) +\n")


def test_alexander_values():
    for name in CORPUS:
        assert alexander_poly(load(name)) == LaurentPolynomial(DELTAS[name])


def test_skein_oracle_agrees():
    for name in CORPUS:
        pd = load(name)
        assert alexander_poly(pd) == alexander_by_skein(pd)
        assert conway_skein(pd) == NABLAS[name]


def test_symmetry_and_normalization():
    for name in CORPUS:
        p = alexander_poly(load(name))
        assert p == p.invert_variable()
        assert p(1) == 1


def test_mirror_invariance():
    for name in CORPUS:
        pd = load(name)
        assert alexander_poly(pd.mirror()) == alexander_poly(pd)


def test_exp_substitute_basics():
    one = LaurentPolynomial.one()
    assert exp_substitute(one, 5) == PowerSeries(5, [1])
    t = LaurentPolynomial.t_power(1)
    s = exp_substitute(t, 4)
    assert [s[i] for i in range(5)] == [1, 1, Fraction(1, 2),
                                        Fraction(1, 6), Fraction(1, 24)]


def test_trefoil_series():
    p = alexander_poly(load("3_1"))
    s = exp_substitute(p, 4)
    assert [s[i] for i in range(5)] == [1, 0, 1, 0, Fraction(1, 12)]
    z = zbcr_series(p, 4)
    assert z == {2: Fraction(-1), 3: Fraction(0), 4: Fraction(5, 12)}
    c = conway_series(p, 4)
    assert c[0] == 1 and c[2] == 1 and c[4] == Fraction(1, 12)


def test_unknot_series_vanish():
    p = alexander_poly(load("unknot"))
    assert all(v == 0 for v in zbcr_series(p, 6).values())
    c = conway_series(p, 6)
    assert c[0] == 1 and all(c[k] == 0 for k in range(1, 7))


def test_odd_log_coefficients_vanish():
    for name in CORPUS:
        z = zbcr_series(alexander_poly(load(name)), 7)
        for k in (3, 5, 7):
            assert z[k] == 0


def test_series_identity_through_degree_six():
    for name in CORPUS:
        p = alexander_poly(load(name))
        z = zbcr_series(p, 6)
        minus = PowerSeries(6, [0, 0] + [-z[k] for k in range(2, 7)])
        lhs = minus.exp()
        c = conway_series(p, 6)
        assert all(lhs[k] == c[k] for k in range(7))


def test_non_unit_constant_term_rejected():
    with pytest.raises(NonUnitConstantTerm):
        zbcr_series(LaurentPolynomial({0: 2}), 4)


def test_power_series_log_exp_roundtrip():
    s = PowerSeries(6, [1, 0, 1, 0, Fraction(1, 12)])
    assert s.log().exp() == s
    with pytest.raises(NonUnitConstantTerm):
        PowerSeries(3, [0, 1]).log()
    with pytest.raises(NonUnitConstantTerm):
        PowerSeries(3, [1, 1]).exp()


# -- the Bareiss determinant and the skein recursion against their oracles ----

T = LaurentPolynomial.t_power(1)
ONE = LaurentPolynomial.one()
ENTRIES = [LaurentPolynomial(), LaurentPolynomial(), ONE, -ONE, T, -T,
           ONE - T, T - ONE]


def _knot_matrix(pd):
    rows, gens = _alexander_matrix(pd)
    return [row[:len(gens) - 1] for row in rows[:-1]]


def test_bareiss_matches_laplace_on_random_matrices():
    rng = random.Random(20261018)
    singular = zero_lead = 0
    for _ in range(200):
        n = rng.randrange(8)
        rows = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
        want = laplace_det(rows)
        assert _det(rows) == want
        singular += want.is_zero()
        zero_lead += n > 0 and rows[0][0].is_zero()
    # the draw reaches the zero-column exit and the row swaps
    assert singular >= 10 and zero_lead >= 20


def test_bareiss_matches_laplace_on_the_fixtures():
    for path in sorted(FIXTURES.glob("*.pd")):
        pd = parse_pd(path.read_text())
        if len(pd):
            rows = _knot_matrix(pd)
            assert _det(rows) == laplace_det(rows), path.name


def test_bareiss_rejects_entries_outside_z_t():
    with pytest.raises(ArithmeticError, match="not in Z"):
        _det([[LaurentPolynomial({-1: 1})]])
    with pytest.raises(ArithmeticError, match="not in Z"):
        _det([[ONE, T], [LaurentPolynomial({0: Fraction(1, 2)}), ONE]])


def test_bareiss_division_must_be_exact():
    assert _div_exact([-1, 0, 1], [-1, 1]) == [1, 1]    # (t^2 - 1)/(t - 1)
    assert _div_exact([0, 0, 6], [0, 3]) == [0, 2]
    for num, den in (([1, 0, 1], [-1, 1]), ([3], [2]), ([1, 1], [0, 1]),
                     ([1], [1, 1])):
        with pytest.raises(ArithmeticError, match="not an exact division"):
            _div_exact(num, den)


def test_singular_matrix_is_a_vanishing_determinant():
    rows = [[ONE - T, T], [ONE - T, T]]
    assert _det(rows).is_zero() and laplace_det(rows).is_zero()
    with pytest.raises(DegenerateDiagram, match="vanishing determinant"):
        symmetric_normalize(_det(rows))


def _torus_delta(n):
    """T(2,n): the sum of (-t)^i for i < n, centered."""
    return LaurentPolynomial({i - (n - 1) // 2: (-1) ** i for i in range(n)})


def _twist_delta(m):
    """The twist knot with m half-twists: s c (t + 1/t) + 1 - 2 s c with
    c = ceil(m/2) and s = +1 for odd m, -1 for even m."""
    c, s = (m + 1) // 2, 1 if m % 2 else -1
    return LaurentPolynomial({1: s * c, 0: 1 - 2 * s * c, -1: s * c})


def _small_knots():
    """T(2,n), twist knots and connected sums of 3 to 13 crossings, each
    with its closed-form Delta."""
    out = [(f"T(2,{n})", torus_knot(n), _torus_delta(n))
           for n in range(3, 14, 2)]
    out += [(f"Tw({m})", twist_knot(m), _twist_delta(m))
            for m in range(1, 12)]
    for (a, b) in ((3, 3), (3, 5), (5, 7), (3, 9)):
        out.append((f"T(2,{a})#T(2,{b})",
                    connected_sum(torus_knot(a), torus_knot(b)),
                    _torus_delta(a) * _torus_delta(b)))
    for (a, b) in ((1, 1), (2, 3), (4, 5), (1, 8)):
        out.append((f"Tw({a})#Tw({b})",
                    connected_sum(twist_knot(a), twist_knot(b)),
                    _twist_delta(a) * _twist_delta(b)))
    for (a, b) in ((3, 2), (5, 6), (9, 2)):
        out.append((f"T(2,{a})#Tw({b})",
                    connected_sum(torus_knot(a), twist_knot(b)),
                    _torus_delta(a) * _twist_delta(b)))
        out.append((f"Tw({b})#T(2,{a})",
                    connected_sum(twist_knot(b), torus_knot(a)),
                    _torus_delta(a) * _twist_delta(b)))
    return out


SMALL_KNOTS = _small_knots()


@pytest.mark.parametrize("name, knot, delta", SMALL_KNOTS,
                         ids=[name for name, _, _ in SMALL_KNOTS])
def test_generated_knots_match_their_closed_forms(name, knot, delta):
    pd = gauss_pd(knot)
    assert len(pd) <= 13
    for p in (pd, pd.mirror()):
        assert alexander_poly(p) == delta
        assert alexander_by_skein(p) == delta
        rows = _knot_matrix(p)
        if len(rows) <= 9:
            assert _det(rows) == laplace_det(rows)


def _same_recursion(new, old):
    """Walk both recursion trees in step: the same crossings, labels and
    free circles at every node, and the same crossing picked."""
    assert new.crossings == [tuple(c) for c in old.crossings]
    assert new.free_circles == old.free_circles
    if not new.crossings:
        return
    ci, n_comp = new.walk()
    assert ci == old.first_underpass()
    if ci is None:
        assert n_comp == len(old.components())
        return
    _same_recursion(new.switched(ci), old.switched(ci))
    _same_recursion(new.smoothed(ci), old.smoothed(ci))


def _check_skein_against_lists(pd):
    for p in (pd, pd.mirror()):
        assert conway_skein(p) == conway_skein_lists(p)
        if len(p):
            _same_recursion(_Tangle.from_pd(p), _ListTangle.from_pd(p))


@pytest.mark.parametrize("name, knot, delta", SMALL_KNOTS,
                         ids=[name for name, _, _ in SMALL_KNOTS])
def test_skein_matches_the_list_recursion(name, knot, delta):
    _check_skein_against_lists(gauss_pd(knot))


def test_skein_matches_the_list_recursion_on_the_fixtures():
    for path in sorted(FIXTURES.glob("*.pd")):
        _check_skein_against_lists(parse_pd(path.read_text()))


def test_skein_matches_the_list_recursion_on_virtual_codes():
    # non-planar codes reach tangles where both joins of a smoothing meet
    # the same arc, so the second renames the first one's target
    rng = random.Random(7)
    for _ in range(60):
        _check_skein_against_lists(
            gauss_pd(random_gauss_knot(rng.randrange(1, 8), rng)))


# a random Gauss code with no planar diagram: its determinant and skein
# recursion disagree
NON_PLANAR = """X(12,5,1,4) -
X(7,7,8,6) -
X(1,11,2,12) +
X(2,8,3,9) +
X(10,10,11,9) -
X(3,6,4,5) -
"""


def test_parse_accepts_the_generated_planar_codes():
    codes = [gauss_pd(knot) for _, knot, _ in SMALL_KNOTS]
    codes += [gauss_pd(torus_knot(n)) for n in range(15, 42, 2)]
    for pd in codes:
        for p in (pd, pd.mirror()):
            assert parse_pd(format_pd(p)).crossings == p.crossings


def test_parse_rejects_non_planar_codes():
    with pytest.raises(ParseError, match="not planar: 4 faces for 6"):
        parse_pd(NON_PLANAR)
    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(300):
        pd = gauss_pd(random_gauss_knot(rng.randrange(1, 8), rng))
        try:
            p = parse_pd(format_pd(pd))
        except ParseError:
            rejected += 1
            continue
        accepted += 1
        assert alexander_poly(p) == alexander_by_skein(p)
    assert accepted > 50 and rejected > 50


def test_torus_knots_up_to_41_crossings():
    for n in range(3, 42, 2):
        assert alexander_poly(gauss_pd(torus_knot(n))) == _torus_delta(n)
