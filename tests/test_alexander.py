import random
from fractions import Fraction
from pathlib import Path

import pytest

from knotweights.alexander import (_alexander_matrix, _det, _div_exact,
                                   _nabla, _reidemeister_move, _Tangle,
                                   alexander_by_skein, alexander_poly,
                                   conway_skein, nabla_to_alexander,
                                   symmetric_normalize)
from knotweights.errors import (ArcCountError, DegenerateDiagram,
                                DiagramError, MultiComponentError,
                                NonUnitConstantTerm, NotPlanar, ParseError)
from knotweights.pd import Crossing, PDCode, format_pd, parse_pd
from knotweights.series import (LaurentPolynomial, PowerSeries,
                                conway_series, exp_substitute, zbcr_series)

from helpers import (connected_sum, gauss_crossings, gauss_pd, gauss_text,
                     random_gauss_knot, torus_knot, twist_knot)
from oracles import (_list_nabla, _ListTangle, conway_skein_lists,
                     exp_substitute_per_term, laplace_det, power_loop_exp,
                     power_loop_log)

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS = ["unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1"]

# the orders K at which the series are checked
ORDERS = (0, 1, 2, 8, 16)

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


def test_nabla_to_alexander_substitutes_z_squared():
    assert nabla_to_alexander({}) == LaurentPolynomial()
    assert nabla_to_alexander({0: 1, 2: 1}) == \
        LaurentPolynomial({1: 1, 0: -1, -1: 1})
    # (t - 2 + 1/t)^2 - 3 (t - 2 + 1/t)
    assert nabla_to_alexander({4: 1, 2: -3}) == \
        LaurentPolynomial({2: 1, 1: -7, 0: 12, -1: -7, -2: 1})
    with pytest.raises(DegenerateDiagram, match="odd z power"):
        nabla_to_alexander({0: 1, 3: 1})


def test_symmetry_and_normalization():
    for name in CORPUS:
        coeffs = alexander_poly(load(name)).coeffs
        assert coeffs == {-e: c for e, c in coeffs.items()}
        assert sum(coeffs.values()) == 1


def test_mirror_invariance():
    for name in CORPUS:
        pd = load(name)
        assert alexander_poly(pd.mirror()) == alexander_poly(pd)


def test_exp_substitute_basics():
    one = LaurentPolynomial.one()
    assert exp_substitute(one, 5) == PowerSeries(5, [1])
    t = LaurentPolynomial({1: 1})
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
    for coeffs in ({}, {0: 2}, {0: -1}, {1: 1, 0: -2, -1: 1},
                   {1: Fraction(1, 3), 0: Fraction(1, 2), -1: Fraction(1, 3)},
                   {1: Fraction(62, 135), 0: Fraction(11, 135)}):
        for K in ORDERS:
            with pytest.raises(NonUnitConstantTerm):
                zbcr_series(LaurentPolynomial(coeffs), K)


def test_power_series_log_exp_roundtrip():
    s = PowerSeries(6, [1, 0, 1, 0, Fraction(1, 12)])
    assert PowerSeries(6, power_loop_log(s.coeffs)).exp() == s
    with pytest.raises(NonUnitConstantTerm):
        PowerSeries(3, [1, 1]).exp()


def _check_log_and_exp(p, K):
    """p(e^h) to order K against the term-by-term oracle, `zbcr_series`
    against minus its log by the power loop, and exp of that log against
    the power loop and p(e^h), all equal as Fractions; p is symmetric, so
    odd z_k are exactly 0."""
    s = exp_substitute(p, K)
    assert s == exp_substitute_per_term(p, K)
    ell = PowerSeries(K, power_loop_log(s.coeffs))
    e = ell.exp()
    assert e == s
    assert e.coeffs == power_loop_exp(ell.coeffs)
    z = zbcr_series(p, K)
    assert z == {k: -ell[k] for k in range(2, K + 1)}
    assert all(z[k] == 0 for k in range(3, K + 1, 2))


def test_the_corpus_is_every_fixture():
    assert sorted(CORPUS) == sorted(f.stem for f in FIXTURES.glob("*.pd"))


@pytest.mark.parametrize("name", CORPUS)
def test_log_and_exp_match_the_power_loops_on_the_fixtures(name):
    p = alexander_poly(load(name))
    for K in ORDERS:
        _check_log_and_exp(p, K)


def _helper_families():
    """T(2,n), twist knots and connected sums from `helpers`, to 13
    crossings."""
    out = [(f"T(2,{n})", torus_knot(n)) for n in range(3, 14, 2)]
    out += [(f"Tw({m})", twist_knot(m)) for m in range(1, 10)]
    out += [("T(2,3)#Tw(2)", connected_sum(torus_knot(3), twist_knot(2))),
            ("Tw(1)#Tw(4)", connected_sum(twist_knot(1), twist_knot(4))),
            ("T(2,5)#T(2,7)", connected_sum(torus_knot(5), torus_knot(7)))]
    return out


HELPER_FAMILIES = _helper_families()


@pytest.mark.parametrize("knot", [k for _, k in HELPER_FAMILIES],
                         ids=[name for name, _ in HELPER_FAMILIES])
def test_log_and_exp_match_the_power_loops_on_the_families(knot):
    p = alexander_poly(gauss_pd(knot))
    for K in ORDERS + (4, 9):
        _check_log_and_exp(p, K)


def test_log_and_exp_match_the_power_loops_on_random_polynomials():
    # symmetric polynomials with p(1) = 1, which need not be the Alexander
    # polynomial of any diagram drawn here: 200 with integer coefficients
    # at random K, then 200 with rational ones at each of ORDERS in turn
    rng = random.Random(36)
    for i in range(400):
        if i < 200:
            half = {j: rng.randint(-6, 6) for j in range(1, rng.randint(1, 7))}
        else:
            half = {j: Fraction(rng.randint(-6, 6),
                                rng.choice((1, 2, 3, 7, 135)))
                    for j in range(1, rng.randint(1, 7))}
        coeffs = {0: 1 - 2 * sum(half.values())}
        for j, c in half.items():
            coeffs[j] = coeffs[-j] = c
        K = rng.randint(0, 16) if i < 200 else ORDERS[i % len(ORDERS)]
        _check_log_and_exp(LaurentPolynomial(coeffs), K)


def test_exp_matches_the_power_loop_on_series_with_odd_terms():
    rng = random.Random(37)
    for _ in range(40):
        K = rng.randint(0, 12)
        a = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(K)]
        e = PowerSeries(K, a).exp()
        assert e.coeffs == power_loop_exp(a)
        assert power_loop_log(e.coeffs) == a


def test_rational_seifert_polynomial_keeps_its_denominators():
    # Delta of the rational Seifert matrix V = [[1/3, 1/2], [-1/4, 2/5]],
    # det(t V - V^T) / det(V - V^T) centred
    p = LaurentPolynomial({1: Fraction(62, 135), 0: Fraction(11, 135),
                           -1: Fraction(62, 135)})
    for K in ORDERS:
        _check_log_and_exp(p, K)
    assert zbcr_series(p, 2) == {2: Fraction(-62, 135)}
    assert exp_substitute(p, 2) == PowerSeries(2, [1, 0, Fraction(62, 135)])


# -- the Bareiss determinant and the skein recursion against their oracles ----

# the entries of a Wirtinger row, as coefficient lists: 0, +-1, +-t and
# +-(1 - t)
ENTRIES = [[], [], [1], [-1], [0, 1], [0, -1], [1, -1], [-1, 1]]


def _knot_matrix(pd):
    rows, gens = _alexander_matrix(pd)
    return [row[:len(gens) - 1] for row in rows[:-1]]


def test_bareiss_matches_laplace_on_random_matrices():
    rng = random.Random(20261018)
    singular = swapped = 0
    for _ in range(200):
        n = rng.randrange(8)
        rows = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
        want = laplace_det(rows)
        assert _det(rows) == want
        singular += not want
        # a zero corner of a nonsingular matrix makes the first step swap
        swapped += bool(want) and n > 0 and not rows[0][0]
    # the draw reaches the zero-column exit and the row swaps
    assert singular >= 10 and swapped >= 10
    assert _det([]) == laplace_det([]) == [1]


def test_bareiss_matches_laplace_on_the_fixtures():
    for path in sorted(FIXTURES.glob("*.pd")):
        pd = parse_pd(path.read_text())
        if len(pd):
            rows = _knot_matrix(pd)
            assert _det(rows) == laplace_det(rows), path.name


def test_bareiss_division_must_be_exact():
    assert _div_exact([-1, 0, 1], [-1, 1]) == [1, 1]    # (t^2 - 1)/(t - 1)
    assert _div_exact([0, 0, 6], [0, 3]) == [0, 2]
    for num, den in (([1, 0, 1], [-1, 1]), ([3], [2]), ([1, 1], [0, 1]),
                     ([1], [1, 1])):
        with pytest.raises(ArithmeticError, match="not an exact division"):
            _div_exact(num, den)


def test_singular_matrix_is_a_vanishing_determinant():
    rows = [[[1, -1], [0, 1]], [[1, -1], [0, 1]]]
    assert _det(rows) == laplace_det(rows) == []
    with pytest.raises(DegenerateDiagram, match="vanishing determinant"):
        symmetric_normalize(_det(rows))


def test_symmetric_normalize():
    # low zeros are a unit t^i, and a sum of -1 is the unit -1
    assert symmetric_normalize([1, -1, 1]) == [1, -1, 1]
    assert symmetric_normalize([0, 0, -1, 1, -1]) == [1, -1, 1]
    assert symmetric_normalize([0, 1, -3, 1]) == [-1, 3, -1]
    assert symmetric_normalize([-1]) == [1]
    for coeffs, message in (([], "vanishing determinant"),
                            ([0, 1, -2], "odd exponent span"),
                            ([2, -3, 1], "not symmetric up to units"),
                            ([1, 1, 1], "value 3 at t=1; expected a unit"),
                            ([1, -4, 1], "value -2 at t=1")):
        with pytest.raises(DegenerateDiagram, match=message):
            symmetric_normalize(coeffs)


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
    """The unreduced recursion steps in lock step with the list recursion,
    and the reduced recursion's value equals the list recursion's."""
    for p in (pd, pd.mirror()):
        assert conway_skein(p) == conway_skein_lists(p)
        if len(p):
            _same_recursion(_Tangle.from_pd(p), _ListTangle.from_pd(p))


def _mirrored(crossings):
    """The crossings of `PDCode.mirror`, for codes no `PDCode` holds."""
    return [x._replace(over_a=x.over_b, over_b=x.over_a, sign=-x.sign)
            for x in crossings]


@pytest.mark.parametrize("name, knot, delta", SMALL_KNOTS,
                         ids=[name for name, _, _ in SMALL_KNOTS])
def test_skein_matches_the_list_recursion(name, knot, delta):
    _check_skein_against_lists(gauss_pd(knot))


def test_skein_matches_the_list_recursion_on_the_fixtures():
    for path in sorted(FIXTURES.glob("*.pd")):
        _check_skein_against_lists(parse_pd(path.read_text()))


def test_skein_matches_the_list_recursion_on_virtual_codes():
    # non-planar codes reach tangles where both joins of a smoothing meet
    # the same arc, so the second renames the first one's target.  No
    # `PDCode` holds such a code, so its tangles are built from its
    # crossings on the oracle side; the descending recursion is no
    # invariant there, so only the steps are compared
    rng = random.Random(7)
    planar = 0
    for _ in range(60):
        knot = random_gauss_knot(rng.randrange(1, 8), rng)
        try:
            pd = gauss_pd(knot)
        except NotPlanar:
            crossings = gauss_crossings(knot)
            for cs in (crossings, _mirrored(crossings)):
                old = _ListTangle.from_crossings(cs)
                _same_recursion(_Tangle([tuple(c) for c in old.crossings]),
                                old)
            continue
        planar += 1
        _check_skein_against_lists(pd)
    assert 5 < planar < 55


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
        knot = random_gauss_knot(rng.randrange(1, 8), rng)
        try:
            p = parse_pd(gauss_text(knot))
        except ParseError:
            rejected += 1
            with pytest.raises(NotPlanar):
                gauss_pd(knot)
            continue
        accepted += 1
        assert p.crossings == gauss_pd(knot).crossings
        assert alexander_poly(p) == alexander_by_skein(p)
        assert conway_skein(p) == conway_skein_lists(p)
    assert accepted > 50 and rejected > 50


def test_no_virtual_code_reaches_the_skein():
    # the skein moves keep the link type only on planar codes, so a code
    # built directly must not reach them when it is virtual
    crossings = [Crossing(12, 5, 1, 4, -1), Crossing(7, 7, 8, 6, -1),
                 Crossing(1, 11, 2, 12, 1), Crossing(2, 8, 3, 9, 1),
                 Crossing(10, 10, 11, 9, -1), Crossing(3, 6, 4, 5, -1)]
    with pytest.raises(DiagramError, match="not planar: 4 faces for 6"):
        alexander_by_skein(PDCode(crossings))


def test_torus_knots_up_to_41_crossings():
    for n in range(3, 42, 2):
        assert alexander_poly(gauss_pd(torus_knot(n))) == _torus_delta(n)


@pytest.mark.parametrize("n", [*range(15, 32, 2)] + [
    pytest.param(n, marks=pytest.mark.slow) for n in range(33, 42, 2)])
def test_skein_matches_the_determinant_on_torus_knots(n):
    pd = gauss_pd(torus_knot(n))
    for p in (pd, pd.mirror()):
        assert alexander_by_skein(p) == alexander_poly(p) == _torus_delta(n)


@pytest.mark.parametrize("a, b, delta", [
    (torus_knot(13), twist_knot(11), _torus_delta(13) * _twist_delta(11)),
    (torus_knot(17), torus_knot(19), _torus_delta(17) * _torus_delta(19)),
], ids=["T(2,13)#Tw(11)", "T(2,17)#T(2,19)"])
def test_skein_matches_the_determinant_on_large_sums(a, b, delta):
    pd = gauss_pd(connected_sum(a, b))
    assert len(pd) in (26, 36)
    for p in (pd, pd.mirror()):
        assert alexander_by_skein(p) == alexander_poly(p) == delta


def test_skein_recursion_is_polynomial_on_torus_knots(monkeypatch):
    # the unreduced recursion walks a Fibonacci number of tangles on
    # T(2,n), about 1.3 million at n = 31; a bigon after each switch keeps
    # the reduced one near n^2 / 4
    walks = []
    walk = _Tangle.walk
    monkeypatch.setattr(_Tangle, "walk", lambda t: walks.append(1) or walk(t))
    conway_skein(gauss_pd(torus_knot(31)))
    assert len(walks) <= 31 * 31


# -- the Reidemeister moves of the skein recursion ----------------------------
#
# A knot below is a Gauss code (visits, signs) as in `helpers`; each one is
# checked to be planar before its moves are checked.

TREFOIL = torus_knot(3)[0]


def _shifted(visits, by):
    return [(c + by, over) for c, over in visits]


def _planar_pd(visits, signs):
    pd = gauss_pd((visits, signs))  # a virtual code raises NotPlanar
    assert parse_pd(format_pd(pd)).crossings == pd.crossings
    return pd


def _reduces_to(pd, move_size, n_left, nabla):
    """The first move drops `move_size` crossings, the reduced root keeps
    `n_left`, and both skein recursions give `nabla`, on the code and on
    its mirror image."""
    for p in (pd, pd.mirror()):
        tangle = _Tangle.from_pd(p)
        drop, _joins = _reidemeister_move(tangle.crossings)
        assert len(drop) == move_size
        assert len(tangle.reduced().crossings) == n_left
        assert conway_skein(p) == conway_skein_lists(p) == nabla


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("visits, is_kink", [
    ([(3, False), (3, True)] + TREFOIL, lambda ui, uo, oi, oo: uo == oi),
    ([(3, True), (3, False)] + TREFOIL, lambda ui, uo, oi, oo: oo == ui),
], ids=["under-into-over", "over-into-under"])
def test_reidemeister_one_drops_a_kink(visits, is_kink, sign):
    pd = _planar_pd(visits, {0: 1, 1: 1, 2: 1, 3: sign})
    kink = [c for c in _Tangle.from_pd(pd).crossings if is_kink(*c[:4])]
    assert len(kink) == 1
    _reduces_to(pd, 1, 3, {0: 1, 2: 1})


@pytest.mark.parametrize("sign", [1, -1])
def test_isolated_curl_becomes_a_free_circle(sign):
    pd = _planar_pd([(0, False), (0, True)], {0: sign})
    ((ui, uo, oi, oo, _s),) = _Tangle.from_pd(pd).crossings
    assert uo == oi and oo == ui
    reduced = _Tangle.from_pd(pd).reduced()
    assert not reduced.crossings and reduced.free_circles == 1
    _reduces_to(pd, 1, 0, {0: 1})
    # one generator: the determinant of the empty matrix
    assert alexander_poly(pd) == alexander_poly(pd.mirror()) == \
        LaurentPolynomial.one()
    # beside a trefoil, the curl leaves a split link
    rows = _Tangle.from_pd(load("3_1")).crossings + [(21, 22, 22, 21, sign)]
    reduced = _Tangle(rows).reduced()
    assert len(reduced.crossings) == 3 and reduced.free_circles == 1
    assert _nabla(_Tangle(rows), {}) == _list_nabla(_ListTangle(rows)) == {}


def test_reidemeister_two_drops_a_parallel_bigon():
    # the closed two-braid s^4 s^-1: a trefoil, and the last two crossings
    # bound a bigon whose strands both run from crossing 3 to crossing 4
    visits = [(0, True), (1, False), (2, True), (3, False), (4, False),
              (0, False), (1, True), (2, False), (3, True), (4, True)]
    pd = _planar_pd(visits, {0: 1, 1: 1, 2: 1, 3: 1, 4: -1})
    for p in (pd, pd.mirror()):
        tangle = _Tangle.from_pd(p)
        (i, j), _joins = _reidemeister_move(tangle.crossings)
        assert tangle.crossings[i][1] == tangle.crossings[j][0]
    _reduces_to(pd, 2, 3, {0: 1, 2: 1})
    # two circles, one passing over the other twice: a split link
    rows = [(2, 3, 1, 6, -1), (3, 2, 6, 1, 1)]
    reduced = _Tangle(rows).reduced()
    assert not reduced.crossings and reduced.free_circles == 2
    assert _nabla(_Tangle(rows), {}) == _list_nabla(_ListTangle(rows)) == {}


def _two_trefoils_through_a_bigon(s0, s1):
    """Two trefoil arcs, joined where one strand passes over crossings 0
    and 1 and the other passes back under 1 and 0."""
    visits = ([(0, True), (1, True)] + _shifted(TREFOIL, 2)
              + [(1, False), (0, False)] + _shifted(TREFOIL, 5))
    signs = {c: 1 for c in range(8)}
    signs.update({0: s0, 1: s1})
    return _planar_pd(visits, signs)


@pytest.mark.parametrize("s0", [1, -1])
def test_reidemeister_two_drops_an_antiparallel_bigon(s0):
    pd = _two_trefoils_through_a_bigon(s0, -s0)
    for p in (pd, pd.mirror()):
        tangle = _Tangle.from_pd(p)
        (i, j), _joins = _reidemeister_move(tangle.crossings)
        assert tangle.crossings[j][1] == tangle.crossings[i][0]
    _reduces_to(pd, 2, 6, {0: 1, 2: 2, 4: 1})


@pytest.mark.parametrize("s0", [1, -1])
def test_equal_signs_bound_no_bigon(s0):
    # with equal signs the two arcs close a loop round one trefoil arc
    pd = _two_trefoils_through_a_bigon(s0, s0)
    for p in (pd, pd.mirror()):
        assert _reidemeister_move(_Tangle.from_pd(p).crossings) is None
        assert conway_skein(p) == conway_skein_lists(p)


def _closed_three_braid(word):
    """The closure of a braid on three strands, word a list of generators
    (i, e) = sigma_(i+1)^e: the strand coming from the left passes over at
    e = 1 and under at e = -1, and the crossing's sign is e."""
    visits, p = [], 0
    while True:
        for c, (i, e) in enumerate(word):
            if p in (i, i + 1):
                visits.append((c, (p == i) == (e > 0)))
                p = 2 * i + 1 - p
        if p == 0:
            return visits, {c: e for c, (_i, e) in enumerate(word)}


def _descending(knot):
    """The knot's diagram switched so that each crossing is passed over at
    its first visit; a switched crossing changes sign."""
    visits, signs = knot
    signs = dict(signs)
    seen = set()
    out = []
    for c, over in visits:
        first = c not in seen
        seen.add(c)
        if first and not over:
            signs[c] = -signs[c]
        out.append((c, first))
    return out, signs


def test_descending_diagram_is_the_unknot_by_the_base_case(monkeypatch):
    # (sigma_1 sigma_2^-1)^4 closes to 8_18, alternating with no monogon or
    # bigon face, so no Reidemeister move applies; made descending it is
    # an unknot that the walk finds no underpass in
    knot = _closed_three_braid([(0, 1), (1, -1)] * 4)
    assert alexander_poly(gauss_pd(knot)) == LaurentPolynomial(
        {3: -1, 2: 5, 1: -10, 0: 13, -1: -10, -2: 5, -3: -1})
    pd = _planar_pd(*_descending(knot))
    assert _reidemeister_move(_Tangle.from_pd(pd).crossings) is None
    walks = []
    walk = _Tangle.walk

    def recorded(tangle):
        walks.append((len(tangle.crossings), walk(tangle)))
        return walks[-1][1]

    monkeypatch.setattr(_Tangle, "walk", recorded)
    assert alexander_by_skein(pd) == alexander_poly(pd) == \
        LaurentPolynomial.one()
    assert (8, (None, 1)) in walks
    assert conway_skein_lists(pd) == {0: 1}


def test_split_tangle_is_zero_without_a_walk(monkeypatch):
    rows = _Tangle.from_pd(load("3_1")).crossings
    assert _list_nabla(_ListTangle(rows, 1)) == {}

    def refuse(tangle):
        raise AssertionError("a split tangle was walked")

    monkeypatch.setattr(_Tangle, "walk", refuse)
    assert _nabla(_Tangle(rows, 1), {}) == {}
