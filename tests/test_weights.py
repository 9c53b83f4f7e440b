import random
from fractions import Fraction

import pytest

from knotweights import quotient
from knotweights.bridge import verify_main
from knotweights.conway import (count_circles, wc_diagram, wc_eval,
                                wc_prime_diagram, wc_prime_eval)
from knotweights.enumerate import enumerate_jacobi
from knotweights.errors import DegreeOutOfRange
from knotweights.jacobi import (canonicalize, chord_diagram, empty_diagram,
                                flipped, product, single_chord, stu_expand,
                                stu_sites, theta_graph, wheel)
from knotweights.vectors import vector_of

from helpers import refuse_search, shuffled_jacobi
from oracles import ClassWeights, relators_everywhere


def test_circle_counts():
    assert count_circles(empty_diagram()) == 0
    assert count_circles(single_chord()) == 1
    assert count_circles(chord_diagram([(1, 3), (2, 4)])) == 0
    assert count_circles(chord_diagram([(1, 2), (3, 4)])) == 2
    assert count_circles(chord_diagram([(1, 4), (2, 3)])) == 2


def test_wc_on_empty_and_degree_one():
    assert wc_diagram(empty_diagram()) == 1
    assert wc_diagram(single_chord()) == 0
    assert wc_diagram(theta_graph()) == 0


def test_wc_wheel_values():
    for k in range(2, 7):
        assert wc_diagram(wheel(k)) == -1 - (-1) ** k


def test_wc_vanishes_in_odd_degrees():
    for k in (1, 3):
        for rep in enumerate_jacobi(k):
            assert wc_eval(vector_of(rep)) == 0


def test_wc_well_defined_on_relators():
    for k in (1, 2, 3):
        for vec in relators_everywhere(k).vectors():
            assert wc_eval(vec) == 0


def test_wc_multiplicative():
    for k1, k2 in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        if k1 + k2 > 4:
            continue
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                assert wc_diagram(product(a, b)) == \
                    wc_diagram(a) * wc_diagram(b)


def test_trivalent_excess_vanishes():
    for k in (2, 3):
        for rep in enumerate_jacobi(k):
            if len(rep.trivalent) > k:
                assert wc_eval(vector_of(rep)) == 0
                assert wc_prime_eval(vector_of(rep)) == 0


def test_stu_rewriting_strictly_drops_trivalent_count():
    for k in (2, 3):
        for rep in enumerate_jacobi(k):
            for (t, u) in stu_sites(rep):
                d1, d2 = stu_expand(rep, t, u)
                assert len(d1.trivalent) == len(rep.trivalent) - 1
                assert len(d2.trivalent) == len(rep.trivalent) - 1


def test_wc_prime_characterization():
    assert wc_prime_diagram(empty_diagram()) == 0
    for rep in enumerate_jacobi(1):
        assert wc_prime_eval(vector_of(rep)) == 0
    for k in (2, 3, 4):
        assert wc_prime_diagram(wheel(k)) == -1 - (-1) ** k
    prod = product(single_chord(), single_chord())
    assert wc_prime_diagram(prod) == 0
    assert wc_diagram(prod) == 0  # sequential chords leave circles


def test_wc_prime_vanishes_on_all_products_degree_two_three():
    for k1, k2 in [(1, 1), (1, 2)]:
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                v = vector_of(product(a, b))
                if not v.is_zero():
                    assert wc_prime_eval(v) == 0


def test_values_are_exact_fractions():
    assert isinstance(wc_diagram(wheel(2)), Fraction)
    assert isinstance(wc_prime_diagram(wheel(2)), Fraction)


def _assert_cumulant_matches_projection(k):
    for rep in enumerate_jacobi(k):
        v = vector_of(rep)
        assert wc_prime_eval(v) == wc_eval(quotient.project_pc(v))


def test_wc_prime_matches_projection_oracle():
    for k in range(4):
        _assert_cumulant_matches_projection(k)


@pytest.mark.slow
def test_wc_prime_matches_projection_oracle_degree_four():
    _assert_cumulant_matches_projection(4)


def test_verify_main_never_reaches_the_quotient(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the quotient was built")

    for name in ("project_pc", "quotient_basis", "splitting"):
        monkeypatch.setattr(quotient, name, forbidden)
    rows = verify_main(3)
    assert len(rows) == 67
    assert all(r["equal"] for r in rows)


def test_wc_prime_rejects_degrees_above_the_cap():
    with pytest.raises(DegreeOutOfRange):
        wc_prime_diagram(wheel(5))
    with pytest.raises(DegreeOutOfRange):
        wc_prime_diagram(wheel(3), k_max=2)
    assert wc_prime_diagram(wheel(5), k_max=5) == -1 - (-1) ** 5


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_weights_match_the_class_keyed_oracle(k):
    rng = random.Random(k)
    oracle = ClassWeights()
    vanishing = nonzero = 0
    for rep in enumerate_jacobi(k):
        vanishes = canonicalize(rep)[1] == 0
        vanishing += vanishes
        copies = ([rep] + [shuffled_jacobi(rep, rng) for _ in range(3)]
                  + [flipped(rep, v) for v in rep.trivalent])
        for d in copies:
            wc, wcp = wc_diagram(d), wc_prime_diagram(d)
            assert (wc, wcp) == (oracle.wc(d), oracle.wc_prime(d))
            if vanishes:
                assert wc == wcp == 0
            nonzero += wc != 0
    assert k % 2 or nonzero
    assert k < 3 or vanishing


def test_weights_are_evaluated_without_canonicalizing(monkeypatch):
    rng = random.Random(3)
    shuffled = [shuffled_jacobi(rep, rng) for rep in enumerate_jacobi(3)
                if rep.trivalent and rep.is_connected()]
    diagrams = [wheel(3), wheel(4), product(wheel(2), wheel(2)),
                product(single_chord(), wheel(2))] + shuffled
    oracle = ClassWeights()
    want = [(oracle.wc(d), oracle.wc_prime(d)) for d in diagrams]
    assert any(wc for wc, _ in want) and any(wcp for _, wcp in want)
    refuse_search(monkeypatch)
    assert [(wc_diagram(d), wc_prime_diagram(d)) for d in diagrams] == want


def test_verify_main_canonicalizes_nothing_past_the_enumeration(monkeypatch):
    enumerate_jacobi(3)
    refuse_search(monkeypatch)
    rows = verify_main(3)
    assert len(rows) == 67
    assert all(r["equal"] for r in rows)
