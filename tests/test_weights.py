import random
from fractions import Fraction

import pytest

from knotweights import cli, quotient
from knotweights.bridge import verify_main, wbcr
from knotweights.conway import (count_circles, wc_diagram, wc_eval,
                                wc_prime_diagram, wc_prime_eval)
from knotweights.enumerate import enumerate_jacobi
from knotweights.errors import DegreeOutOfRange
from knotweights.jacobi import (canonicalize, chord_diagram, class_of,
                                empty_diagram, flipped, make_diagram,
                                product, representative, single_chord,
                                stu_expand, stu_sites, theta_graph, wheel)
from knotweights.serialize import to_json
from knotweights.vectors import vector_of

from helpers import refuse_search, shuffled_jacobi
from oracles import (ClassWeights, SplittingByProducts, relators_everywhere,
                     wc_prime_resolved, wc_resolved)


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
    split = SplittingByProducts(k)
    for rep in enumerate_jacobi(k):
        v = vector_of(rep)
        assert wc_prime_eval(v) == wc_eval(split.project_connected(v))


def test_wc_prime_matches_projection_oracle():
    for k in range(4):
        _assert_cumulant_matches_projection(k)


@pytest.mark.slow
def test_wc_prime_matches_projection_oracle_degree_four():
    _assert_cumulant_matches_projection(4)


def test_verify_main_never_reaches_the_quotient(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the quotient was built")

    for name in ("quotient_basis", "splitting", "dims_table", "project_pc"):
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


# -- the per-component expansion against STU on whole diagrams -------------

def _assert_kernel_matches_the_oracle(diagrams, k_max=4):
    for d in diagrams:
        assert wc_diagram(d) == wc_resolved(d)
        assert wc_prime_diagram(d, k_max) == wc_prime_resolved(d, k_max)


def _wc_prime_nonzero_at_degree_four():
    # chosen by wbcr, which Prop 3.2 equates with -wc', not by either side
    return [rep for rep in enumerate_jacobi(4) if wbcr(rep)]


def test_kernel_matches_the_oracle_on_every_class_through_degree_three():
    for k in range(4):
        _assert_kernel_matches_the_oracle(enumerate_jacobi(k))


def test_kernel_matches_the_oracle_where_wc_prime_is_nonzero():
    reps = _wc_prime_nonzero_at_degree_four()
    assert len(reps) == 29
    _assert_kernel_matches_the_oracle(reps)
    assert all(wc_prime_diagram(rep) == -wbcr(rep) for rep in reps)


def test_exact_zeros_match_the_oracle_at_degree_four():
    reps = enumerate_jacobi(4)
    products = [rep for rep in reps if rep.product_split()]
    trivalent = [rep for rep in reps if rep.has_trivalent_component()]
    assert (len(products), len(trivalent)) == (117, 108)
    _assert_kernel_matches_the_oracle(products + trivalent)
    assert not any(wc_prime_diagram(rep) for rep in products + trivalent)
    assert any(wc_diagram(rep) for rep in products)


@pytest.mark.slow
@pytest.mark.parametrize("k, n_classes", [(4, 545), (5, 7115)])
def test_kernel_matches_the_oracle_on_every_class(k, n_classes):
    reps = [rep for rep in enumerate_jacobi(k, k_max=k)
            if canonicalize(rep)[1]]
    assert len(reps) == n_classes
    _assert_kernel_matches_the_oracle(reps, k_max=k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_values_follow_the_orientation_sign_under_relabeling(k):
    rng = random.Random(20 + k)
    reps = enumerate_jacobi(k) if k < 4 else _wc_prime_nonzero_at_degree_four()
    signs = set()
    for rep in reps:
        copies = []
        for _ in range(2):
            d = shuffled_jacobi(rep, rng)
            copies += [d] + [flipped(d, v) for v in d.trivalent[:1]]
        for d in copies:
            key, sign = class_of(d)
            drawn = representative(key)
            assert wc_diagram(d) == sign * wc_diagram(drawn)
            assert wc_prime_diagram(d) == sign * wc_prime_diagram(drawn)
            if wc_diagram(drawn):
                signs.add(sign)
    assert k % 2 or signs == {1, -1}


# hand-made diagrams with parallel edges: wheel_2 in other labels, two
# interleaved wheel_2's, and a connected one whose double edge joins two
# trivalent vertices that carry two legs each
PARALLEL = [
    make_diagram(4, [3, 0], [(2, 1), (1, 2), (1, 3), (2, 0)]),
    make_diagram(8, range(4), [(4, 5), (4, 5), (4, 0), (5, 2), (6, 7),
                               (6, 7), (6, 1), (7, 3)]),
    make_diagram(8, range(4), [(4, 5), (4, 5), (4, 6), (5, 7), (6, 0),
                               (6, 2), (7, 1), (7, 3)]),
]


def _weight(tmp_path, capsys, system, text):
    path = tmp_path / "d.json"
    path.write_text(text)
    status = cli.main(["weight", "--system", system, "--diagram", str(path)])
    return status, capsys.readouterr()


def test_cli_weights_on_parallel_edges_match_the_oracle(tmp_path, capsys):
    got = []
    for d in PARALLEL:
        for system, oracle in (("wc", wc_resolved),
                               ("wcp", wc_prime_resolved)):
            status, out = _weight(tmp_path, capsys, system, to_json(d))
            assert status == 0 and out.out.strip() == str(oracle(d))
            got.append((system, oracle(d)))
    assert ("wc", 4) in got and ("wcp", 2) in got


def test_cli_weights_reject_a_trivalent_self_loop(tmp_path, capsys):
    # vertex 1 carries a loop and a leg to vertex 0
    text = ('{"kind":"jacobi","vertices":[{"id":0,"class":"univalent"},'
            '{"id":1,"class":"trivalent","orient":[0,1,2]}],'
            '"edges":[{"id":0,"from":1,"to":1,"class":"plain"},'
            '{"id":1,"from":1,"to":0,"class":"plain"}],'
            '"univalent_order":[0]}')
    for system in ("wc", "wcp"):
        status, out = _weight(tmp_path, capsys, system, text)
        assert status == 2 and out.out == ""
        assert "joins a vertex to itself" in out.err
