from fractions import Fraction
from itertools import combinations

import pytest

from knotweights.conway import wc_eval
from knotweights.enumerate import enumerate_jacobi
from knotweights.errors import BadSelection
from knotweights.jacobi import (JacobiDiagram, canonicalize, empty_diagram,
                                product, single_chord, theta_graph,
                                validate_jacobi, wheel)
from knotweights.psi import (TwoLegSeries, default_edge_selection,
                             doubled_anomaly_degree_one, psi_apply, splice,
                             verify_wc_psi)
from knotweights.vectors import vector_of


REVERSED_CHORD = JacobiDiagram(2, (0, 1), [(1, 0)], {})


def test_chord_series_acts_as_identity():
    gamma = doubled_anomaly_degree_one()
    for d in [single_chord(), REVERSED_CHORD, wheel(2), theta_graph(),
              product(single_chord(), wheel(2))]:
        res = psi_apply(gamma, d, K=d.degree)
        assert not res.dropped
        assert res.vector == vector_of(d)


def test_splicing_a_chord_either_way_restores_the_edge():
    for chord in (single_chord(), REVERSED_CHORD):
        for d in enumerate_jacobi(2) + enumerate_jacobi(3):
            for e in range(len(d.edges)):
                spliced = validate_jacobi(splice(d, {e: chord}))
                assert vector_of(spliced) == vector_of(d)


def test_empty_diagram_fixed():
    gamma = doubled_anomaly_degree_one()
    res = psi_apply(gamma, empty_diagram(), K=3)
    assert res.vector == vector_of(empty_diagram())


def test_truncated_series_fixes_wheel_two():
    gamma = doubled_anomaly_degree_one()
    res = psi_apply(gamma, wheel(2), K=2)
    assert res.vector == vector_of(wheel(2))


def test_bad_selection_rejected():
    gamma = doubled_anomaly_degree_one()
    with pytest.raises(BadSelection):
        psi_apply(gamma, wheel(2), K=2, X=[0])
    with pytest.raises(BadSelection):
        TwoLegSeries({1: vector_of(theta_graph())})  # no legs at all
    with pytest.raises(BadSelection):
        TwoLegSeries({1: vector_of(wheel(2))})  # degree mismatch
    with pytest.raises(BadSelection):
        TwoLegSeries({2: vector_of(wheel(2))})  # no degree-1 part


@pytest.mark.parametrize("X", [[0, -1], [0, 0], [0, 7], [0, 1.0], [0, True]])
def test_bad_edge_indices_rejected(X):
    # negative, repeated, out-of-range and non-integer indices on a
    # one-component diagram that needs two edges
    with pytest.raises(BadSelection):
        psi_apply(doubled_anomaly_degree_one(), wheel(2), K=2, X=X)


def test_default_selection_sizes():
    d = product(single_chord(), wheel(2))
    X = default_edge_selection(d)
    assert len(X) == 3  # one edge in the chord, two in the wheel


def test_overflow_flagged_and_dropped():
    gamma = TwoLegSeries({1: vector_of(single_chord()),
                          2: vector_of(wheel(2))})
    res = psi_apply(gamma, single_chord(), K=1)
    assert res.dropped
    assert res.vector == vector_of(single_chord())


def test_degree_bookkeeping_with_higher_terms():
    gamma = TwoLegSeries({1: vector_of(single_chord()),
                          2: vector_of(wheel(2))})
    res = psi_apply(gamma, product(single_chord(), single_chord()), K=4)
    # two selected edges, each replaced by degree 1 or 2: degrees 2..4
    assert sorted(res.parts) == [2, 3, 4]
    for deg, vec in res.parts.items():
        assert vec.degree == deg


def test_splice_inserts_wheel():
    d = single_chord()
    spliced = splice(d, {0: wheel(2)})
    assert spliced.degree == 2
    key, sign, _ = canonicalize(spliced)
    assert sign != 0
    assert key == canonicalize(wheel(2))[0]


def test_wc_values_do_not_depend_on_selection():
    gamma = TwoLegSeries({1: vector_of(single_chord()),
                          2: vector_of(wheel(2))})
    for rep in enumerate_jacobi(2):
        comps = rep.components()
        base = None
        for X in _selections(rep, comps):
            res = psi_apply(gamma, rep, K=4, X=list(X))
            total = sum((wc_eval(v) for v in res.parts.values()),
                        Fraction(0))
            if base is None:
                base = total
            else:
                assert total == base


def _selections(d, comps):
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    per_comp = {}
    for i, (a, b) in enumerate(d.edges):
        per_comp.setdefault(comp_of[a], []).append(i)
    pools = []
    for ci, comp in enumerate(comps):
        need = len(comp) // 2
        pools.append(list(combinations(per_comp.get(ci, []), need)))
    def rec(i):
        if i == len(pools):
            yield ()
            return
        for head in pools[i]:
            for tail in rec(i + 1):
                yield head + tail
    return rec(0)


def test_verify_wc_psi_low_degrees():
    for k in (1, 2, 3):
        rows = verify_wc_psi(k)
        assert rows and all(r["equal"] for r in rows)


def test_product_targets_factor():
    # both sides vanish on products, in accordance with multiplicativity
    gamma = doubled_anomaly_degree_one()
    for a in enumerate_jacobi(1):
        for b in enumerate_jacobi(1):
            d = product(a, b)
            res = psi_apply(gamma, d, K=2)
            lhs = sum((wc_eval(v) for v in res.parts.values()), Fraction(0))
            assert lhs == wc_eval(vector_of(d))
