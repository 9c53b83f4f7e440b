import pytest

from knotweights.conway import wc_eval
from knotweights.enumerate import enumerate_jacobi
from knotweights.jacobi import (JacobiDiagram, canonicalize, empty_diagram,
                                product, single_chord, theta_graph,
                                validate_jacobi, wheel)
from knotweights.psi import default_edge_selection, splice, verify_wc_psi
from knotweights.vectors import vector_of

from helpers import refuse_search


REVERSED_CHORD = JacobiDiagram(2, (0, 1), [(1, 0)], {})


def chord_spliced(d):
    """d with a bare chord spliced into every edge of its default
    selection, the substitution `verify wcpsi` makes."""
    return splice(d, dict.fromkeys(default_edge_selection(d), single_chord()))


def test_chord_series_acts_as_identity():
    for d in [single_chord(), REVERSED_CHORD, wheel(2), theta_graph(),
              product(single_chord(), wheel(2))]:
        assert vector_of(chord_spliced(d)) == vector_of(d)


def test_splicing_a_chord_either_way_restores_the_edge():
    for chord in (single_chord(), REVERSED_CHORD):
        for d in enumerate_jacobi(2) + enumerate_jacobi(3):
            for e in range(len(d.edges)):
                spliced = validate_jacobi(splice(d, {e: chord}))
                assert vector_of(spliced) == vector_of(d)


def test_empty_diagram_fixed():
    assert vector_of(chord_spliced(empty_diagram())) == vector_of(
        empty_diagram())


def test_default_selection_sizes():
    d = product(single_chord(), wheel(2))
    X = default_edge_selection(d)
    assert len(X) == 3  # one edge in the chord, two in the wheel


def test_splice_inserts_wheel():
    d = single_chord()
    spliced = splice(d, {0: wheel(2)})
    assert spliced.degree == 2
    key, sign, _ = canonicalize(spliced)
    assert sign != 0
    assert key == canonicalize(wheel(2))[0]


def test_verify_wc_psi_low_degrees():
    for k in (0, 1, 2, 3):
        rows = verify_wc_psi(k)
        assert rows and all(r["equal"] for r in rows)


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_verify_wc_psi_rows_match_the_class_vectors(k):
    # the rows evaluate wc on the diagrams themselves; wc of their class
    # vectors is the oracle
    reps = enumerate_jacobi(k, k_max=k)
    rows = verify_wc_psi(k, k_max=k)
    assert len(rows) == len(reps)
    for rep, row in zip(reps, rows):
        want = wc_eval(vector_of(rep), k_max=k)
        assert row["lhs"] == row["rhs"] == want
        assert wc_eval(vector_of(chord_spliced(rep)), k_max=k) == want
    assert k % 2 or any(row["lhs"] for row in rows)


def test_verify_wc_psi_canonicalizes_nothing_past_the_enumeration(
        monkeypatch):
    enumerate_jacobi(3)
    refuse_search(monkeypatch)
    rows = verify_wc_psi(3)
    assert len(rows) == 67
    assert all(r["equal"] for r in rows)


def test_product_targets_factor():
    # both sides agree on products, in accordance with multiplicativity
    for a in enumerate_jacobi(1):
        for b in enumerate_jacobi(1):
            d = product(a, b)
            assert wc_eval(vector_of(chord_spliced(d))) == wc_eval(
                vector_of(d))
