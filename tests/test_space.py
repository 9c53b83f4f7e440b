import random
from fractions import Fraction
from functools import cache

import pytest

from knotweights.bridge import _wbcr_table
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.errors import DegreeOutOfRange, NonzeroConstantTerm
from knotweights.jacobi import (class_of, empty_diagram, flipped, product,
                                single_chord, stu_sites, wheel)
from knotweights import quotient
from knotweights.quotient import (dims_table, project_pc, quotient_basis,
                                  splitting)
from knotweights.relations import generate_relations
from knotweights.vectors import (DiagramVector, GradedSeries, algebra_product,
                                 graded_exp, unit_series, vector_of)

from oracles import (SplittingByProducts, dense_rank_oracle,
                     relators_at_sites, relators_everywhere)


def test_as_sign_identity():
    w = wheel(2)
    v = w.trivalent[0]
    assert vector_of(flipped(w, v)) == -vector_of(w)


def test_no_relations_in_degree_zero():
    assert len(generate_relations(0)) == 0


@pytest.mark.parametrize("layer", [quotient_basis, _wbcr_table, enumerate_bcr])
def test_degree_cap_holds_on_a_warm_memo(layer):
    assert layer(3) is layer(3)
    with pytest.raises(DegreeOutOfRange):
        layer(3, k_max=2)


def test_stu_site_count_matches_site_scan():
    # STU is listed on the classes that do not vanish
    rels = generate_relations(2)
    scanned = 0
    for rep in enumerate_jacobi(2):
        if not class_of(rep)[1]:
            continue
        uni = rep.univalent
        for u in rep.univalent_order:
            (e, end), = rep.incident(u)
            if rep.edges[e][1 - end] not in uni:
                scanned += 1
    assert len(rels.vectors("STU")) == scanned
    assert len(stu_sites(wheel(2))) == 2


def test_relators_reduce_to_zero():
    for k in (1, 2, 3):
        q = quotient_basis(k)
        for vec in generate_relations(k).vectors():
            assert q.reduce(vec).is_zero()


@pytest.mark.parametrize("k, stu, ihx", [
    (1, 0, 1), (2, 5, 5), (3, 77, 31),
    pytest.param(4, 1215, 214, marks=pytest.mark.slow)])
def test_relators_are_stu_everywhere_and_ihx_on_closed_components(k, stu,
                                                                   ihx):
    rels = generate_relations(k)
    assert len(rels.vectors("STU")) == stu
    assert len(rels.vectors("IHX")) == ihx
    assert len(rels) == stu + ihx


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_relators_span_the_relators_at_every_site(k):
    everywhere = relators_everywhere(k)
    listed = {frozenset(vec.terms.items()) for vec in everywhere.vectors()}
    for vec in generate_relations(k).vectors():
        assert frozenset(vec.terms.items()) in listed
    q = quotient_basis(k)
    elim = quotient._Eliminator(q._elim.column_rank)
    for vec in everywhere.vectors():
        assert q.reduce(vec).is_zero()
        elim.add_row(vec.terms)
    assert elim.pivots == q._elim.pivots


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_stu_rows_of_vanishing_classes_are_zero(k):
    checked = 0
    for rep, kind, _, vec in relators_at_sites(k):
        if kind == "STU" and not class_of(rep)[1]:
            assert vec.is_zero()
            checked += 1
    assert checked or k < 3


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_ihx_rows_on_closed_components_are_listed_up_to_sign(k):
    listed = {frozenset(vec.terms.items())
              for vec in generate_relations(k).vectors("IHX")}
    checked = 0
    for rep, kind, e, vec in relators_at_sites(k):
        if kind != "IHX":
            continue
        comp = next(c for c in rep.components() if rep.edges[e][0] in c)
        if rep.univalent.isdisjoint(comp):
            assert (frozenset(vec.terms.items()) in listed
                    or frozenset((-vec).terms.items()) in listed)
            checked += 1
    assert checked >= len(listed)


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_lead_order_and_generation_order_give_equal_pivots(k):
    q = quotient_basis(k)
    elim = quotient._Eliminator(q._elim.column_rank)
    for vec in generate_relations(k).vectors():
        if not vec.is_zero():
            elim.add_row(vec.terms)
    assert elim.pivots == q._elim.pivots
    assert q.basis == [key for key in q.class_keys
                       if key not in elim.pivots]


def test_dimensions_low_degrees():
    assert dims_table(0) == {"degree": 0, "dim_A": 1, "dim_P": 0,
                             "dim_N": 1, "dim_T": 0}
    assert dims_table(1) == {"degree": 1, "dim_A": 2, "dim_P": 1,
                             "dim_N": 0, "dim_T": 1}
    assert dims_table(2) == {"degree": 2, "dim_A": 5, "dim_P": 1,
                             "dim_N": 1, "dim_T": 3}
    assert dims_table(3) == {"degree": 3, "dim_A": 10, "dim_P": 1,
                             "dim_N": 2, "dim_T": 7}


def test_line_touching_dimensions_match_the_classical_sequence():
    # dim P + dim N per degree: the familiar 1, 1, 2, 3 (and 6 at degree
    # four, covered by the slow suite)
    got = []
    for k in range(4):
        t = dims_table(k)
        got.append(t["dim_P"] + t["dim_N"])
    assert got == [1, 1, 2, 3]


@pytest.mark.slow
def test_degree_four_dimensions():
    assert dims_table(4) == {"degree": 4, "dim_A": 22, "dim_P": 2,
                             "dim_N": 4, "dim_T": 16}


def test_rank_against_dense_elimination():
    for k in (1, 2):
        q = quotient_basis(k)
        rows = [vec.terms for vec in generate_relations(k).vectors()
                if not vec.is_zero()]
        rank = dense_rank_oracle(rows, q.class_keys)
        assert q.dim == len(q.class_keys) - rank


def _random_vector(k, rng):
    reps = enumerate_jacobi(k)
    vec = DiagramVector(k)
    for _ in range(rng.randrange(1, 5)):
        d = reps[rng.randrange(len(reps))]
        for key, c in vector_of(d, rng.randrange(-3, 4)).terms.items():
            vec.add_term(key, c)
    return vec


def _reduce(vec):
    return quotient_basis(vec.degree).reduce(vec)


def test_reduce_is_idempotent():
    rng = random.Random(2024)
    for k in (1, 2, 3):
        q = quotient_basis(k)
        for _ in range(1000):
            v = _random_vector(k, rng)
            once = q.reduce(v)
            assert q.reduce(once) == once


# p^c, the projection onto P along N + T, is checked on the oracle, which
# spans N by products; `quotient.project_pc` is compared with it below.

@cache
def _project(k):
    return SplittingByProducts(k).project_connected


def test_project_keeps_connected_classes():
    v = vector_of(wheel(2))
    assert _project(2)(v) == v


def test_project_kills_products_and_trivalent():
    prod = vector_of(product(single_chord(), single_chord()))
    assert _project(2)(prod).is_zero()
    emp = vector_of(empty_diagram())
    assert _project(0)(emp).is_zero()
    for k in (1, 2, 3):
        for rep in enumerate_jacobi(k):
            vec = vector_of(rep)
            if vec.is_zero():
                continue
            if rep.has_trivalent_component():
                assert _project(k)(vec).is_zero()
            split = rep.product_split()
            if split:
                assert _project(k)(vec).is_zero()


def test_project_is_idempotent():
    rng = random.Random(5)
    for k in (1, 2, 3):
        for _ in range(25):
            v = _random_vector(k, rng)
            once = _project(k)(v)
            assert _project(k)(once) == once


def test_splitting_dimensions_are_consistent():
    for k in (0, 1, 2, 3):
        t = dims_table(k)
        assert t["dim_A"] == quotient_basis(k).dim == (
            t["dim_P"] + t["dim_N"] + t["dim_T"])


def test_dims_table_checks_the_cap():
    dims_table(3)
    with pytest.raises(DegreeOutOfRange):
        dims_table(3, k_max=2)


@pytest.mark.parametrize("k", [0, 1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_splitting_matches_the_product_loop(k):
    old = SplittingByProducts(k)
    t = dims_table(k)
    assert (t["dim_A"], t["dim_P"], t["dim_N"], t["dim_T"]) == old.dims
    for rep in enumerate_jacobi(k):
        vec = vector_of(rep)
        if not vec.is_zero():
            assert project_pc(vec) == old.project_connected(vec)


def test_splitting_enumerates_only_its_own_degree(monkeypatch):
    asked = []
    inner = quotient.enumerate_jacobi

    def recording(k, *args, **kwargs):
        asked.append(k)
        return inner(k, *args, **kwargs)

    monkeypatch.setattr(quotient, "enumerate_jacobi", recording)
    splitting.cache_clear()
    quotient_basis.cache_clear()
    dims_table(3)
    assert asked and set(asked) == {3}


def test_direct_sum_check_rejects_a_wrong_classification(monkeypatch):
    summands = quotient._summands
    for drop in range(3):
        monkeypatch.setattr(quotient, "_summands", lambda k, drop=drop: [
            keys if i != drop else [] for i, keys in enumerate(summands(k))])
        splitting.cache_clear()
        with pytest.raises(ArithmeticError, match="total dimension"):
            dims_table(2)

    def p_also_in_t(k):
        p_keys, n_keys, t_keys = summands(k)
        return p_keys, n_keys, t_keys + p_keys

    monkeypatch.setattr(quotient, "_summands", p_also_in_t)
    splitting.cache_clear()
    with pytest.raises(ArithmeticError, match="not a direct sum"):
        dims_table(2)


def test_product_commutes_in_the_quotient():
    for k1, k2 in [(1, 1), (1, 2)]:
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                u, v = vector_of(a), vector_of(b)
                lhs = _reduce(algebra_product(u, v))
                rhs = _reduce(algebra_product(v, u))
                assert lhs == rhs


@pytest.mark.slow
def test_product_commutes_in_the_quotient_degree_four():
    for a in enumerate_jacobi(2):
        for b in enumerate_jacobi(2):
            u, v = vector_of(a), vector_of(b)
            assert _reduce(algebra_product(u, v)) == \
                _reduce(algebra_product(v, u))


@pytest.mark.slow
def test_project_kills_products_and_trivalent_degree_four():
    for rep in enumerate_jacobi(4):
        vec = vector_of(rep)
        if vec.is_zero():
            continue
        if rep.has_trivalent_component() or rep.product_split():
            assert _project(4)(vec).is_zero()


def test_algebra_product_unit():
    one = vector_of(empty_diagram())
    v = vector_of(wheel(2))
    assert algebra_product(v, one) == v


def test_graded_exp_basics():
    K = 3
    zero = GradedSeries(K)
    assert graded_exp(zero) == unit_series(K)
    s = GradedSeries(K, {1: vector_of(single_chord())})
    e = graded_exp(s)
    assert e.part(0) == vector_of(empty_diagram())
    assert e.part(1) == s.part(1)
    sq = algebra_product(s.part(1), s.part(1))
    assert e.part(2) == sq.scale(Fraction(1, 2))


def test_graded_exp_rejects_constant_term():
    K = 2
    s = GradedSeries(K, {0: vector_of(empty_diagram())})
    with pytest.raises(NonzeroConstantTerm):
        graded_exp(s)


def test_graded_exp_is_multiplicative():
    K = 3
    rng = random.Random(99)
    for _ in range(3):
        s = GradedSeries(K, {k: _random_vector(k, rng) for k in (1, 2)})
        t = GradedSeries(K, {k: _random_vector(k, rng) for k in (1, 3)})
        lhs = graded_exp(s + t)
        rhs = graded_exp(s) * graded_exp(t)
        for k in range(K + 1):
            assert _reduce(lhs.part(k)) == _reduce(rhs.part(k))
