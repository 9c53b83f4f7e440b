import random
from fractions import Fraction

import pytest

from knotweights.bridge import _wbcr_table
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.errors import DegreeOutOfRange, NonzeroConstantTerm
from knotweights.jacobi import (empty_diagram, flipped, product,
                                single_chord, stu_sites, wheel)
from knotweights.quotient import (dims_table, project_pc, quotient_basis,
                                  reduce_vector, splitting)
from knotweights.relations import generate_relations
from knotweights.vectors import (DiagramVector, GradedSeries, algebra_product,
                                 graded_exp, unit_series, vector_of)

from oracles import dense_rank_oracle


def test_as_relators_vanish_after_normalization():
    rels = generate_relations(2)
    for vec in rels.vectors("AS"):
        assert vec.is_zero()


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
    rels = generate_relations(2)
    scanned = 0
    for rep in enumerate_jacobi(2):
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


def test_reduce_is_idempotent():
    rng = random.Random(2024)
    for k in (1, 2, 3):
        q = quotient_basis(k)
        for _ in range(1000):
            v = _random_vector(k, rng)
            once = q.reduce(v)
            assert q.reduce(once) == once


def test_project_keeps_connected_classes():
    v = vector_of(wheel(2))
    assert project_pc(v) == v


def test_project_kills_products_and_trivalent():
    prod = vector_of(product(single_chord(), single_chord()))
    assert project_pc(prod).is_zero()
    emp = vector_of(empty_diagram())
    assert project_pc(emp).is_zero()
    for k in (1, 2, 3):
        for rep in enumerate_jacobi(k):
            vec = vector_of(rep)
            if vec.is_zero():
                continue
            if rep.has_trivalent_component():
                assert project_pc(vec).is_zero()
            split = rep.product_split()
            if split:
                assert project_pc(vec).is_zero()


def test_project_is_idempotent():
    rng = random.Random(5)
    for k in (1, 2, 3):
        for _ in range(25):
            v = _random_vector(k, rng)
            once = project_pc(v)
            assert project_pc(once) == once


def test_splitting_dimensions_are_consistent():
    for k in (0, 1, 2, 3):
        dim_a, dim_p, dim_n, dim_t = splitting(k).dims
        assert dim_a == dim_p + dim_n + dim_t


def test_product_commutes_in_the_quotient():
    for k1, k2 in [(1, 1), (1, 2)]:
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                u, v = vector_of(a), vector_of(b)
                lhs = reduce_vector(algebra_product(u, v))
                rhs = reduce_vector(algebra_product(v, u))
                assert lhs == rhs


@pytest.mark.slow
def test_product_commutes_in_the_quotient_degree_four():
    for a in enumerate_jacobi(2):
        for b in enumerate_jacobi(2):
            u, v = vector_of(a), vector_of(b)
            assert reduce_vector(algebra_product(u, v)) == \
                reduce_vector(algebra_product(v, u))


@pytest.mark.slow
def test_project_kills_products_and_trivalent_degree_four():
    for rep in enumerate_jacobi(4):
        vec = vector_of(rep)
        if vec.is_zero():
            continue
        if rep.has_trivalent_component() or rep.product_split():
            assert project_pc(vec).is_zero()


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
            assert reduce_vector(lhs.part(k)) == reduce_vector(rhs.part(k))
