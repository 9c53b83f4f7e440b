import copy
import hashlib
import json
import random
from fractions import Fraction
from functools import cache

import pytest

from knotweights.bridge import _wbcr_table
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.errors import DegreeOutOfRange
from knotweights.jacobi import (class_of, empty_diagram, flipped,
                                ihx_terms, internal_edges, product,
                                single_chord, stu_expand, stu_sites, wheel)
from knotweights import quotient
from knotweights.quotient import (dims_table, project_pc, quotient_basis,
                                  splitting)
from knotweights import relations
from knotweights.relations import generate_relations
from knotweights.vectors import DiagramVector, vector_of

from helpers import shuffled_jacobi
from oracles import (FractionEliminator, SplittingByProducts,
                     dense_rank_oracle, relations_per_class,
                     relators_at_sites, relators_everywhere, sub_diagram)


def test_as_sign_identity():
    w = wheel(2)
    v = w.trivalent[0]
    assert vector_of(flipped(w, v)) == -vector_of(w)


def test_coefficients_are_ints_or_fractions():
    chord = single_chord()
    key = class_of(chord)[0]
    with pytest.raises(TypeError):
        DiagramVector(1, {key: 0.5})
    with pytest.raises(TypeError):
        DiagramVector(1).add_term(key, 0.5)
    with pytest.raises(TypeError):
        vector_of(chord, 0.5)
    vec = DiagramVector(1, {key: Fraction(4, 2)})
    assert type(vec.terms[key]) is int
    vec.add_term(key, Fraction(-1, 2))
    assert vec.terms == {key: Fraction(3, 2)}
    vec.add_term(key, Fraction(1, 2))
    assert vec.terms == {key: 2} and type(vec.terms[key]) is int
    vec.add_term(key, -2)
    assert vec.is_zero()
    assert vector_of(chord, Fraction(2, 3)) - vector_of(chord, 2) == \
        DiagramVector(1, {key: Fraction(-4, 3)})


def test_no_relations_in_degree_zero():
    assert len(generate_relations(0)) == 0


@pytest.mark.parametrize("layer", [quotient_basis, _wbcr_table, enumerate_bcr])
def test_degree_cap_holds_on_a_warm_memo(layer):
    assert layer(3) is layer(3)
    with pytest.raises(DegreeOutOfRange):
        layer(3, k_max=2)


def _line_trivalents(rep):
    """The trivalent vertices reached from the line, by a walk over the
    edge list."""
    uni = rep.univalent
    seen, todo = set(uni), list(uni)
    while todo:
        v = todo.pop()
        for pair in rep.edges:
            if v in pair:
                w = pair[1] if pair[0] == v else pair[0]
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(seen - uni)


def test_stu_site_count_matches_site_scan():
    # STU is listed on the classes that do not vanish: at every site of a
    # line part with one trivalent vertex, at the first site of one with
    # more
    for k in (2, 3):
        rows = []
        for rep in enumerate_jacobi(k):
            if not class_of(rep)[1]:
                continue
            uni = rep.univalent
            sites = []
            for u in rep.univalent_order:
                (e, end), = rep.incident(u)
                t = rep.edges[e][1 - end]
                if t not in uni:
                    sites.append((t, u))
            if _line_trivalents(rep) > 1:
                sites = sites[:1]
            for (t, u) in sites:
                d1, d2 = stu_expand(rep, t, u)
                rows.append(vector_of(rep) - vector_of(d1) + vector_of(d2))
        assert generate_relations(k).vectors("STU") == rows
    assert len(stu_sites(wheel(2))) == 2


def test_relators_reduce_to_zero():
    for k in (1, 2, 3):
        q = quotient_basis(k)
        for vec in generate_relations(k).vectors():
            assert q.reduce(vec).is_zero()


@pytest.mark.parametrize("k, stu, ihx", [
    (1, 0, 0), (2, 4, 1), (3, 50, 7),
    pytest.param(4, 621, 42, marks=pytest.mark.slow)])
def test_relators_are_stu_at_spanning_sites_and_ihx_beside_chords(k, stu,
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
    _assert_same_quotient(q, q._elim, _fraction_reference(everywhere, q),
                          everywhere)


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow),
                               pytest.param(5, marks=pytest.mark.slow)])
def test_quotient_and_splitting_match_the_per_class_listing(monkeypatch, k):
    # each IHX relation once, at classes that do not vanish, and the STU
    # rows of a class with a closed part joined from its line part's, leave
    # the basis, every pivot row and the splitting of the listing that
    # searches every term on the whole class
    q = quotient_basis(k, k_max=k)
    parts = splitting(k, k_max=k)
    monkeypatch.setattr(quotient, "generate_relations", relations_per_class)
    oracle = quotient_basis.__wrapped__(k)
    assert oracle.basis == q.basis
    assert oracle._elim.pivots == q._elim.pivots
    monkeypatch.setattr(quotient, "quotient_basis",
                        lambda k, k_max: oracle)
    assert splitting.__wrapped__(k) == parts


@pytest.mark.parametrize("k", [2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_ihx_at_a_companions_middle_edge_gives_the_relation_back(k):
    # the row at H's middle edge is minus the row at I, the row at X's is
    # the row at I, at every internal edge with no parallel partner
    checked = 0
    for rep in enumerate_jacobi(k):
        for e in internal_edges(rep):
            if sum(set(p) == set(rep.edges[e]) for p in rep.edges) > 1:
                continue
            h, x = ihx_terms(rep, e)
            row = vector_of(rep) - vector_of(h) + vector_of(x)
            for d, want in ((h, -row), (x, row)):
                h2, x2 = ihx_terms(d, e)
                assert vector_of(d) - vector_of(h2) + vector_of(x2) == want
            checked += 1
    assert checked


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_closed_and_line_keys_join_into_the_class_key(k):
    # the closed part of a class takes its first slots, as many as its key
    # says; searched afresh on a relabeled copy, a class with a closed part
    # and a line part has the closed part's tokens, then the line part's
    # shifted past the closed slots, and the product of their signs
    rng = random.Random(k)
    joined = 0
    for rep in enumerate_jacobi(k):
        uni = rep.univalent
        closed = [v for c in rep.components() if uni.isdisjoint(c)
                  for v in c]
        assert sorted(closed) == list(range(len(closed)))
        assert relations._closed_slots(class_of(rep)[0]) == len(closed)
        if not closed or len(closed) == rep.nv:
            continue
        d = shuffled_jacobi(rep, rng)
        uni = d.univalent
        closed = [v for c in d.components() if uni.isdisjoint(c) for v in c]
        line = [v for v in range(d.nv) if v not in closed]
        key, sign = class_of(d)
        closed_key, closed_sign = class_of(sub_diagram(d, closed))
        line_key, line_sign = class_of(sub_diagram(d, line))
        assert relations._joined(closed_key[1], line_key) == key
        assert relations._line_key(key, len(closed)) == line_key
        assert sign == closed_sign * line_sign
        joined += 1
    assert joined or k < 2


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
    # beside a chord line part, where every internal edge is on a closed
    # component; the rows left out sit at an edge with a parallel partner,
    # and they are 0
    listed = {frozenset(vec.terms.items())
              for vec in generate_relations(k).vectors("IHX")}
    checked = parallel = 0
    for rep, kind, e, vec in relators_at_sites(k):
        if kind != "IHX":
            continue
        if not _line_trivalents(rep):
            pair = set(rep.edges[e])
            if sum(set(other) == pair for other in rep.edges) > 1:
                assert vec.is_zero()
                parallel += 1
            else:
                assert (frozenset(vec.terms.items()) in listed
                        or frozenset((-vec).terms.items()) in listed)
                checked += 1
    assert checked >= len(listed)
    assert parallel


def _fraction_reference(relators, q):
    """The relators eliminated over Fractions, in the order given, to the
    fully reduced form, on the class keys in the quotient's order."""
    ref = FractionEliminator(q.rank)
    for vec in relators.vectors():
        if not vec.is_zero():
            ref.add_row({key: Fraction(c) for key, c in vec.terms.items()})
    return ref


def _integral_fractions(elim):
    return [c for row in elim.pivots.values() for c in row.values()
            if type(c) is Fraction and c.denominator == 1]


def _ranked(q, vec):
    return {q.rank[key]: c for key, c in vec.terms.items()}


def _assert_same_quotient(q, elim, ref, relators):
    """`elim`, on the columns of `q`, and the reference `ref`, on its class
    keys, span the same quotient: the same leads, every class reduced
    alike, every relator reduced to 0, and no kept value of `elim` an
    integral Fraction."""
    keys = q.class_keys
    assert sorted(elim.pivots) == sorted(q.rank[key] for key in ref.pivots)
    for i, key in enumerate(keys):
        assert ({keys[j]: c for j, c in elim._reduce_terms({i: 1}).items()}
                == ref._reduce_terms({key: Fraction(1)}))
    for vec in relators.vectors():
        assert not elim._reduce_terms(_ranked(q, vec))
    assert not _integral_fractions(elim)


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_lead_order_and_generation_order_give_equal_pivots(k):
    # the rows differ with the order they come in, but not the leads, the
    # basis or what a vector reduces to
    q = quotient_basis(k)
    rels = generate_relations(k)
    elim = quotient._Eliminator()
    for vec in rels.vectors():
        if not vec.is_zero():
            elim.add_row(_ranked(q, vec))
    _assert_same_quotient(q, elim, _fraction_reference(rels, q), rels)
    assert q.basis == [key for i, key in enumerate(q.class_keys)
                       if i not in elim.pivots]


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_integer_pivots_match_the_fraction_eliminator(k):
    # the relators are integer rows, and eliminating them in ints leaves
    # the quotient that elimination over Fractions, in generation order,
    # leaves
    q = quotient_basis(k)
    rels = generate_relations(k)
    for vec in rels.vectors():
        assert all(type(c) is int for c in vec.terms.values())
    _assert_same_quotient(q, q._elim, _fraction_reference(rels, q), rels)


def test_eliminator_keeps_integral_values_as_ints():
    # a lead of 2 brings in halves; the next row, reduced by the first,
    # has a lead of 1/2 and comes out integral
    a, b, c = 0, 1, 2
    elim = quotient._Eliminator()
    ref = FractionEliminator({a: 0, b: 1, c: 2})
    for row in ({a: 2, b: 1}, {a: 1, b: 1, c: 1}):
        elim.add_row(row)
        ref.add_row({col: Fraction(x) for col, x in row.items()})
    assert elim.pivots == {a: {a: 1, b: Fraction(1, 2)}, b: {b: 1, c: 2}}
    assert not _integral_fractions(elim)
    assert ref.pivots == {a: {a: 1, c: -1}, b: {b: 1, c: 2}}
    for col in (a, b, c):
        assert (elim._reduce_terms({col: 1})
                == ref._reduce_terms({col: Fraction(1)}))
    # an all-int elimination is left alone
    elim = quotient._Eliminator()
    elim.add_row({a: 1, b: 2})
    assert not elim._fractions


def test_reduction_takes_the_leads_a_subtraction_brings_in():
    # the row under a holds b, which leads the row kept after it:
    # reducing a leaves the combination on the basis column c alone
    a, b, c = 0, 1, 2
    elim = quotient._Eliminator()
    elim.add_row({a: 1, b: 1})
    elim.add_row({b: 1, c: 1})
    assert elim.pivots[a] == {a: 1, b: 1}
    assert elim._reduce_terms({a: 1}) == {c: 1}
    assert elim._reduce_terms({a: 1, c: -1}) == {}


@pytest.mark.parametrize("k", [1, 2, 3,
                               pytest.param(4, marks=pytest.mark.slow)])
def test_relators_hold_the_class_lists_keys_and_rows_their_ranks(k):
    # every relator term is the very key object enumerate_jacobi holds
    # for its class, and the kept rows hold ranks in the class list
    listed = {}
    for rep in enumerate_jacobi(k):
        key, sign = class_of(rep)
        if sign:
            listed[key] = key
    for vec in generate_relations(k).vectors():
        for key in vec.terms:
            assert key is listed[key]
    q = quotient_basis(k)
    assert all(key is listed[key] for key in q.class_keys)
    columns = range(len(q.class_keys))
    for lead, row in q._elim.pivots.items():
        assert lead == min(row)
        assert all(type(col) is int and col in columns for col in row)


def test_a_relator_term_off_the_class_list_raises(monkeypatch):
    # drop a class that a relator listed at another class holds as a term
    reps = enumerate_jacobi(2)
    vec = next(vec for vec in generate_relations(2).vectors()
               if len(vec.terms) > 1)
    gone = list(vec.terms)[-1]
    monkeypatch.setattr(relations, "enumerate_jacobi",
                        lambda k, k_max: [rep for rep in reps
                                          if class_of(rep)[0] != gone])
    with pytest.raises(LookupError) as info:
        generate_relations(2)
    assert repr(gone) in str(info.value)


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_rejects_a_key_that_is_not_a_class_of_the_degree(k):
    # a class of the degree below and a class that vanishes have no
    # column; neither comes back looking like a basis class
    q = quotient_basis(k)
    vanishing = [class_of(rep)[0] for rep in enumerate_jacobi(k)
                 if not class_of(rep)[1]]
    assert vanishing
    for key in (quotient_basis(k - 1).class_keys[-1], vanishing[0]):
        vec = DiagramVector(k, {q.class_keys[0]: 1, key: 2})
        with pytest.raises(ValueError) as info:
            q.reduce(vec)
        assert repr(key) in str(info.value)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_splitting_and_projection_leave_the_relator_rows_alone(k):
    # the splitting shares the relators' rows and the projection only
    # reads reduced forms: neither writes to the quotient's pivots
    q = quotient_basis(k)
    before = copy.deepcopy(q._elim.pivots)
    assert splitting.__wrapped__(k) == splitting(k)
    quotient._projector.__wrapped__(k)
    for rep in enumerate_jacobi(k):
        project_pc(vector_of(rep))
    assert q._elim.pivots == before
    assert quotient_basis(k) is q


# sha256 of the JSON of [basis, splitting], recorded while the relators
# were kept fully reduced
BASIS_DIGESTS = {
    0: "ead9078af12b35e82b7dc17ba6fe01e3e9846db7998569774f6691aaf1a93efd",
    1: "f6900077610d6c75f7f444856bb53437fc6f7fa8e814bf4875750fd9635fa0a9",
    2: "8fd01fe57c663db36d9c76fe1a7dcf550474ccca4021ea9b0da7c98ff54a4ab3",
    3: "0dd8ea9e902a4f2f79fc6d7dc5bb2b0a391812b8888ffd113b2082fe5d55d1d2",
    4: "7608cf171d66f434c4fbf3ebd63ce15c9456b0c549e95d9c402909179062bcc5",
    5: "06ae63e3820be28163c707809b13a60d093ad2d85beb7965c6054f2747de7fe4",
}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4,
                               pytest.param(5, marks=pytest.mark.slow)])
def test_basis_and_splitting_keep_their_recorded_digest(k):
    data = json.dumps([quotient_basis(k, k_max=k).basis,
                       splitting(k, k_max=k)])
    assert hashlib.sha256(data.encode()).hexdigest() == BASIS_DIGESTS[k]


@pytest.mark.slow
def test_degree_five_pivots_hold_no_integral_fraction():
    # two leads of +-2 at degree 5 bring Fractions into 192 kept rows
    elim = quotient_basis(5, k_max=5)._elim
    assert elim._fractions
    assert not _integral_fractions(elim)


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
                lhs = _reduce(vector_of(product(a, b)))
                rhs = _reduce(vector_of(product(b, a)))
                assert lhs == rhs


@pytest.mark.slow
def test_product_commutes_in_the_quotient_degree_four():
    for a in enumerate_jacobi(2):
        for b in enumerate_jacobi(2):
            assert _reduce(vector_of(product(a, b))) == \
                _reduce(vector_of(product(b, a)))


@pytest.mark.slow
def test_project_kills_products_and_trivalent_degree_four():
    for rep in enumerate_jacobi(4):
        vec = vector_of(rep)
        if vec.is_zero():
            continue
        if rep.has_trivalent_component() or rep.product_split():
            assert _project(4)(vec).is_zero()


def test_algebra_product_unit():
    w = wheel(2)
    assert vector_of(product(w, empty_diagram())) == vector_of(w)
    assert vector_of(product(empty_diagram(), w)) == vector_of(w)
