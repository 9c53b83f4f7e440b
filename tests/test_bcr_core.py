import random

import pytest

from knotweights.bcr import (EXTERNAL, INTERNAL, BCRDiagram, aut_order,
                             bcr_key, cycle_with_legs, degree_one_bcr,
                             flavor_word, validate_bcr, wheel_bcr)
from knotweights.enumerate import enumerate_bcr
from knotweights.errors import (DegreeOutOfRange, DiagramError, Disconnected,
                                EmptyGraph, LoopEdge, VertexTypeViolation)
from knotweights.serialize import bcr_to_obj

from helpers import shuffled_bcr
from oracles import (bcr_inputs, canonical_form_all, degree_one_bcr_explicit,
                     enumerate_bcr_by_pieces, wheel_bcr_explicit)


def test_degree_one_diagram():
    d = degree_one_bcr()
    assert d.degree == 1
    assert d.type_of == {0: 4, 1: 5}
    assert set(d.cycle) == {0, 1}
    assert d.legs == {}


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        validate_bcr(0, [], [])


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        validate_bcr(2, [], [(0, 0, INTERNAL), (0, 1, EXTERNAL)])


def test_disconnected_rejected():
    half = [(0, 1, INTERNAL), (1, 0, EXTERNAL)]
    other = [(2, 3, INTERNAL), (3, 2, EXTERNAL)]
    with pytest.raises(Disconnected):
        validate_bcr(4, [], half + other)


def test_vertex_type_violation_names_vertex():
    # univalent vertex with an incoming external edge has no local type
    with pytest.raises(VertexTypeViolation) as err:
        validate_bcr(2, [], [(0, 1, EXTERNAL), (1, 0, EXTERNAL)])
    assert err.value.vertex in (0, 1)


def test_duplicate_directed_edge_rejected():
    with pytest.raises(VertexTypeViolation):
        validate_bcr(2, [], [(0, 1, INTERNAL), (0, 1, EXTERNAL),
                             (1, 0, EXTERNAL), (1, 0, INTERNAL)])


def test_wheel_bcr_valid():
    for k in (2, 3):
        d = wheel_bcr(k)
        assert d.degree == k
        assert len(d.external) == k
        assert len(d.legs) == k
        assert all(d.type_of[v] == 1 for v in d.external)


def _fields(d):
    return {name: getattr(d, name) for name in BCRDiagram.__slots__}


@pytest.mark.parametrize("k", range(2, 7))
def test_wheel_matches_the_explicit_construction(k):
    assert _fields(wheel_bcr(k)) == _fields(wheel_bcr_explicit(k))


def test_degree_one_matches_the_explicit_construction():
    assert _fields(degree_one_bcr()) == _fields(degree_one_bcr_explicit())


def test_cycle_with_legs_numbers_the_legs_in_cycle_order():
    d = cycle_with_legs([INTERNAL, INTERNAL, EXTERNAL, EXTERNAL, INTERNAL])
    assert d.edges == ((0, 1, INTERNAL), (1, 2, INTERNAL), (2, 3, EXTERNAL),
                       (3, 4, EXTERNAL), (4, 0, INTERNAL), (5, 0, EXTERNAL),
                       (6, 1, EXTERNAL), (7, 3, EXTERNAL))
    assert d.external == {3}
    assert d.type_of == {0: 2, 1: 2, 2: 5, 3: 1, 4: 4, 5: 3, 6: 3, 7: 3}
    assert d.out_edge == tuple(range(8))


@pytest.mark.parametrize("k", [1, 2, 3, 4,
                               pytest.param(5, marks=pytest.mark.slow)])
def test_enumeration_matches_the_piece_word_scan(k):
    assert ([bcr_to_obj(d) for d in enumerate_bcr(k, k_max=k)]
            == [bcr_to_obj(d) for d in enumerate_bcr_by_pieces(k)])


@pytest.mark.parametrize("nv, m, accepted", [
    (2, 1, 0), (2, 2, 2), (3, 2, 0), (3, 3, 0), (3, 4, 0), (4, 3, 0),
    (4, 4, 84), pytest.param(4, 5, 0, marks=pytest.mark.slow)])
def test_accepted_diagrams_have_balanced_even_counts(nv, m, accepted):
    # validate_bcr checks neither count nor the cycle/leg decomposition;
    # its docstring says why they hold
    seen = 0
    for external, edges in bcr_inputs(nv, m):
        try:
            d = validate_bcr(nv, external, edges)
        except DiagramError:
            continue
        seen += 1
        types = list(d.type_of.values())
        assert types.count(4) == types.count(5)
        assert d.nv % 2 == 0 and d.nv == len(d.edges)
        head = [d.edges[i][1] for i in d.out_edge]
        cycle = list(d.cycle)
        assert [head[v] for v in cycle] == cycle[1:] + cycle[:1]
        legs = {head[u]: u for u in range(nv) if u not in cycle}
        assert legs == d.legs
        assert all(d.type_of[u] == 3 for u in legs.values())
        assert sorted(legs) == [v for v in sorted(cycle)
                                if d.type_of[v] in (1, 2)]
    assert seen == accepted


def test_type_tags_cover_five_cases():
    # solid cycle of two legged trivalent vertices: types 2 and 3 only
    edges = [(0, 1, INTERNAL), (1, 0, INTERNAL),
             (2, 0, EXTERNAL), (3, 1, EXTERNAL)]
    d = validate_bcr(4, [], edges)
    assert d.type_of == {0: 2, 1: 2, 2: 3, 3: 3}


def test_enumerate_counts():
    assert len(enumerate_bcr(1)) == 1
    assert len(enumerate_bcr(2)) == 5
    assert len(enumerate_bcr(3)) == 8
    assert len(enumerate_bcr(4)) == 15


def test_enumerate_contains_wheel():
    keys = {bcr_key(d) for d in enumerate_bcr(2)}
    assert bcr_key(wheel_bcr(2)) in keys


def test_enumerate_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange, match=r"range \[1, 4\]"):
        enumerate_bcr(0)
    with pytest.raises(DegreeOutOfRange):
        enumerate_bcr(9)


def test_enumeration_invariants_up_to_four():
    for k in range(1, 5):
        for d in enumerate_bcr(k):
            assert d.nv == len(d.edges)
            assert d.nv % 2 == 0
            n4 = sum(1 for t in d.type_of.values() if t == 4)
            n5 = sum(1 for t in d.type_of.values() if t == 5)
            assert n4 == n5
            # every trivalent cycle vertex carries exactly one leg
            tri = [v for v, t in d.type_of.items() if t in (1, 2)]
            assert sorted(d.legs) == sorted(tri)


def test_relabeling_preserves_key():
    rng = random.Random(11)
    for d in [degree_one_bcr(), wheel_bcr(2), wheel_bcr(3)]:
        key = bcr_key(d)
        for _ in range(50):
            assert bcr_key(shuffled_bcr(d, rng)) == key


def test_wheel_automorphisms_are_rotations():
    for k in (2, 3, 4):
        assert aut_order(wheel_bcr(k)) == k


def test_flavor_word_rebuilds_the_diagram():
    rng = random.Random(3)
    for k in (1, 2, 3):
        for rep in enumerate_bcr(k):
            d = shuffled_bcr(rep, rng)
            assert bcr_to_obj(cycle_with_legs(flavor_word(rep))) == \
                bcr_to_obj(rep)
            assert bcr_key(cycle_with_legs(flavor_word(d))) == bcr_key(rep)


@pytest.mark.parametrize("k", [
    1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_word_keys_match_the_directed_search(k):
    """Over every class and three shuffles of each, two diagrams have the
    same word key exactly when the directed graph search finds them
    isomorphic, and the rotations that fix the word are as many as that
    search's minimizing relabelings, |Aut|."""
    rng = random.Random(k)
    searched = {}  # word key -> key of the directed search
    for rep in enumerate_bcr(k, k_max=k):
        for d in [rep] + [shuffled_bcr(rep, rng) for _ in range(3)]:
            colors = [("e",) if v in d.external else ("i",)
                      for v in range(d.nv)]
            key_all, perms = canonical_form_all(d.nv, colors, list(d.edges),
                                                directed=True)
            assert searched.setdefault(bcr_key(d), key_all) == key_all
            assert aut_order(d) == len(perms)
    assert len(set(searched.values())) == len(searched)
