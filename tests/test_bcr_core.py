import random

import pytest

from knotweights.bcr import (EXTERNAL, INTERNAL, bcr_canonical, bcr_key,
                             degree_one_bcr, validate_bcr, wheel_bcr)
from knotweights.enumerate import enumerate_bcr
from knotweights.errors import (DegreeOutOfRange, Disconnected, EmptyGraph,
                                LoopEdge, VertexTypeViolation)

from helpers import shuffled_bcr


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
        _, perms = bcr_canonical(wheel_bcr(k))
        assert len(perms) == k
