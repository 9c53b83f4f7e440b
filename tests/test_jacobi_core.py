import random

import pytest

from knotweights.errors import (DegreeOutOfRange, InvalidNumbering, LoopEdge,
                                VertexTypeViolation)
from knotweights.jacobi import (JacobiDiagram, canonicalize, chord_diagram,
                                class_of, empty_diagram, flipped,
                                make_diagram, product, single_chord,
                                theta_graph, validate_jacobi, wheel)
from knotweights.enumerate import enumerate_jacobi

from helpers import shuffled_jacobi


def test_empty_diagram_is_valid_degree_zero():
    d = empty_diagram()
    assert d.degree == 0
    assert validate_jacobi(d) is not None


def test_single_chord_degree_one():
    d = single_chord()
    assert d.degree == 1
    assert d.is_chord_diagram()


def test_bivalent_vertex_rejected():
    # vertices 2 and 3 sit off the line but only reach valence two
    with pytest.raises(VertexTypeViolation):
        make_diagram(4, [0, 1], [(0, 2), (1, 3), (2, 3)])
    with pytest.raises(VertexTypeViolation):
        make_diagram(2, [0], [(0, 1), (0, 1)])


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        JacobiDiagram(2, (0,), [(1, 1), (0, 1)],
                      {1: ((0, 0), (0, 1), (1, 1))})


def test_numbering_must_inject():
    d = single_chord()
    with pytest.raises(InvalidNumbering):
        JacobiDiagram(d.nv, d.univalent_order, d.edges, d.orient,
                      numbering={0: 5})  # out of 1..3
    ok = JacobiDiagram(d.nv, d.univalent_order, d.edges, d.orient,
                       numbering={0: 3})
    assert ok.numbering == {0: 3}


def test_product_unit_and_degree():
    w = wheel(2)
    lhs = canonicalize(product(w, empty_diagram()))
    assert lhs == canonicalize(w)
    assert product(w, wheel(3)).degree == 5


def test_product_of_chords_is_sequential():
    d = product(single_chord(), single_chord())
    assert sorted(d.chords()) == [(1, 2), (3, 4)]


def test_product_associative_on_small_classes():
    reps = enumerate_jacobi(1)
    for a in reps:
        for b in reps:
            for c in reps:
                left = canonicalize(product(product(a, b), c))
                right = canonicalize(product(a, product(b, c)))
                assert left == right


def test_enumerate_counts_low_degrees():
    assert len(enumerate_jacobi(0)) == 1
    assert len(enumerate_jacobi(1)) == 2
    assert len(enumerate_jacobi(2)) == 10


def test_enumerate_contains_stock_diagrams():
    keys1 = {class_of(d)[0] for d in enumerate_jacobi(1)}
    assert class_of(single_chord())[0] in keys1
    assert class_of(theta_graph())[0] in keys1
    keys2 = {class_of(d)[0] for d in enumerate_jacobi(2)}
    assert class_of(wheel(2))[0] in keys2


def test_enumerate_filters():
    classes = enumerate_jacobi(2)
    conn = [d for d in classes if d.is_connected()]
    line = [d for d in classes if not d.has_trivalent_component()]
    assert 0 < len(conn) < len(classes)
    assert 0 < len(line) < len(classes)


def test_enumerate_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        enumerate_jacobi(5)
    with pytest.raises(DegreeOutOfRange):
        enumerate_jacobi(-1)


def test_enumerate_is_memoised_per_degree():
    assert enumerate_jacobi(3) is enumerate_jacobi(3)
    assert enumerate_jacobi(3, k_max=3) is enumerate_jacobi(3)


def test_components_and_shape_predicates():
    d = product(theta_graph(), single_chord())
    assert len(d.components()) == 2
    assert d.has_trivalent_component()
    assert not d.is_connected()
    assert wheel(3).is_connected()


def test_product_split_detects_products():
    d = product(single_chord(), wheel(2))
    split = d.product_split()
    assert split is not None
    crossing = chord_diagram([(1, 3), (2, 4)])
    assert crossing.product_split() is None


def test_chord_positions():
    d = chord_diagram([(1, 3), (2, 4)])
    assert sorted(d.chords()) == [(1, 3), (2, 4)]


def test_flip_changes_sign_only():
    w = wheel(2)
    key, sign = class_of(w)
    key2, sign2 = class_of(flipped(w, w.trivalent[0]))
    assert key2 == key
    assert sign2 == -sign


def test_relabeling_preserves_key_and_sign():
    rng = random.Random(7)
    for d in [wheel(2), wheel(3), theta_graph(),
              chord_diagram([(1, 4), (2, 6), (3, 5)])]:
        key, sign = class_of(d)
        for _ in range(50):
            key2, sign2 = class_of(shuffled_jacobi(d, rng))
            assert (key2, sign2) == (key, sign)
