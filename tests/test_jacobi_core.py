import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import knotweights
from knotweights.bcr import bcr_key
from knotweights.canon import canonical_form
from knotweights.errors import (DegreeOutOfRange, InvalidNumbering, LoopEdge,
                                VertexTypeViolation)
from knotweights.jacobi import (JacobiDiagram, _cycles_sign, _halves,
                                _line_colors, automorphisms, canonicalize,
                                chord_diagram, class_of, class_of_parts,
                                empty_diagram, flipped, ihx_terms,
                                internal_edges, key_bytes, make_diagram,
                                product, representative, single_chord,
                                stu_expand, stu_sites, theta_graph,
                                validate_jacobi, wheel)
from knotweights.enumerate import (_candidates, _multigraphs, _swap_beats,
                                   enumerate_bcr, enumerate_jacobi)
from knotweights.vectors import DiagramVector, vector_of

from helpers import SearchRan, refuse_search, shuffled_jacobi
from oracles import (candidate_diagrams, class_of_all, class_of_by_edge_map,
                     default_orientation_by_sorting, edge_map_for_perm,
                     enumerate_jacobi_by_search,
                     enumerate_jacobi_unfiltered, every_candidate,
                     group_order, ihx_terms_scanned,
                     multigraphs_by_concatenation,
                     orientation_sign_by_edge_map,
                     product_split_by_cuts, stu_expand_renumbered,
                     swap_beats_by_relabeling)


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


def test_repeated_univalent_vertex_is_named():
    with pytest.raises(VertexTypeViolation) as exc:
        JacobiDiagram(4, [1, 2, 2], [(0, 1), (2, 3)], {})
    assert exc.value.vertex == 2


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


@pytest.mark.parametrize("numbering", [
    {}, {5: 1}, {0: 1, 1: 2}, {True: 1}, {0: True}, {0: 1.0}, {0: "x"}],
    ids=["no_key", "key_past_the_end", "extra_key", "boolean_key",
         "boolean_label", "float_label", "string_label"])
def test_numbering_keys_are_the_edges_and_labels_plain_ints(numbering):
    d = single_chord()
    with pytest.raises(InvalidNumbering, match="inject the edges 0..0"):
        JacobiDiagram(d.nv, d.univalent_order, d.edges, d.orient,
                      numbering=numbering)


@pytest.mark.parametrize("pairs", [
    [(1, 3)], [(0, 1)], [(1, 2), (2, 3)], [(1, 2), (3, 5)]],
    ids=["gap", "from_zero", "shared_endpoint", "past_the_end"])
def test_chord_endpoints_must_cover_the_line(pairs):
    with pytest.raises(VertexTypeViolation,
                       match="chord endpoints must cover 1..2k"):
        chord_diagram(pairs)


def test_product_unit_and_degree():
    w = wheel(2)
    lhs = canonicalize(product(w, empty_diagram()))
    assert lhs[:2] == canonicalize(w)[:2]
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
                assert left[:2] == right[:2]


def test_enumerate_counts_low_degrees():
    assert len(enumerate_jacobi(0)) == 1
    assert len(enumerate_jacobi(1)) == 2
    assert len(enumerate_jacobi(2)) == 10


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_swap_filter_keeps_every_class(k):
    # the enumeration skips candidates a swap of two trivalent vertices
    # lowers; the loop that canonicalizes every candidate finds the same
    # keys in the same order
    keys = tuple(class_of(d)[0] for d in enumerate_jacobi(k))
    assert keys == tuple(class_of(d)[0]
                         for d in enumerate_jacobi_unfiltered(k))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_swap_test_matches_the_relabeling_oracle(k):
    beaten = 0
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in _multigraphs([1] * u + [3] * t, free_start=u):
            got = _swap_beats(edges, u, 2 * k)
            assert got == swap_beats_by_relabeling(edges, u, 2 * k)
            beaten += got
    assert beaten or k < 2


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_unvalidated_candidates_are_valid(k):
    # each candidate, line vertices 0..u-1 and its edge list, is a valid
    # diagram with the default orientation
    for u, edges in _candidates(k):
        d = make_diagram(2 * k, range(u), edges)
        checked = validate_jacobi(d)
        assert (checked.univalent_order, checked.edges) == (
            tuple(range(u)), tuple(edges))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_multigraphs_match_the_concatenating_generator(k):
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        degrees = [1] * u + [3] * t
        assert (list(_multigraphs(degrees, free_start=u))
                == list(multigraphs_by_concatenation(degrees, u)))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_edge_list_class_matches_class_of(k):
    # the class read off a candidate's edge list is class_of of the
    # diagram it stands for, and the swap test keeps the same candidates
    got = list(_candidates(k))
    want = list(candidate_diagrams(k))
    assert [u for u, _ in got] == [u for u, _ in want]
    for (u, edges), (_, d) in zip(got, want):
        assert d.edges == tuple(edges)
        key, sign, perm, gens = class_of_parts(
            2 * k, range(u), edges, _halves(2 * k, edges)[u:])
        assert (key, sign) == class_of(d)


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_representative_orientation_is_the_default(k):
    for rep in enumerate_jacobi(k, k_max=k):
        drawn = representative(rep.record[0])
        assert drawn.orient == default_orientation_by_sorting(
            drawn.nv, drawn.univalent_order, drawn.edges)
        assert drawn.univalent_order == tuple(sorted(drawn.univalent))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_kept_automorphisms_match_a_fresh_search(k):
    # a representative keeps the generators its search found, conjugated
    # into canonical labels; they generate the group a new search finds
    for rep in enumerate_jacobi(k, k_max=k):
        entries = [(a, b, 0) for (a, b) in rep.edges]
        fresh = canonical_form(
            rep.nv, _line_colors(rep.nv, rep.univalent_order), entries)[2]
        kept = automorphisms(rep)
        assert kept is rep.aut
        for g in kept:
            assert sorted((min(g[a], g[b]), max(g[a], g[b]))
                          for a, b in rep.edges) == sorted(rep.edges)
            assert [g[v] for v in rep.univalent_order] == list(
                rep.univalent_order)
        assert group_order(rep.nv, kept) == group_order(rep.nv, fresh)
    for d in (wheel(3), theta_graph()):
        key, _, rep = canonicalize(d)
        assert group_order(rep.nv, automorphisms(rep)) == group_order(
            d.nv, automorphisms(d))


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_classes_joined_from_parts_match_a_search_of_every_candidate(k):
    # the classes with a closed part beside a line part, or with several
    # closed components, are joined from lower degrees with no search;
    # searching every candidate finds the same keys, signs and groups
    got = enumerate_jacobi(k, k_max=k)
    want = enumerate_jacobi_by_search(k)
    assert [rep.record[:2] for rep in got] == [rep.record[:2] for rep in want]
    for a, b in zip(got, want):
        assert group_order(a.nv, a.aut) == group_order(b.nv, b.aut)
        for g in a.aut:
            assert sorted(tuple(sorted((g[x], g[y]))) for x, y in a.edges) \
                == sorted(tuple(sorted(e)) for e in a.edges)
    several = sum(len([c for c in rep.components()
                       if rep.univalent.isdisjoint(c)]) > 1 for rep in got)
    assert several or k < 2


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_searched_candidates_are_line_only_or_one_closed_component(k):
    # the multigraph search drops the candidates with closed components
    # apart from the rest as it goes, and the closed ones whose vertex 0
    # lies on no parallel pair while another vertex does, and keeps the
    # others in order
    kinds = set()
    want = []
    for u, edges in every_candidate(k):
        d = make_diagram(2 * k, range(u), edges)
        comps = d.components()
        closed = [c for c in comps if d.univalent.isdisjoint(c)]
        searched = not closed or (u == 0 and len(comps) == 1)
        if u == 0 and len(set(edges)) < len(edges):
            searched = searched and edges.count((0, 1)) > 1
        kinds.add((bool(closed), u == 0, searched))
        if searched:
            want.append((u, edges))
    assert list(_candidates(k)) == want
    assert len(kinds) == 4 or k < 2


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


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_canonical_form_matches_the_unpruned_search(k):
    rng = random.Random(k)
    for rep in enumerate_jacobi(k):
        for d in [rep] + [shuffled_jacobi(rep, rng) for _ in range(3)]:
            entries = [(u, v, 0) for (u, v) in d.edges]
            key, perm, gens = canonical_form(
                d.nv, _line_colors(d.nv, d.univalent_order), entries)
            key_all, sign_all, aut = class_of_all(d)
            assert key == key_all
            assert edge_map_for_perm(entries, perm)[0] == list(key[1])
            assert group_order(d.nv, gens) == aut
            assert group_order(d.nv, automorphisms(d)) == aut
            assert class_of(d) == (key, sign_all)


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_sign_and_product_split_match_the_oracles(k):
    rng = random.Random(k)
    for rep in enumerate_jacobi(k):
        for d in [rep] + [shuffled_jacobi(rep, rng) for _ in range(3)]:
            entries = [(u, v, 0) for (u, v) in d.edges]
            _, perm, gens = canonical_form(
                d.nv, _line_colors(d.nv, d.univalent_order), entries)
            perms = [perm] + [[perm[w] for w in g] for g in gens]
            perms += [rng.sample(range(d.nv), d.nv) for _ in range(3)]
            for p in perms:
                assert (_cycles_sign(d.edges, d.orient.values(),
                                     [0] * len(d.edges), p)
                        == orientation_sign_by_edge_map(d, entries, p))
            assert d.product_split() == product_split_by_cuts(d)


def _numbered(d, labels):
    return JacobiDiagram(d.nv, d.univalent_order, d.edges, d.orient,
                         dict(enumerate(labels)))


def _edge_moves(d):
    """The edge permutation of each element of Aut(d), by closure of its
    generators, for a diagram with no parallel edges."""
    index = {frozenset(e): i for i, e in enumerate(d.edges)}
    group, frontier = {tuple(range(d.nv))}, [tuple(range(d.nv))]
    while frontier:
        frontier = [q for q in {tuple(g[x] for x in p) for p in frontier
                                for g in automorphisms(d)} if q not in group]
        group.update(frontier)
    return [[index[frozenset((g[a], g[b]))] for a, b in d.edges]
            for g in group]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_key_keeps_the_class_and_the_numbering(k):
    rng = random.Random(k)
    for rep in enumerate_jacobi(k):
        key = knotweights.canonical_key(rep)
        assert key == key_bytes(class_of(rep)[0])
        m = len(rep.edges)
        first = rng.sample(range(1, 3 * k + 1), m)
        numbered = knotweights.canonical_key(_numbered(rep, first))
        for _ in range(3):
            assert knotweights.canonical_key(shuffled_jacobi(rep, rng)) == key
            assert knotweights.canonical_key(
                shuffled_jacobi(_numbered(rep, first), rng)) == numbered
        if len(set(map(frozenset, rep.edges))) < m:
            continue  # parallel edges swap with no vertex moved
        # two numberings give one key exactly when an automorphism carries
        # one onto the other
        moves = _edge_moves(rep)
        image = [0] * m
        for i, e in enumerate(rng.choice(moves)):
            image[e] = first[i]
        for second in [image] + [rng.sample(range(1, 3 * k + 1), m)
                                 for _ in range(3)]:
            related = any(all(second[move[i]] == first[i] for i in range(m))
                          for move in moves)
            assert (knotweights.canonical_key(_numbered(rep, second))
                    == numbered) == related


def test_canonical_key_of_bcr_and_loop_diagrams():
    for k in (1, 2, 3):
        for d in enumerate_bcr(k):
            assert knotweights.canonical_key(d) == key_bytes(bcr_key(d))
    edges = [(0, 0), (0, 1), (1, 1)]
    for numbering in (None, {0: 1, 1: 2, 2: 3}):
        d = JacobiDiagram(2, (), edges, {}, numbering, validate=False)
        assert knotweights.canonical_key(d) == b"None"


def test_make_diagram_names_an_id_off_the_vertices():
    for edges in ([(0, 2)], [(0, "1")]):
        with pytest.raises(VertexTypeViolation):
            make_diagram(2, [0, 1], edges)


def test_numbered_signs_match_the_edge_map_oracle():
    # theta and the degree-2 wheel have parallel edges
    rng = random.Random(11)
    diagrams = [theta_graph(), wheel(2)]
    diagrams += [rep for k in (1, 2, 3) for rep in enumerate_jacobi(k)]
    for d in diagrams:
        for _ in range(3):
            labels = rng.sample(range(1, 3 * d.degree + 1), len(d.edges))
            numbered = JacobiDiagram(d.nv, d.univalent_order, d.edges,
                                     d.orient, dict(enumerate(labels)))
            for x in (numbered, shuffled_jacobi(numbered, rng)):
                tags = [x.numbering[i] for i in range(len(x.edges))]
                assert (class_of_parts(x.nv, x.univalent_order, x.edges,
                                       x.orient.values(), tags)[:2]
                        == class_of_by_edge_map(x, with_numbering=True))


@pytest.mark.parametrize("k", [
    1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_local_moves_match_the_renumbering_oracles(k):
    rng = random.Random(k)
    for rep in enumerate_jacobi(k):
        for d in [rep] + [shuffled_jacobi(rep, rng) for _ in range(3)]:
            for (t, u) in stu_sites(d):
                got = [canonicalize(x)[:2] for x in stu_expand(d, t, u)]
                want = [canonicalize(x)[:2]
                        for x in stu_expand_renumbered(d, t, u)]
                assert got == want
            for e in internal_edges(d):
                got = [canonicalize(x)[:2] for x in ihx_terms(d, e)]
                want = [canonicalize(x)[:2] for x in ihx_terms_scanned(d, e)]
                assert got == want


def test_stu_terms_keep_the_labels():
    for k in (1, 2, 3):
        for rep in enumerate_jacobi(k):
            for (t, u) in stu_sites(rep):
                d1, d2 = stu_expand(rep, t, u)
                for d in (d1, d2):
                    assert d.nv == rep.nv
                    i = d.univalent_order.index(t)
                    assert d.univalent_order[i + 1] == u
                    validate_jacobi(d)
                assert len(d1.edges) == len(d2.edges) == len(rep.edges) - 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_flip_negates_the_sign_at_every_vertex(k):
    for rep in enumerate_jacobi(k):
        key, sign = class_of(rep)
        for v in rep.trivalent:
            assert class_of(flipped(rep, v)) == (key, -sign)


def test_representatives_carry_their_class(monkeypatch):
    reps = [rep for k in range(4) for rep in enumerate_jacobi(k)]
    classes = [class_of(rep) for rep in reps]
    refuse_search(monkeypatch)
    for rep, (key, sign) in zip(reps, classes):
        assert canonicalize(rep) == (key, sign, rep)
        assert vector_of(rep) == DiagramVector(rep.degree, {key: sign})


def test_copies_of_a_representative_are_canonicalized_afresh(monkeypatch):
    reps = [rep for k in range(1, 4) for rep in enumerate_jacobi(k)]
    copies = []
    for rep in reps:
        key, sign, _ = canonicalize(rep)
        copies.append((JacobiDiagram(rep.nv, rep.univalent_order, rep.edges,
                                     rep.orient), (key, sign)))
        for v in rep.trivalent:
            copies.append((flipped(rep, v), (key, -sign)))
    for d, want in copies:
        assert canonicalize(d)[:2] == want
    refuse_search(monkeypatch)
    for d, _ in copies:
        with pytest.raises(SearchRan):
            canonicalize(d)


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_a_representative_is_drawn_from_its_key(k):
    for rep in enumerate_jacobi(k):
        key, sign = rep.record
        drawn = representative(key)
        assert drawn.record is None
        validate_jacobi(drawn)
        assert class_of(drawn) == (key, sign)
        assert drawn.record is None


_BY_KEY_IN_A_FRESH_PROCESS = textwrap.dedent("""
    import json
    from knotweights.conway import (wc_diagram, wc_eval, wc_prime_diagram,
                                    wc_prime_eval)
    from knotweights.jacobi import class_of, product, representative, wheel
    from knotweights.vectors import DiagramVector, vector_of

    wheels = {k: wheel(k) for k in (2, 3)}
    by_key = {}
    for k, w in wheels.items():
        key, sign = class_of(w)
        v = DiagramVector(k, {key: sign})
        rep = representative(key)
        by_key[k] = [str(wc_eval(v)), str(wc_prime_eval(v)),
                     repr(vector_of(product(rep, rep)).items())]
    by_diagram = {k: [str(wc_diagram(w)), str(wc_prime_diagram(w)),
                      repr(vector_of(product(w, w)).items())]
                  for k, w in wheels.items()}
    print(json.dumps([by_key, by_diagram]))
""")


def test_vectors_evaluate_by_key_in_a_fresh_process():
    # no class has been canonicalized before the vector-level calls, so
    # each representative must be drawn from its key alone
    src = os.path.dirname(os.path.dirname(knotweights.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _BY_KEY_IN_A_FRESH_PROCESS],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    by_key, by_diagram = json.loads(run.stdout)
    assert by_key == by_diagram
    assert by_key["2"][:2] == ["-2", "-2"]
