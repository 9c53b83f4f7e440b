"""The canonical labeling search against its oracles: the search without
the least-sibling cut (`canonical_form_dfs`) and the unpruned search
(`canonical_form_all`)."""

import random

import pytest

from knotweights import canon, jacobi
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.jacobi import _line_colors
from knotweights.relations import generate_relations

from helpers import shuffled_jacobi
from oracles import (canonical_form_all, canonical_form_dfs, group_order,
                     relators_everywhere)


def _recorded_calls(monkeypatch, k):
    """Every `canonical_form` call that enumerating degree k, listing its
    relators and relating it at every site make, as argument tuples.  The
    enumeration's calls find the automorphisms each class keeps; the
    listing's own calls, its line parts of lower degree and its IHX
    companions, are ones that relating at every site does not make, so
    every search the program makes up to the listing is recorded.  The
    BCR enumeration makes none: it keys its classes by their words."""
    calls = []
    search = canon.canonical_form

    def record(n, colors, edges):
        calls.append((n, list(colors), list(edges)))
        return search(n, colors, edges)

    for module in (canon, jacobi):
        monkeypatch.setattr(module, "canonical_form", record)
    # the enumerations are memoised per degree: call their bodies
    enumerate_jacobi.__wrapped__(k)
    if k:
        before = len(calls)
        enumerate_bcr.__wrapped__(k)
        assert len(calls) == before
    generate_relations(k)
    relators_everywhere(k)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_search_matches_the_uncut_search_on_every_call(monkeypatch, k):
    calls = _recorded_calls(monkeypatch, k)
    assert calls
    for n, colors, edges in calls:
        # the search's precondition: no recorded search has a loop
        assert all(u != v for (u, v, _) in edges)
        key, perm, gens = canon.canonical_form(n, colors, edges)
        key_dfs, perm_dfs, gens_dfs = canonical_form_dfs(n, colors, edges)
        assert (key, perm) == (key_dfs, perm_dfs)
        assert group_order(n, gens) == group_order(n, gens_dfs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_classes_match_the_unpruned_search(k):
    """The closed (all-trivalent) classes are single cells after refinement,
    where the search has the most to cut."""
    rng = random.Random(k)
    closed = [rep for rep in enumerate_jacobi(k) if not rep.univalent_order]
    assert closed
    for rep in closed:
        for d in [rep] + [shuffled_jacobi(rep, rng) for _ in range(2)]:
            entries = [(u, v, 0) for (u, v) in d.edges]
            colors = _line_colors(d.nv, d.univalent_order)
            key, perm, gens = canon.canonical_form(d.nv, colors, entries)
            key_all, perms = canonical_form_all(d.nv, colors, entries)
            assert key == key_all
            assert perm in perms
            assert group_order(d.nv, gens) == len(perms)


def _tags(rng):
    # like edge numbering labels, a few per graph so that some graphs keep
    # automorphisms: the ranks of the rests are not the tags
    return rng.sample((0, 1, 2, 5, 9), rng.randint(1, 3))


def _random_multigraph(rng):
    n = rng.randint(1, 7)
    colors = [rng.choice("ab") for _ in range(n)]
    tags = _tags(rng)
    edges = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(tags)))
    return n, colors, edges


def _circulant(rng):
    """A few edges closed under the rotation v -> v + 1 mod n: one cell
    after refinement, so the search compares levels of every length."""
    n = rng.randint(2, 7)
    tags = _tags(rng)
    base = [(0, rng.randrange(1, n), rng.choice(tags))
            for _ in range(rng.randint(1, 3))]
    edges = [((u + i) % n, (v + i) % n, tag) for (u, v, tag) in base
             for i in range(n)]
    return n, ["a"] * n, edges


def test_parallel_edges_and_tags():
    """Loop-free multigraphs with parallel edges and mixed tags, more
    varied than the package's diagrams, against both oracles: the int
    coding of level tokens ranks the tags of each call."""
    rng = random.Random(5)
    for draw in [_random_multigraph, _circulant] * 300:
        n, colors, edges = draw(rng)
        key, perm, gens = canon.canonical_form(n, colors, edges)
        assert (key, perm) == canonical_form_dfs(n, colors, edges)[:2]
        key_all, perms = canonical_form_all(n, colors, edges)
        assert key == key_all
        assert perm in perms
        assert group_order(n, gens) == len(perms)
