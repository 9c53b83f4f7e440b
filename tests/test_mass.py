"""The counting certificates of the class lists (see `mass.py`): the
Jacobi lists by a mass formula, the BCR lists by Burnside's lemma, the
support and the line-only classes by the exponential formula."""

from fractions import Fraction

import pytest

from knotweights.enumerate import enumerate_bcr, enumerate_jacobi

from mass import (bcr_class_count, class_mass, expected_mass,
                  line_only_counts, loopless_pairings, support_count)
from oracles import pairings


@pytest.mark.parametrize("u, t", [
    (u, t) for u in range(5) for t in range(4) if (u + 3 * t) % 2 == 0
    and u + 3 * t <= 10])
def test_loopless_pairings_count_the_pairings_with_no_loop(u, t):
    # half-edge h belongs to vertex h for h < u, to u + (h - u) // 3 after
    owner = list(range(u)) + [u + i // 3 for i in range(3 * t)]
    count = sum(all(owner[a] != owner[b] for a, b in pairs)
                for pairs in pairings(list(range(u + 3 * t))))
    assert loopless_pairings(u, t) == count


def test_expected_mass_at_degree_four():
    assert expected_mass(4) == Fraction(195881377, 497664)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_class_lists_meet_the_mass_formula(k):
    assert class_mass(enumerate_jacobi(k, k_max=k)) == expected_mass(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_bcr_class_lists_meet_the_burnside_count(k):
    assert len(enumerate_bcr(k, k_max=k)) == bcr_class_count(k)


def test_support_count_values():
    assert [support_count(k) for k in range(1, 7)] == [
        1, 5, 35, 351, 4537, 71852]


@pytest.mark.parametrize("k", [
    1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_support_meets_its_closed_form(k):
    support = sum(not rep.has_legless_vertex()
                  for rep in enumerate_jacobi(k, k_max=k))
    assert support == support_count(k)


@pytest.mark.parametrize("k", [
    1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_line_only_classes_follow_from_the_connected_ones(k):
    listed, formula = line_only_counts(k)
    assert listed == formula
    assert sum(listed.values()) == [1, 6, 49, 527, 7123][k - 1]
