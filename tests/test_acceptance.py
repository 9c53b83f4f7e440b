"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance (always
exact rational equality; time limits where stated) and prints one PASS
line; run with ``pytest tests/test_acceptance.py -v -s``.  The degree-4
half of criterion 2 is gated behind ``--slow``.
"""

import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from knotweights.alexander import alexander_by_skein, alexander_poly
from knotweights.bcr import bcr_key
from knotweights.bridge import verify_main, verify_stu, wbcr
from knotweights.conway import wc_diagram, wc_eval
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.jacobi import class_of, product, wheel
from knotweights.pd import parse_pd
from knotweights.psi import verify_wc_psi
from knotweights.series import PowerSeries, conway_series, zbcr_series
from knotweights.bcr import degree_one_bcr
from knotweights.bridge import epsilon, epsilon2, orderings

from helpers import shuffled_bcr, shuffled_jacobi
from oracles import (brute_force_bcr_keys, brute_force_jacobi_keys,
                     relators_everywhere)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = ["unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1"]


def _announce(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_circle_weight_on_wheels():
    t0 = time.monotonic()
    for k in range(2, 9):
        assert wc_diagram(wheel(k), k_max=8) == Fraction(-1 - (-1) ** k)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _announce(1, f"wc(wheel_k) = -1-(-1)^k for k=2..8 in {elapsed:.2f}s")


def test_criterion_2_main_identity_degrees_two_three():
    t0 = time.monotonic()
    for k in (2, 3):
        rows = verify_main(k)
        assert rows and all(r["equal"] for r in rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _announce(2, f"wbcr == -wc' on every class of degrees 2 and 3 "
                 f"in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_main_identity_degree_four():
    t0 = time.monotonic()
    rows = verify_main(4)
    assert rows and all(r["equal"] for r in rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    _announce(2, f"wbcr == -wc' on every class of degree 4 "
                 f"({len(rows)} classes) in {elapsed:.1f}s")


def test_criterion_3_wheel_weights():
    for k in (2, 3, 4):
        assert wbcr(wheel(k)) == Fraction(1 + (-1) ** k)
    _announce(3, "wbcr(wheel_k) = 1+(-1)^k for k=2,3,4")


def test_criterion_4_stu_and_antisymmetry():
    for k in (2, 3):
        rows = verify_stu(k)
        assert rows and all(r["equal"] for r in rows)
    _announce(4, "wbcr satisfies every STU relator and antisymmetry "
                 "at degrees 2-3")


def test_criterion_5_products_vanish():
    checked = 0
    for k1, k2 in [(1, 1), (1, 2), (1, 3), (2, 2)]:
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                assert wbcr(product(a, b)) == 0
                checked += 1
    _announce(5, f"wbcr vanishes on all {checked} product classes of "
                 f"degrees 2-4")


def test_criterion_6_well_defined_and_multiplicative():
    for k in (1, 2, 3, 4):
        for vec in relators_everywhere(k).vectors():
            assert wc_eval(vec) == 0
    pairs = 0
    for k1 in range(0, 5):
        for k2 in range(0, 5 - k1):
            for a in enumerate_jacobi(k1):
                for b in enumerate_jacobi(k2):
                    assert wc_diagram(product(a, b)) == \
                        wc_diagram(a) * wc_diagram(b)
                    pairs += 1
    _announce(6, f"wc is relator-invariant at degrees <= 4 and "
                 f"multiplicative on {pairs} pairs")


def test_criterion_7_substitution_compatibility():
    for k in (1, 2, 3):
        rows = verify_wc_psi(k)
        assert rows and all(r["equal"] for r in rows)
    _announce(7, "wc after degree-1 edge substitution equals wc at "
                 "degrees <= 3")


def test_criterion_8_alexander_series_bridge():
    t0 = time.monotonic()
    for name in CORPUS:
        pd = parse_pd((FIXTURES / f"{name}.pd").read_text())
        p = alexander_poly(pd)
        assert p == alexander_by_skein(pd)
        z = zbcr_series(p, 6)
        assert z[3] == 0 and z[5] == 0
        minus = PowerSeries(6, [0, 0] + [-z[k] for k in range(2, 7)])
        c = conway_series(p, 6)
        assert all(minus.exp()[k] == c[k] for k in range(7))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _announce(8, f"series identity, skein agreement and odd vanishing "
                 f"on {len(CORPUS)} knots in {elapsed:.2f}s")


def test_criterion_9_property_suites():
    rng = random.Random(20250809)
    # canonical keys survive 1000 random relabelings
    d = wheel(3)
    key = class_of(d)
    for _ in range(1000):
        assert class_of(shuffled_jacobi(d, rng)) == key
    b = enumerate_bcr(3)[0]
    bkey = bcr_key(b)
    for _ in range(1000):
        assert bcr_key(shuffled_bcr(b, rng)) == bkey

    # enumeration completeness against exhaustive generation
    for k in (1, 2):
        assert {bcr_key(x) for x in enumerate_bcr(k)} == \
            brute_force_bcr_keys(k)
    for k in (0, 1, 2, 3):
        assert {class_of(x)[0] for x in enumerate_jacobi(k)} == \
            brute_force_jacobi_keys(k)

    # ordering counts and the degree-1 cancellation
    for k in (1, 2, 3):
        for x in enumerate_bcr(k):
            assert sum(1 for _ in orderings(x)) == \
                factorial(len(x.internal_vertices))
    d1 = degree_one_bcr()
    assert sum(epsilon(d1) * epsilon2(d1, rho)
               for rho in orderings(d1)) == 0
    _announce(9, "canonical stability (1000 relabelings), enumeration "
                 "completeness vs brute force, ordering counts, and the "
                 "degree-1 cancellation")
