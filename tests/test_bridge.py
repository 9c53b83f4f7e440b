import random
from fractions import Fraction
from math import factorial

import pytest

from knotweights import bridge
from knotweights.bcr import (EXTERNAL, INTERNAL, bcr_canonical, validate_bcr,
                             wheel_bcr)
from knotweights.bridge import (epsilon, epsilon2, epsilon3, jacobi_of,
                                orderings, verify_main, verify_stu, wbcr)
from knotweights.canon import canonical_form
from knotweights.enumerate import enumerate_bcr, enumerate_jacobi
from knotweights.errors import DegreeOutOfRange, NotIsomorphic
from knotweights.jacobi import (JacobiDiagram, class_of, flipped,
                                product, single_chord, stu_expand,
                                stu_sites, wheel)
from knotweights.bcr import degree_one_bcr

from helpers import shuffled_jacobi
import oracles
from oracles import (canonical_form_all, class_of_all, sources,
                     wbcr_by_orderings)


def _rho_from_ranks(bcr, ranked_vertices):
    return {v: i + 1 for i, v in enumerate(ranked_vertices)}


def test_jacobi_of_degree_one_is_single_chord():
    d = degree_one_bcr()
    for rho in orderings(d):
        jd = jacobi_of(d, rho)
        assert class_of(jd)[0] == class_of(single_chord())[0]


def test_jacobi_of_wheel_orientations():
    for k in (2, 3):
        w = wheel_bcr(k)
        uni = sorted(w.legs.values())
        rho_a = _rho_from_ranks(w, uni)
        rho_b = _rho_from_ranks(w, uni[::-1])
        key, sign = class_of(wheel(k))
        key_a, sign_a = class_of(jacobi_of(w, rho_a))
        key_b, sign_b = class_of(jacobi_of(w, rho_b))
        assert (key_a, key_b) == (key, key)
        # the forward ordering reproduces the reference orientation, the
        # reversed one flips every trivalent vertex
        assert sign_a == sign
        assert sign_b == sign * (-1) ** k


def test_epsilon_values():
    assert epsilon(degree_one_bcr()) == -1
    for k in (2, 3, 4):
        assert epsilon(wheel_bcr(k)) == (-1) ** k


def test_epsilon_parity_under_extra_leg_piece():
    # a legged external vertex spliced into the cycle adds two external
    # edges (its leg and one more cycle edge) plus one trivalent vertex,
    # so the orientation sign flips, matching the wheel formula
    for k in (2, 3):
        assert epsilon(wheel_bcr(k + 1)) == -epsilon(wheel_bcr(k))


def test_epsilon2_wheel_is_trivial():
    w = wheel_bcr(2)
    for rho in orderings(w):
        assert epsilon2(w, rho) == 1


def test_epsilon2_degree_one():
    d = degree_one_bcr()
    assert epsilon2(d, {0: 1, 1: 2}) == 1
    assert epsilon2(d, {0: 2, 1: 1}) == -1


def test_epsilon2_flips_on_adjacent_transposition():
    # exactly one internal edge joins vertices 0 and 1 here
    edges = [(0, 1, INTERNAL), (1, 2, INTERNAL),
             (2, 0, EXTERNAL), (3, 1, EXTERNAL)]
    d = validate_bcr(4, [], edges)
    rho = {0: 1, 1: 2, 2: 3, 3: 4}
    swapped = dict(rho)
    swapped[0], swapped[1] = rho[1], rho[0]
    assert epsilon2(d, swapped) == -epsilon2(d, rho)


def test_epsilon3_wheel_orderings():
    for k in (2, 3):
        w = wheel_bcr(k)
        uni = sorted(w.legs.values())
        rho_a = _rho_from_ranks(w, uni)
        rho_b = _rho_from_ranks(w, uni[::-1])
        assert epsilon3(wheel(k), w, rho_a) == 1
        assert epsilon3(wheel(k), w, rho_b) == (-1) ** k
        assert epsilon3(flipped(wheel(k), wheel(k).trivalent[0]),
                        w, rho_a) == -1


def test_epsilon3_not_isomorphic():
    with pytest.raises(NotIsomorphic):
        epsilon3(wheel(3), wheel_bcr(2), _rho_from_ranks(
            wheel_bcr(2), sorted(wheel_bcr(2).legs.values())))


def test_epsilon3_rejects_degenerate_target():
    from knotweights.errors import AmbiguousIsomorphism
    from knotweights.jacobi import make_diagram
    # triangle with a doubled side and a tail: the swap of its two plain
    # vertices reverses an odd number of orientations
    degenerate = make_diagram(4, [3], [(0, 1), (0, 1), (0, 2), (1, 2),
                                       (2, 3)])
    assert class_of(degenerate)[1] == 0
    w = wheel_bcr(2)
    with pytest.raises(AmbiguousIsomorphism):
        epsilon3(degenerate, w, _rho_from_ranks(w, sorted(w.legs.values())))
    assert wbcr(degenerate) == 0


def test_wbcr_wheels():
    for k in range(2, 11):
        assert wbcr(wheel(k), k_max=10) == 1 + (-1) ** k
    with pytest.raises(DegreeOutOfRange):
        wbcr(wheel(5))


def test_wbcr_flips_with_orientation():
    w = wheel(2)
    assert wbcr(flipped(w, w.trivalent[0])) == -wbcr(w)


def test_wbcr_zero_on_trivalent_excess():
    for k in (2, 3):
        for rep in enumerate_jacobi(k):
            if len(rep.trivalent) > k:
                assert wbcr(rep) == 0


def test_wbcr_zero_on_products_degrees_two_three():
    for k1, k2 in [(1, 1), (1, 2)]:
        for a in enumerate_jacobi(k1):
            for b in enumerate_jacobi(k2):
                assert wbcr(product(a, b)) == 0


def test_verify_main_low_degrees():
    for k in (1, 2, 3):
        rows = verify_main(k)
        assert all(r["equal"] for r in rows)


@pytest.mark.slow
def test_verify_main_degree_five():
    # both sides vanish at odd degree, so this checks the cancellation
    rows = verify_main(5, k_max=5)
    assert len(rows) == 8018 and all(r["equal"] for r in rows)


def test_verify_stu_low_degrees():
    for k in (2, 3):
        rows = verify_stu(k)
        assert all(r["equal"] for r in rows)


def test_ordering_count():
    for k in (1, 2, 3):
        for d in enumerate_bcr(k):
            n = len(d.internal_vertices)
            assert sum(1 for _ in orderings(d)) == factorial(n)


def test_degree_one_contributions_cancel():
    d = degree_one_bcr()
    total = sum(epsilon(d) * epsilon2(d, rho) for rho in orderings(d))
    assert total == 0


# -- sources on the target ------------------------------------------------

def _line_rank(d):
    return {v: i + 1 for i, v in enumerate(d.univalent_order)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sources_are_valid_and_induce_their_target(k):
    for rep in enumerate_jacobi(k):
        key, sign = class_of(rep)
        rank = _line_rank(rep)
        for edges, s in sources(rep):
            bcr = validate_bcr(rep.nv, rep.trivalent, edges)
            assert class_of(jacobi_of(bcr, rank))[0] == key
            if sign:
                assert s == (epsilon(bcr) * epsilon2(bcr, rank)
                             * epsilon3(rep, bcr, rank))


@pytest.mark.parametrize("k, total", [
    (1, 2), (2, 56), (3, 2186),
    pytest.param(4, 183366, marks=pytest.mark.slow)])
def test_source_totals_per_degree(k, total):
    assert sum(len(list(sources(rep))) for rep in enumerate_jacobi(k)) \
        == total


@pytest.mark.parametrize("k", [
    1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_wbcr_matches_the_ordering_scan(k):
    # sources are counted on the diagram as given, so relabeling its
    # vertices and edges must not change the count
    rng = random.Random(17 + k)
    for rep in enumerate_jacobi(k, k_max=k):
        want = wbcr_by_orderings(rep, k)
        assert wbcr(rep, k) == want
        for _ in range(3):
            assert wbcr(shuffled_jacobi(rep, rng), k) == want


@pytest.mark.parametrize("k", [
    0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_wbcr_equals_the_listed_signed_sum(k):
    # the cycle sum against the sources listed one by one, on each class,
    # on relabelings of it and on a flip at each of its trivalent vertices
    rng = random.Random(29 + k)
    for rep in enumerate_jacobi(k, k_max=k):
        cases = [rep] + [shuffled_jacobi(rep, rng) for _ in range(3)]
        cases += [flipped(rep, v) for v in rep.trivalent]
        for d in cases:
            total = sum(sign for _edges, sign in sources(d))
            assert wbcr(d, k) == total / Fraction(2) ** (2 * k - len(d.edges))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_group_orders_match_the_unpruned_search(k):
    # the ordering scan weighs its terms by |Aut|, which it now closes
    # from the generators the pruned search returns
    for rep in enumerate_jacobi(k):
        assert oracles._jacobi_edge_aut_order(rep) == (
            class_of_all(rep)[2] * oracles._parallel_factor(rep))
    for d in enumerate_bcr(k):
        colors = [("e",) if v in d.external else ("i",) for v in range(d.nv)]
        perms = canonical_form_all(d.nv, colors, list(d.edges),
                                   directed=True)[1]
        assert bridge._group_order(d.nv, bcr_canonical(d)[2]) == len(perms)


def test_verify_main_never_builds_the_ordering_table(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the ordering scan was used")
    monkeypatch.setattr(bridge, "_wbcr_table", boom)
    monkeypatch.setattr(bridge, "enumerate_bcr", boom)
    rows = verify_main(3)
    assert len(rows) == 67 and all(r["equal"] for r in rows)


# -- the two involutions used in the compatibility proofs --------------------

def _numbered_key(jd, numbering):
    d = JacobiDiagram(jd.nv, jd.univalent_order, jd.edges, jd.orient,
                      numbering, validate=False)
    return class_of(d, with_numbering=True)[0]


def _numbering(d):
    return {i: i + 1 for i in range(len(d.edges))}


def _decorated_sources(target):
    """Sources of the target as (bcr, rho, sigma, sign): ranked by the
    target's line, external edges numbered by the target's edge order."""
    rho, sigma = _line_rank(target), _numbering(target)
    for edges, sign in sources(target):
        yield (validate_bcr(target.nv, target.trivalent, edges), rho, sigma,
               sign)


def _decorated_key(bcr, rho, sigma):
    """Canonical form of an ordered, numbered source diagram."""
    colors = [("e",) if v in bcr.external else ("i", rho[v])
              for v in range(bcr.nv)]
    entries = [(a, b, (cls, sigma.get(i, 0)))
               for i, (a, b, cls) in enumerate(bcr.edges)]
    return canonical_form(bcr.nv, colors, entries, directed=True)[0]


def _triple_member_key(bcr, rho, sigma):
    jd = jacobi_of(bcr, rho, sigma)
    return class_of(jd, with_numbering=True)[0]


def _term_sign(target, bcr, rho):
    return epsilon(bcr) * epsilon2(bcr, rho) * epsilon3(target, bcr, rho)


def _stu_site_cases(degrees):
    for k in degrees:
        for rep in enumerate_jacobi(k):
            for (t, u) in stu_sites(rep):
                d1, d2 = stu_expand(rep, t, u)
                if class_of(d1)[1] == 0 or class_of(d2)[1] == 0:
                    continue
                pos = list(rep.univalent_order).index(u)
                yield rep, d1, d2, pos


def test_stu_ordering_bijection_and_sign_reversing_involution():
    # the transposition of the two new line vertices maps sources of the
    # first resolution onto sources of the second, reversing the
    # rank-comparison sign exactly when one internal edge joins them; on
    # the doubly-trivalent part (empty in degree 2) a second pairing
    # cancels terms outright
    paired = 0
    for rep, d1, d2, pos in _stu_site_cases((2, 3)):
        key_target_2 = _numbered_key(d2, _numbering(d1))
        triples = list(_decorated_sources(d1))
        g1a_keys = set()
        for bcr, rho, sigma, sign in triples:
            assert sign == _term_sign(d1, bcr, rho)
            inv_rho = {r: v for v, r in rho.items()}
            v_g, w_g = inv_rho[pos + 1], inv_rho[pos + 2]
            internal_between = [
                i for i in bcr.internal_edges()
                if {bcr.edges[i][0], bcr.edges[i][1]} == {v_g, w_g}]
            # ordering swap lands in the sources of the other resolution
            rho_star = dict(rho)
            rho_star[v_g], rho_star[w_g] = rho[w_g], rho[v_g]
            assert _triple_member_key(bcr, rho_star, sigma) == key_target_2
            if len(internal_between) == 1:
                assert epsilon2(bcr, rho_star) == -epsilon2(bcr, rho)
            else:
                assert epsilon2(bcr, rho_star) == epsilon2(bcr, rho)

            both_trivalent = (bcr.type_of[v_g] == 2 and bcr.type_of[w_g] == 2)
            if len(internal_between) == 1 and both_trivalent:
                g1a_keys.add(_decorated_key(bcr, rho, sigma))
        # now the sign-reversing involution inside that part
        for bcr, rho, sigma, _sign in triples:
            if _decorated_key(bcr, rho, sigma) not in g1a_keys:
                continue
            inv_rho = {r: v for v, r in rho.items()}
            v_g, w_g = inv_rho[pos + 1], inv_rho[pos + 2]
            legs = bcr.leg_edges()
            e_leg, f_leg = legs[v_g], legs[w_g]
            x_g, y_g = bcr.edges[e_leg][0], bcr.edges[f_leg][0]
            rho_star = dict(rho)
            rho_star[v_g], rho_star[w_g] = rho[w_g], rho[v_g]
            rho_star[x_g], rho_star[y_g] = rho[y_g], rho[x_g]
            sigma_star = dict(sigma)
            sigma_star[e_leg], sigma_star[f_leg] = sigma[f_leg], sigma[e_leg]
            image_key = _decorated_key(bcr, rho_star, sigma_star)
            assert image_key in g1a_keys
            assert _term_sign(d1, bcr, rho_star) == -_term_sign(d1, bcr, rho)
            # twice brings the triple back
            rho_back = dict(rho_star)
            rho_back[v_g], rho_back[w_g] = rho_star[w_g], rho_star[v_g]
            rho_back[x_g], rho_back[y_g] = rho_star[y_g], rho_star[x_g]
            assert rho_back == rho
            paired += 1
    assert paired > 0


def _first_factor_vertices(bcr, rho, m_uni):
    """Vertices matched into the first factor of a product target."""
    out = set()
    legs = bcr.leg_edges()
    for v in bcr.internal_vertices:
        if rho[v] <= m_uni:
            out.add(v)
    for t in bcr.external:
        src = bcr.edges[legs[t]][0]
        if rho[src] <= m_uni:
            out.add(t)
    return out


def _product_involution_step(target, j, bcr, rho, sigma, m_uni):
    """One application of the source-cancelling map for product targets."""
    v1 = _first_factor_vertices(bcr, rho, m_uni)
    v2 = set(range(bcr.nv)) - v1
    # component of the restriction to v2 holding the lowest-numbered edge
    sub_edges = [i for i, (a, b, _c) in enumerate(bcr.edges)
                 if a in v2 and b in v2]
    ext_sub = [i for i in sub_edges if bcr.edges[i][2] == EXTERNAL]
    seed_edge = min(ext_sub, key=lambda i: sigma[i])
    comp = {bcr.edges[seed_edge][0], bcr.edges[seed_edge][1]}
    changed = True
    while changed:
        changed = False
        for i in sub_edges:
            a, b, _c = bcr.edges[i]
            if (a in comp) != (b in comp):
                comp.update((a, b))
                changed = True
    crossing = [i for i in bcr.internal_edges()
                if bcr.edges[i][0] in v1 and bcr.edges[i][1] in comp]
    assert len(crossing) == 1
    e1 = crossing[0]
    v, w = bcr.edges[e1][0], bcr.edges[e1][1]

    if bcr.type_of[w] == 5:
        out_edge = next(i for i, (a, b, c) in enumerate(bcr.edges)
                        if a == w and c == EXTERNAL)
        w2 = bcr.edges[out_edge][1]
        if bcr.type_of[w2] == 4:
            edges = list(bcr.edges)
            edges[e1] = (v, w2, INTERNAL)
            return validate_bcr(bcr.nv, bcr.external, edges), dict(rho), \
                dict(sigma)
        assert bcr.type_of[w2] == 1
        leg_edge = bcr.leg_edges()[w2]
        x = bcr.edges[leg_edge][0]
        rho_star = dict(rho)
        rho_star[x], rho_star[w] = rho[w], rho[x]
        sigma_star = dict(sigma)
        sigma_star[out_edge], sigma_star[leg_edge] = \
            sigma[leg_edge], sigma[out_edge]
        return bcr, rho_star, sigma_star
    assert bcr.type_of[w] == 2
    leg_edge = bcr.leg_edges()[w]
    w1 = bcr.edges[leg_edge][0]
    edges = list(bcr.edges)
    edges[e1] = (v, w1, INTERNAL)
    return validate_bcr(bcr.nv, bcr.external, edges), dict(rho), dict(sigma)


def test_product_sources_cancel_by_involution():
    cases = [(single_chord(), single_chord()),
             (single_chord(), wheel(2)),
             (single_chord(), product(single_chord(), single_chord()))]
    checked = 0
    for d1, d2 in cases:
        target = product(d1, d2)
        if class_of(target)[1] == 0:
            continue
        j = _numbering(target)
        target_key = _numbered_key(target, j)
        triples = list(_decorated_sources(target))
        all_keys = {_decorated_key(b, r, s) for b, r, s, _ in triples}
        m_uni = len(d1.univalent_order)
        for bcr, rho, sigma, sign in triples:
            assert sign == _term_sign(target, bcr, rho)
            key = _decorated_key(bcr, rho, sigma)
            bcr2, rho2, sigma2 = _product_involution_step(
                target, j, bcr, rho, sigma, m_uni)
            assert _triple_member_key(bcr2, rho2, sigma2) == target_key
            key2 = _decorated_key(bcr2, rho2, sigma2)
            assert key2 in all_keys
            assert key2 != key
            assert _term_sign(target, bcr2, rho2) == -sign
            bcr3, rho3, sigma3 = _product_involution_step(
                target, j, bcr2, rho2, sigma2, m_uni)
            assert _decorated_key(bcr3, rho3, sigma3) == key
        assert sum(sign for *_, sign in triples) == 0
        checked += len(triples)
    assert checked > 0
