"""Shared test utilities: random relabelings and small constructions."""

from types import SimpleNamespace

from knotweights import canon, jacobi
from knotweights.bcr import validate_bcr
from knotweights.jacobi import JacobiDiagram
from knotweights.pd import Crossing, PDCode, format_pd


class SearchRan(Exception):
    """Raised by `canonical_form` under `refuse_search`."""


def refuse_search(monkeypatch):
    """Make every canonical labeling search raise `SearchRan`."""
    def refuse(*args, **kwargs):
        raise SearchRan()
    monkeypatch.setattr(canon, "canonical_form", refuse)
    monkeypatch.setattr(jacobi, "canonical_form", refuse)


def shuffled_jacobi(d, rng):
    """The same diagram under a random vertex and edge relabeling."""
    perm = list(range(d.nv))
    rng.shuffle(perm)
    edge_order = list(range(len(d.edges)))
    rng.shuffle(edge_order)
    flip = [rng.random() < 0.5 for _ in edge_order]
    old2new = {old: new for new, old in enumerate(edge_order)}
    edges = []
    for old in edge_order:
        a, b = d.edges[old]
        pair = (perm[b], perm[a]) if flip[old2new[old]] else (perm[a], perm[b])
        edges.append(pair)
    orient = {}
    for v, cyc in d.orient.items():
        new_cyc = []
        for (e, end) in cyc:
            new_end = 1 - end if flip[old2new[e]] else end
            new_cyc.append((old2new[e], new_end))
        r = rng.randrange(3)
        orient[perm[v]] = tuple(new_cyc[r:] + new_cyc[:r])
    numbering = None
    if d.numbering is not None:
        numbering = {old2new[e]: n for e, n in d.numbering.items()}
    return JacobiDiagram(d.nv, [perm[v] for v in d.univalent_order], edges,
                         orient, numbering)


def shuffled_bcr(d, rng):
    perm = list(range(d.nv))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b], cls) for (a, b, cls) in d.edges]
    rng.shuffle(edges)
    return validate_bcr(d.nv, [perm[v] for v in d.external], edges)


# -- knots from Gauss codes -------------------------------------------------
#
# A knot here is (visits, signs): `visits` lists (crossing, over) in the
# order the knot meets its crossings, each crossing once over and once
# under, and `signs` maps each crossing to +-1.


def gauss_crossings(knot):
    """The crossings of a knot's PD code, planar or not: arc i + 1 leaves
    the i-th visit."""
    visits, signs = knot
    m = len(visits)
    under, over = {}, {}
    for i, (c, is_over) in enumerate(visits):
        (over if is_over else under)[c] = (i or m, i + 1)
    crossings = []
    for c in sorted(under):
        (ui, uo), (oi, oo) = under[c], over[c]
        if signs[c] > 0:
            crossings.append(Crossing(ui, oi, uo, oo, 1))
        else:
            crossings.append(Crossing(ui, oo, uo, oi, -1))
    return crossings


def gauss_pd(knot):
    """The PD code of a knot; a virtual Gauss code raises `NotPlanar`."""
    return PDCode(gauss_crossings(knot))


def gauss_text(knot):
    """The PD text of a knot's code, planar or not, for `parse_pd`."""
    return format_pd(SimpleNamespace(crossings=gauss_crossings(knot)))


def _alternating(ids):
    return [(c, i % 2 == 0) for i, c in enumerate(ids)]


def torus_knot(n):
    """T(2,n), n odd: the closed two-braid, met over and under in turn."""
    return _alternating([i % n for i in range(2 * n)]), {i: 1 for i in range(n)}


def twist_knot(m):
    """m half-twists t_0..t_(m-1) and a clasp c1 = m, c2 = m + 1 (3_1, 4_1,
    5_2, 6_1, ... for m = 1, 2, ...), drawn alternating: down the twists,
    round the lower hook through the clasp, up the twists, round the upper
    hook.  The two clasp crossings take the twists' sign for odd m and the
    other for even m, which the orientation of the twisted strands forces."""
    ids = (list(range(m)) + [m, m + 1] + list(reversed(range(m)))
           + ([m, m + 1] if m % 2 else [m + 1, m]))
    signs = {i: 1 for i in range(m)}
    signs[m] = signs[m + 1] = 1 if m % 2 else -1
    return _alternating(ids), signs


def connected_sum(k1, k2):
    """Cut both knots before their first visit and join the ends."""
    (visits1, signs1), (visits2, signs2) = k1, k2
    shift = len(signs1)
    signs = dict(signs1)
    signs.update({c + shift: s for c, s in signs2.items()})
    return visits1 + [(c + shift, o) for c, o in visits2], signs


def random_gauss_knot(n, rng):
    """A Gauss code with n crossings in random order, over/under and signs;
    most are virtual (no planar diagram), and `PDCode` rejects them as not
    planar."""
    ids = [c for c in range(n) for _ in (0, 1)]
    rng.shuffle(ids)
    first_over = {c: rng.random() < 0.5 for c in range(n)}
    seen = set()
    visits = []
    for c in ids:
        visits.append((c, first_over[c] != (c in seen)))
        seen.add(c)
    return visits, {c: rng.choice((1, -1)) for c in range(n)}
