"""Jacobi unitrivalent diagrams on an ordered line of univalent vertices.

A diagram is a loop-free multigraph whose vertices are either univalent
(lying on a totally ordered line) or trivalent (carrying a cyclic order of
their three half-edges).  Half-edges are tokens ``(edge_index, end)`` with
``end`` selecting one of the two entries of ``edges[edge_index]``.

Parallel edges are allowed; they are required by the degree-2 wheel, whose
two rim edges are parallel.  Loops are excluded: a loop at a trivalent
vertex admits an orientation-reversing symmetry, so its class vanishes and
local moves that would create one simply drop the term (see
:func:`class_of`).

A class is named by its canonical key, from which :func:`representative`
draws its default-oriented diagram: no per-class state is kept.
"""

from .canon import canonical_form, edge_map_for_perm
from .errors import (DiagramError, InvalidNumbering, LoopEdge,
                     VertexTypeViolation)


class JacobiDiagram:
    """Immutable-by-convention unitrivalent diagram.

    Fields:
      nv              number of vertices (ids 0..nv-1)
      univalent_order tuple of univalent vertex ids, in line order
      edges           tuple of vertex pairs; pair order is meaningful only
                      when the diagram came from a directed construction
      orient          dict trivalent vertex -> cyclic triple of half-edges
      numbering       optional dict edge index -> label in 1..3k
      record          ``canonicalize``'s ``(key, sign, self)``, set only on
                      the representative it draws
    """

    __slots__ = ("nv", "univalent_order", "edges", "orient", "numbering",
                 "record")

    def __init__(self, nv, univalent_order, edges, orient, numbering=None,
                 validate=True):
        self.nv = nv
        self.univalent_order = tuple(univalent_order)
        self.edges = tuple((u, v) for (u, v) in edges)
        self.orient = {v: tuple(c) for v, c in orient.items()}
        self.numbering = dict(numbering) if numbering else None
        self.record = None
        if validate:
            self._validate()

    # -- basic structure ----------------------------------------------------

    def incident(self, v):
        halves = []
        for i, (a, b) in enumerate(self.edges):
            if a == v:
                halves.append((i, 0))
            if b == v:
                halves.append((i, 1))
        return halves

    @property
    def univalent(self):
        return set(self.univalent_order)

    @property
    def trivalent(self):
        uni = self.univalent
        return [v for v in range(self.nv) if v not in uni]

    @property
    def degree(self):
        return self.nv // 2

    def _validate(self):
        if self.nv % 2 != 0:
            raise VertexTypeViolation(self.nv - 1, "odd vertex count")
        ids = [v for pair in self.edges for v in pair]
        for v in ids + list(self.univalent_order):
            if type(v) is not int:
                raise VertexTypeViolation(v, "the id is not an integer")
            if not 0 <= v < self.nv:
                raise VertexTypeViolation(
                    v, f"not among the vertex ids 0..{self.nv - 1}")
        uni, order = self.univalent, self.univalent_order
        if len(uni) != len(order):
            repeat = next(v for i, v in enumerate(order) if v in order[:i])
            raise VertexTypeViolation(repeat, "univalent order has repeats")
        deg = [0] * self.nv
        for i, (a, b) in enumerate(self.edges):
            if a == b:
                raise LoopEdge(i)
            deg[a] += 1
            deg[b] += 1
        for v in range(self.nv):
            want = 1 if v in uni else 3
            if deg[v] != want:
                raise VertexTypeViolation(v, f"valence {deg[v]} != {want}")
        for v in self.trivalent:
            cyc = self.orient.get(v)
            if cyc is None or sorted(cyc) != sorted(self.incident(v)):
                raise VertexTypeViolation(v, "bad cyclic orientation")
        for v in self.orient:
            if v in uni or v not in range(self.nv):
                raise VertexTypeViolation(v, "oriented but not trivalent")
        if self.numbering is not None:
            labels = list(self.numbering.values())
            bound = 3 * self.degree
            if (len(self.numbering) != len(self.edges)
                    or len(set(labels)) != len(labels)
                    or any(not (1 <= x <= bound) for x in labels)):
                raise InvalidNumbering(
                    f"numbering must inject edges into 1..{bound}")

    # -- components and shape ----------------------------------------------

    def components(self):
        """Connected components as sorted vertex lists."""
        parent = list(range(self.nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b) in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for v in range(self.nv):
            comps.setdefault(find(v), []).append(v)
        return sorted(comps.values())

    def is_connected(self):
        return self.nv == 0 or len(self.components()) == 1

    def is_chord_diagram(self):
        return len(self.univalent_order) == self.nv

    def has_trivalent_component(self):
        uni = self.univalent
        return any(not (set(c) & uni) for c in self.components())

    def chords(self):
        """Chord endpoints as 1-based line positions (chord diagrams only)."""
        pos = {v: i + 1 for i, v in enumerate(self.univalent_order)}
        return [tuple(sorted((pos[a], pos[b]))) for (a, b) in self.edges]

    def product_split(self):
        """Split as a product d1 x d2 with d1 connected, or None.

        A diagram is a non-trivial product when its components can be
        grouped into two non-empty diagrams with all univalent vertices of
        the first before all of the second.  Testing the first connected
        group against every cut position is enough because products are
        associative.
        """
        if self.nv == 0:
            return None
        comps = self.components()
        if len(comps) < 2:
            return None
        pos = {v: i for i, v in enumerate(self.univalent_order)}
        nu = len(self.univalent_order)
        for cut in range(nu + 1):
            left, right = [], []
            ok = True
            for comp in comps:
                ps = sorted(pos[v] for v in comp if v in pos)
                if not ps:
                    ok = False  # trivalent components spoil the split here
                    break
                if ps[-1] < cut:
                    left.append(comp)
                elif ps[0] >= cut:
                    right.append(comp)
                else:
                    ok = False
                    break
            if ok and left and right:
                return (sorted(sum(left, [])), sorted(sum(right, [])))
        return None

    # -- rebuilding helpers --------------------------------------------------

    def relabeled(self, perm, edge_order=None):
        """Apply a vertex relabeling (and optional edge reordering)."""
        edge_idxs = edge_order if edge_order is not None else range(len(self.edges))
        old2new = {old: new for new, old in enumerate(edge_idxs)}
        edges = [(perm[self.edges[i][0]], perm[self.edges[i][1]]) for i in edge_idxs]
        orient = {}
        for v, cyc in self.orient.items():
            orient[perm[v]] = tuple((old2new[e], end) for (e, end) in cyc)
        numbering = None
        if self.numbering is not None:
            numbering = {old2new[e]: n for e, n in self.numbering.items()}
        return JacobiDiagram(self.nv, [perm[v] for v in self.univalent_order],
                             edges, orient, numbering, validate=False)


def default_orientation(nv, univalent_order, edges):
    """Cyclic orders listing each trivalent vertex's half-edges ascending."""
    uni = set(univalent_order)
    halves = {v: [] for v in range(nv) if v not in uni}
    for i, (a, b) in enumerate(edges):
        if a in halves:
            halves[a].append((i, 0))
        if b in halves:
            halves[b].append((i, 1))
    return {v: tuple(sorted(h)) for v, h in halves.items()}


def make_diagram(nv, univalent_order, edges, orient=None, numbering=None):
    if orient is None:
        orient = default_orientation(nv, univalent_order, edges)
    return JacobiDiagram(nv, univalent_order, edges, orient, numbering)


def validate_jacobi(g):
    """Re-validate a diagram built elsewhere (identity on success)."""
    return JacobiDiagram(g.nv, g.univalent_order, g.edges, g.orient,
                         g.numbering, validate=True)


# -- stock diagrams ---------------------------------------------------------

def empty_diagram():
    return JacobiDiagram(0, (), (), {})


def chord_diagram(pairs):
    """Chord diagram from 1-based position pairs covering 1..2k."""
    points = sorted(p for pair in pairs for p in pair)
    n = len(points)
    if points != list(range(1, n + 1)):
        raise VertexTypeViolation(points[0] if points else 0,
                                  "chord endpoints must cover 1..2k")
    edges = [(a - 1, b - 1) for (a, b) in pairs]
    return make_diagram(n, range(n), edges)


def single_chord():
    return chord_diagram([(1, 2)])


def theta_graph():
    return make_diagram(2, (), [(0, 1), (0, 1), (0, 1)])


def wheel(k):
    """Degree-k wheel: a k-cycle of trivalent vertices, one spoke each.

    Univalent vertices sit at line positions 1..k; trivalent vertex i is
    joined to univalent i by a spoke and to its cyclic neighbors by rim
    edges.  Each rim vertex is oriented (rim-in, rim-out, spoke), the cyclic
    order induced when the rim is traversed as a directed cycle; this is the
    orientation the cycle-with-legs construction induces on its sources.
    """
    if k < 2:
        raise DiagramError(f"no wheel of degree {k}: wheels need k >= 2")
    uni = list(range(k))
    tri = list(range(k, 2 * k))
    edges = [(uni[i], tri[i]) for i in range(k)]            # spokes 0..k-1
    edges += [(tri[i], tri[(i + 1) % k]) for i in range(k)]  # rim k..2k-1
    orient = {}
    for i in range(k):
        spoke = (i, 1)
        rim_out = (k + i, 0)
        rim_in = (k + (i - 1) % k, 1)
        orient[tri[i]] = (rim_in, rim_out, spoke)
    return JacobiDiagram(2 * k, uni, edges, orient)


def product(d1, d2):
    """Disjoint union with all univalent vertices of d1 before those of d2."""
    shift = d1.nv
    eshift = len(d1.edges)
    edges = list(d1.edges) + [(a + shift, b + shift) for (a, b) in d2.edges]
    orient = dict(d1.orient)
    for v, cyc in d2.orient.items():
        orient[v + shift] = tuple((e + eshift, end) for (e, end) in cyc)
    order = list(d1.univalent_order) + [v + shift for v in d2.univalent_order]
    return JacobiDiagram(d1.nv + d2.nv, order, edges, orient, validate=False)


def flipped(d, v):
    """Reverse the cyclic orientation at trivalent vertex v."""
    orient = dict(d.orient)
    a, b, c = orient[v]
    orient[v] = (a, c, b)
    return JacobiDiagram(d.nv, d.univalent_order, d.edges, orient,
                         d.numbering, validate=False)


# -- canonical classes ------------------------------------------------------

def _colors(d):
    pos = {v: i for i, v in enumerate(d.univalent_order)}
    colors = []
    for v in range(d.nv):
        colors.append(("u", pos[v]) if v in pos else ("t",))
    return colors


def _edge_tags(d, with_numbering):
    if with_numbering and d.numbering is not None:
        return [d.numbering[i] for i in range(len(d.edges))]
    return [0] * len(d.edges)


def _cyclic_parity(triple):
    a, b, c = triple
    if a < b < c or b < c < a or c < a < b:
        return 1
    return -1


def _orientation_sign(d, entries, perm):
    """Sign of d's orientation against the default in the labels `perm`."""
    _, emap = edge_map_for_perm(entries, perm)
    s = 1
    for v, cyc in d.orient.items():
        moved = tuple((emap[e], 0 if perm[d.edges[e][end]] == max(
            perm[d.edges[e][0]], perm[d.edges[e][1]]) else 1)
            for (e, end) in cyc)
        s *= _cyclic_parity(moved)
    return s


def class_of(d, with_numbering=False):
    """Canonical class of an oriented diagram: ``(key, sign)``.

    The key identifies the diagram up to isomorphisms preserving the line
    order and (optionally) the edge numbering, with trivalent orientations
    forgotten.  The sign compares the given orientation with the class
    default (ascending half-edges at every vertex in canonical labels),
    read in one minimizing labeling.  Relabeling by an automorphism
    multiplies it by a character of the automorphism group, so it is 0
    exactly when some generator of that group reverses an odd number of
    vertices, in which case the class vanishes by antisymmetry.  A
    representative that carries its record answers without a search.
    """
    if d.record is not None:
        return d.record[:2]
    if any(a == b for (a, b) in d.edges):
        return None, 0
    tags = _edge_tags(d, with_numbering)
    entries = [(u, v, tags[i]) for i, (u, v) in enumerate(d.edges)]
    key, perm, gens = canonical_form(d.nv, _colors(d), entries)
    sign = _orientation_sign(d, entries, perm)
    for g in gens:
        if _orientation_sign(d, entries, [perm[w] for w in g]) != sign:
            return key, 0
    return key, sign


def automorphisms(d):
    """Generators of Aut(d): the vertex permutations that keep the line
    order and the edges with their multiplicities, orientations forgotten.
    Swaps of parallel edges fix every vertex and are not listed."""
    entries = [(u, v, 0) for (u, v) in d.edges]
    return canonical_form(d.nv, _colors(d), entries)[2]


def representative(key):
    """A class's default-oriented representative, drawn from its key alone.

    Drawn in canonical labels with its edges in token order, the identity
    is a minimizing labeling under which its ascending orientation is the
    class default: its sign is 1 unless the class vanishes."""
    slot_colors, tokens = key
    order = [i for i, c in enumerate(slot_colors) if c[0] == "u"]
    order.sort(key=lambda i: slot_colors[i][1])
    edges = [(tok[1], tok[0]) for tok in tokens]
    return JacobiDiagram(len(slot_colors), order, edges,
                         default_orientation(len(slot_colors), order, edges),
                         validate=False)


def canonicalize(d):
    """Return ``(key, sign, representative)``, the record on the drawing.

    The representative is drawn even when the class vanishes (sign 0), so
    enumerations can list it; only loop-carrying diagrams have no class at
    all and come back as ``(None, 0, None)``.  A representative carries
    its own record, so canonicalizing that same object again runs no
    search; copies of it, relabeled or flipped, are new objects and are
    canonicalized afresh.
    """
    if d.record is not None:
        return d.record
    key, sign = class_of(d)
    if key is None:
        return None, 0, None
    rep = representative(key)
    rep.record = (key, 1 if sign else 0, rep)
    return key, sign, rep


def key_bytes(key):
    """Stable byte form of a canonical key, for golden files and hashing."""
    return repr(key).encode("ascii")


# -- local moves ------------------------------------------------------------

def stu_sites(d):
    """All (trivalent vertex, univalent vertex) pairs joined by an edge."""
    uni = d.univalent
    sites = []
    for u in d.univalent_order:
        (e, end), = d.incident(u)
        t = d.edges[e][1 - end]
        if t not in uni:
            sites.append((t, u))
    return sites


def _rotate_to(cyc, first):
    i = cyc.index(first)
    return cyc[i:] + cyc[:i]


def _moved(d, moves):
    """d's edges as lists, each half-edge in `moves` re-ended at its vertex."""
    edges = [list(pair) for pair in d.edges]
    for (e, end), v in moves:
        edges[e][end] = v
    return edges


def stu_expand(d, t, u):
    """Resolve trivalent vertex t against its univalent neighbor u.

    Returns (d1, d2) with [d] = [d1] - [d2].  The two new line vertices
    reuse the labels t (the earlier) and u (the later), and the edge
    joining t and u is dropped.  Writing the cyclic order at t as
    (edge-to-u, alpha, beta), d1 keeps alpha at t and moves beta to u; d2
    keeps beta at t and moves alpha to u.  Both terms share their edge
    indices.
    """
    ((eu, end_u),) = d.incident(u)
    _, alpha, beta = _rotate_to(d.orient[t], (eu, 1 - end_u))
    i = d.univalent_order.index(u)
    order = d.univalent_order[:i] + (t,) + d.univalent_order[i:]
    orient = {v: tuple((e - 1 if e > eu else e, end) for (e, end) in cyc)
              for v, cyc in d.orient.items() if v != t}

    def term(moving):
        edges = _moved(d, [(moving, u)])
        del edges[eu]
        return JacobiDiagram(d.nv, order, edges, orient, validate=False)

    return term(beta), term(alpha)


def ihx_terms(d, edge_idx):
    """The H and X companions of d at an internal edge (both ends trivalent).

    With the cyclic orders written (g, p, q) at one end a and (g, r, s) at
    the other end b, the relation [I] - [H] + [X] = 0 holds where H moves r
    to a and p to b, carrying (g, q, r) and (g, s, p), and X moves s to a
    and p to b, carrying (g, q, s) and (g, r, p).  Every vertex and edge
    keeps its label.
    """
    a, b = d.edges[edge_idx]
    g_a, p, q = _rotate_to(d.orient[a], (edge_idx, 0))
    g_b, r, s = _rotate_to(d.orient[b], (edge_idx, 1))

    def term(to_a, cyc_a, cyc_b):
        orient = dict(d.orient)
        orient[a], orient[b] = cyc_a, cyc_b
        return JacobiDiagram(d.nv, d.univalent_order,
                             _moved(d, [(to_a, a), (p, b)]), orient,
                             validate=False)

    return (term(r, (g_a, q, r), (g_b, s, p)),
            term(s, (g_a, q, s), (g_b, r, p)))


def internal_edges(d):
    uni = d.univalent
    return [i for i, (a, b) in enumerate(d.edges)
            if a not in uni and b not in uni]
