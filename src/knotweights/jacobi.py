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
draws its default-oriented diagram: no per-class state is kept beyond the
record and the automorphism generators that a representative drawn by a
search, or joined from its parts, carries (:func:`drawn`, :func:`joined`).
The representatives an enumeration holds share their parts: `kept`,
through which `drawn`, `joined` and `canonicalize` draw them, takes every
part from one pool (`_POOL`), and it alone writes the pool.  Equal parts
are interchangeable, so keys keep their equality, repr, hash and order.
The pool is bounded by the distinct parts, not by the classes: the 635
degree-4 representatives use 267 and the 8,018 degree-5 ones 547 (652 in
the pool once degrees 1-5 are listed).  No held part is ever mutated:
each is a tuple, and a representative's orientation dict, its own, is
only read (`flipped` and the local moves copy it).
Every search runs in :func:`class_of_parts`, on a diagram's parts: line
order, edges, cyclic orders and, for a numbered diagram, edge tags.
`class_of`, `canonicalize` and `automorphisms` pass a diagram's parts, the
enumeration a candidate's edge list, and the local moves their terms,
with no diagram built (`stu_parts`, `ihx_parts`; `stu_expand` and
`ihx_terms` wrap them).  The orientation sign is read off the labeling,
with no edge map.  Products and trivalent vertices without a leg, on
which wc' vanishes, are decided here alone
(:meth:`JacobiDiagram.product_split`, ``has_legless_vertex``).

The key of a class with a closed part is read and written by parts: the
closed part takes the first slots, its components in the order of their
tokens, and the line part follows, shifted (`_closed_slots`, `_line_key`,
`_joined`).  The relator listing joins STU rows this way, and the
enumeration draws such classes from their parts with no search
(`joined`); the proofs are in `relations` (rule 3) and `enumerate`.
"""

from .canon import canonical_form
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
      record          ``class_of``'s ``(key, sign)``, set only on a
                      representative drawn from its key by a search (in
                      ``canonicalize`` or ``enumerate_jacobi``) or joined
                      from its parts (``joined``)
      aut             generators of Aut(self), a tuple, set with
                      ``record``
    """

    __slots__ = ("nv", "univalent_order", "edges", "orient", "numbering",
                 "record", "aut")

    def __init__(self, nv, univalent_order, edges, orient, numbering=None,
                 validate=True):
        self.nv = nv
        self.univalent_order = tuple(univalent_order)
        self.edges = tuple((u, v) for (u, v) in edges)
        self.orient = {v: tuple(c) for v, c in orient.items()}
        self.numbering = None if numbering is None else dict(numbering)
        self.record = self.aut = None
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
            seen = set()
            for v in order:
                if v in seen:
                    raise VertexTypeViolation(v, "univalent order has repeats")
                seen.add(v)
        halves = [[] for _ in range(self.nv)]
        for i, (a, b) in enumerate(self.edges):
            if a == b:
                raise LoopEdge(i)
            halves[a].append((i, 0))
            halves[b].append((i, 1))
        for v in range(self.nv):
            want = 1 if v in uni else 3
            if len(halves[v]) != want:
                raise VertexTypeViolation(
                    v, f"valence {len(halves[v])} != {want}")
        for v in self.trivalent:
            cyc = self.orient.get(v)
            if cyc is None or sorted(cyc) != halves[v]:
                raise VertexTypeViolation(v, "bad cyclic orientation")
        for v in self.orient:
            if v in uni or v not in range(self.nv):
                raise VertexTypeViolation(v, "oriented but not trivalent")
        if self.numbering is not None:
            keys, labels = list(self.numbering), list(self.numbering.values())
            bound = 3 * self.degree
            if (any(type(x) is not int for x in keys + labels)
                    or sorted(keys) != list(range(len(self.edges)))
                    or len(set(labels)) != len(labels)
                    or any(not (1 <= x <= bound) for x in labels)):
                raise InvalidNumbering(
                    f"numbering must inject the edges 0..{len(self.edges) - 1}"
                    f" into the integers 1..{bound}")

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

    def component_map(self):
        """The components and, for each vertex, its component's index."""
        comps = self.components()
        comp_of = [0] * self.nv
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        return comps, comp_of

    def is_connected(self):
        return self.nv == 0 or len(self.components()) == 1

    def is_chord_diagram(self):
        return len(self.univalent_order) == self.nv

    def has_trivalent_component(self, comps=None):
        """Whether a component is purely trivalent; `comps` may pass the
        components already walked."""
        uni = self.univalent
        return any(uni.isdisjoint(c) for c in comps or self.components())

    def has_legless_vertex(self):
        """Whether some trivalent vertex has no leg, an edge to a univalent
        vertex.  wc, wc' and wbcr all vanish then (proofs in `conway` and
        `bridge`); a purely trivalent component is the case where no
        vertex of the component has one."""
        uni = [False] * self.nv
        for v in self.univalent_order:
            uni[v] = True
        legged = uni[:]
        for a, b in self.edges:
            if uni[a]:
                legged[b] = True
            elif uni[b]:
                legged[a] = True
        return not all(legged)

    def chords(self):
        """Chord endpoints as 1-based line positions (chord diagrams only)."""
        pos = {v: i + 1 for i, v in enumerate(self.univalent_order)}
        return [tuple(sorted((pos[a], pos[b]))) for (a, b) in self.edges]

    def product_split(self, component_map=None):
        """Split as a product d1 x d2 with d1 connected, or None.

        A diagram is a non-trivial product when its components can be
        grouped into two non-empty diagrams with all univalent vertices of
        the first before all of the second; a purely trivalent component
        spoils every split.  The cut falls after the first line position,
        short of the last, that no component met so far reaches past; the
        first group suffices because products are associative.
        `component_map` may pass `component_map()` already walked.
        """
        comps, comp_of = component_map or self.component_map()
        last = {comp_of[v]: p for p, v in enumerate(self.univalent_order)}
        if len(last) < len(comps):
            return None
        reach = -1
        for p, v in enumerate(self.univalent_order[:-1]):
            reach = max(reach, last[comp_of[v]])
            if reach == p:
                left = [w for w in range(self.nv) if last[comp_of[w]] <= p]
                right = [w for w in range(self.nv) if last[comp_of[w]] > p]
                return left, right
        return None


def default_orientation(nv, univalent_order, edges):
    """Cyclic orders listing each trivalent vertex's half-edges ascending
    (`_halves`)."""
    uni = set(univalent_order)
    return {v: tuple(h) for v, h in enumerate(_halves(nv, edges))
            if v not in uni}


def make_diagram(nv, univalent_order, edges, orient=None, numbering=None):
    if orient is None:
        try:
            orient = default_orientation(nv, univalent_order, edges)
        except (IndexError, TypeError):
            orient = {}  # an id off 0..nv-1: the validation names it
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

def _line_colors(nv, order):
    """Vertex colors: ``("u", p)`` at line position p, ``("t",)`` off it."""
    colors = [("t",)] * nv
    for p, v in enumerate(order):
        colors[v] = ("u", p)
    return colors


def _cyclic_parity(triple):
    a, b, c = triple
    if a < b < c or b < c < a or c < a < b:
        return 1
    return -1


def _cycles_sign(edges, cycles, tags, perm):
    """Sign of the cyclic orders `cycles`, one half-edge triple per
    trivalent vertex, against the default in the labels `perm`.  The
    default lists a vertex's edges in canonical slot order; they all have
    the vertex's slot at one end, so they sort by the other end's slot,
    then by tag, parallel edges by edge index."""
    s = 1
    for cyc in cycles:
        s *= _cyclic_parity([(perm[edges[e][1 - end]], tags[e], e)
                             for (e, end) in cyc])
    return s


def class_of_parts(nv, order, edges, cycles, tags=None):
    """The class of the loop-free diagram with the line order `order`, the
    edges `edges` and the cyclic orders `cycles` (one half-edge triple per
    trivalent vertex), with no diagram built: ``(key, sign, perm, gens)``,
    the canonical key, the sign of `cycles` read in the minimizing labeling
    ``perm`` (0 when a generator of Aut reverses it), and the generators
    ``gens``.  `tags`, one per edge (a numbering), are kept by every
    isomorphism; they default to none.  Every Jacobi class search runs
    here."""
    if tags is None:
        tags = [0] * len(edges)
    entries = [(a, b, tags[i]) for i, (a, b) in enumerate(edges)]
    key, perm, gens = canonical_form(nv, _line_colors(nv, order), entries)
    sign = _cycles_sign(edges, cycles, tags, perm)
    for g in gens:
        if _cycles_sign(edges, cycles, tags, [perm[w] for w in g]) != sign:
            return key, 0, perm, gens
    return key, sign, perm, gens


def class_of(d):
    """Canonical class of an oriented diagram: ``(key, sign)``.

    The key identifies the diagram up to isomorphisms preserving the line
    order, with trivalent orientations forgotten.  The sign compares the
    given orientation with the class default (ascending half-edges at
    every vertex in canonical labels), read in one minimizing labeling.
    Relabeling by an automorphism multiplies it by a character of the
    automorphism group, so it is 0 exactly when some generator of that
    group reverses an odd number of vertices, in which case the class
    vanishes by antisymmetry.  A representative that carries its record
    answers without a search.
    """
    if d.record is not None:
        return d.record
    if any(a == b for (a, b) in d.edges):
        return None, 0
    return class_of_parts(d.nv, d.univalent_order, d.edges,
                          d.orient.values())[:2]


def _halves(nv, edges):
    """Each vertex's half-edges in edge order, which is ascending order:
    the default orientation of a loop-free diagram, in one pass."""
    halves = [[] for _ in range(nv)]
    for i, (a, b) in enumerate(edges):
        halves[a].append((i, 0))
        halves[b].append((i, 1))
    return halves


def automorphisms(d):
    """Generators of Aut(d): the vertex permutations that keep the line
    order and the edges with their multiplicities, orientations forgotten.
    Swaps of parallel edges fix every vertex and are not listed.  A
    representative drawn by a search keeps the generators it found."""
    if d.aut is not None:
        return d.aut
    return class_of_parts(d.nv, d.univalent_order, d.edges, ())[3]


def representative(key):
    """A class's default-oriented representative, drawn from its key alone.

    Drawn in canonical labels with its edges in token order, the identity
    is a minimizing labeling under which its ascending orientation is the
    class default: its sign is 1 unless the class vanishes.  Slots sort by
    color, so the trivalent vertices take the first slots and the line
    vertices the rest, in line order."""
    slot_colors, tokens = key
    nv = len(slot_colors)
    t = slot_colors.count(("t",))
    edges = [(tok[1], tok[0]) for tok in tokens]
    return JacobiDiagram(nv, range(t, nv), edges,
                         dict(enumerate(_halves(nv, edges)[:t])),
                         validate=False)


def drawn(key, sign, perm, gens):
    """The representative of `key` that a search found in ``(key, sign,
    perm, gens)``, carrying its record, so its class is known without a
    search, and the generators of its automorphism group: conjugated by
    the labeling, g' = perm g perm^-1 maps slot s to perm[g[perm^-1[s]]]."""
    inv = [0] * len(perm)
    for v, s in enumerate(perm):
        inv[s] = v
    return kept(key, sign, [tuple(perm[g[v]] for v in inv) for g in gens])


class _Pool(dict):
    """Each part, a tuple, mapped to the one copy of it that held
    representatives share; a part first seen is kept with its tuple items
    pooled in turn.  `kept` is its only writer."""

    def __missing__(self, part):
        part = tuple([self[x] if type(x) is tuple else x for x in part])
        self[part] = part
        return part


_POOL = _Pool()


def kept(key, sign, gens):
    """The representative of `key` carrying its record ``(key, sign)``,
    with `sign` 0 when the class vanishes and 1 otherwise, and `gens`,
    generators of its automorphism group in canonical slots, as a tuple.
    Every part it holds is the pool's copy: its key's slot colors and
    tokens, its line order, edge pairs, orientation triples and
    generators."""
    pooled = _POOL.__getitem__
    colors, tokens = key
    key = (pooled(colors), tuple(map(pooled, tokens)))
    rep = representative(key)
    rep.univalent_order = pooled(rep.univalent_order)
    rep.edges = tuple(map(pooled, rep.edges))
    rep.orient = {v: pooled(cyc) for v, cyc in rep.orient.items()}
    rep.record = (key, 1 if sign else 0)
    rep.aut = tuple(map(pooled, gens))
    return rep


def canonicalize(d):
    """Return ``(key, sign, representative)``: the class, and its
    representative carrying its record.

    The representative is drawn even when the class vanishes (sign 0), so
    enumerations can list it; only loop-carrying diagrams have no class at
    all and come back as ``(None, 0, None)``.  A representative carries
    its own record, so canonicalizing that same object again runs no
    search; copies of it, relabeled or flipped, are new objects and are
    canonicalized afresh.
    """
    if d.record is not None:
        return d.record + (d,)
    if any(a == b for (a, b) in d.edges):
        return None, 0, None
    key, sign, perm, gens = class_of_parts(d.nv, d.univalent_order, d.edges,
                                           d.orient.values())
    return key, sign, drawn(key, sign, perm, gens)


def key_bytes(key):
    """Stable byte form of a canonical key, for golden files and hashing."""
    return repr(key).encode("ascii")


# -- keys of classes with a closed part --------------------------------------

def _closed_slots(key):
    """The number of slots of a class's closed part, read off its key.
    The closed part takes the first slots, so it is the longest run of
    trivalent slots 0..c-1 whose 3c half-edges the first 3c/2 tokens, the
    ones whose larger slot is below c, pair among themselves."""
    colors, tokens = key
    closed = inside = 0
    for c in range(1, colors.count(("t",)) + 1):
        while inside < len(tokens) and tokens[inside][0] < c:
            inside += 1
        if 2 * inside == 3 * c:
            closed = c
    return closed


def _line_key(key, closed):
    """The key of the line part of a class whose closed part, in its first
    `closed` slots, has the first ``3 * closed / 2`` tokens of `key`."""
    colors, tokens = key
    return colors[closed:], _shifted(tokens[3 * closed // 2:], -closed)


def _shifted(tokens, by):
    return tuple((hi + by, lo + by, tag) for hi, lo, tag in tokens)


def _joined(closed_tokens, line_key):
    """The key of the class whose closed part has the tokens
    `closed_tokens` and whose line part has the key `line_key`: the closed
    tokens, then the line tokens shifted past the closed slots."""
    if not closed_tokens:
        return line_key
    closed = 2 * len(closed_tokens) // 3
    colors, tokens = line_key
    return ((("t",),) * closed + colors,
            closed_tokens + _shifted(tokens, closed))


def _lifted(g, at, n):
    """The permutation of slots 0..n-1 that moves the block of slots from
    `at` on by `g`, a permutation of the block's own slots."""
    perm = list(range(n))
    perm[at:at + len(g)] = [at + s for s in g]
    return tuple(perm)


def joined(closed, line):
    """The representative of the class whose closed part has the
    components of `closed`, representatives of connected closed classes,
    and whose line part is the representative `line`, drawn with no
    search.  The components take their slots in the order of their
    tokens, each shifted; the class vanishes when a part does; its
    automorphisms are generated by each part's, moved to its slots, and
    the swaps of adjacent equal components (the proofs are in the
    `enumerate` docstring)."""
    closed = sorted(closed, key=lambda rep: rep.record[0][1])
    n = sum(rep.nv for rep in closed) + line.nv
    tokens, sign, gens = (), line.record[1], []
    at, before = 0, None
    for rep in closed:
        own = rep.record[0][1]
        c = rep.nv
        tokens += _shifted(own, at)
        sign *= rep.record[1]
        gens += [_lifted(g, at, n) for g in rep.aut]
        if own == before:
            gens.append(_lifted(tuple(range(c, 2 * c)) + tuple(range(c)),
                                at - c, n))
        at, before = at + c, own
    gens += [_lifted(g, at, n) for g in line.aut]
    return kept(_joined(tokens, line.record[0]), sign, gens)


# -- local moves ------------------------------------------------------------

def stu_sites(d):
    """All (trivalent vertex, univalent vertex) pairs joined by an edge, in
    line order, read off one map from each vertex to a neighbour (a
    univalent vertex has one)."""
    far = [None] * d.nv
    for a, b in d.edges:
        far[a], far[b] = b, a
    uni = d.univalent
    return [(far[u], u) for u in d.univalent_order if far[u] not in uni]


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
    order, terms, orient = stu_parts(d, t, u)
    return tuple(JacobiDiagram(d.nv, order, edges, orient, validate=False)
                 for edges in terms)


def stu_parts(d, t, u):
    """`stu_expand`'s two terms as parts, with no diagram built:
    ``(order, (edges1, edges2), orient)``, the line order and the cyclic
    orders both terms share and each term's edge list."""
    ((eu, end_u),) = d.incident(u)
    _, alpha, beta = _rotate_to(d.orient[t], (eu, 1 - end_u))
    i = d.univalent_order.index(u)
    order = d.univalent_order[:i] + (t,) + d.univalent_order[i:]
    orient = {v: tuple((e - 1 if e > eu else e, end) for (e, end) in cyc)
              for v, cyc in d.orient.items() if v != t}

    def term(moving):
        edges = _moved(d, [(moving, u)])
        del edges[eu]
        return edges

    return order, (term(beta), term(alpha)), orient


def ihx_terms(d, edge_idx):
    """The H and X companions of d at an internal edge (both ends trivalent).

    With the cyclic orders written (g, p, q) at one end a and (g, r, s) at
    the other end b, the relation [I] - [H] + [X] = 0 holds where H moves r
    to a and p to b, carrying (g, q, r) and (g, s, p), and X moves s to a
    and p to b, carrying (g, q, s) and (g, r, p).  Every vertex and edge
    keeps its label.
    """
    return tuple(JacobiDiagram(d.nv, d.univalent_order, edges, orient,
                               validate=False)
                 for edges, orient in ihx_parts(d, edge_idx))


def ihx_parts(d, edge_idx):
    """`ihx_terms`' H and X as parts, with no diagram built: ``(edges,
    orient)`` each."""
    a, b = d.edges[edge_idx]
    g_a, p, q = _rotate_to(d.orient[a], (edge_idx, 0))
    g_b, r, s = _rotate_to(d.orient[b], (edge_idx, 1))

    def term(to_a, cyc_a, cyc_b):
        orient = dict(d.orient)
        orient[a], orient[b] = cyc_a, cyc_b
        return _moved(d, [(to_a, a), (p, b)]), orient

    return (term(r, (g_a, q, r), (g_b, s, p)),
            term(s, (g_a, q, s), (g_b, r, p)))


def internal_edges(d):
    uni = d.univalent
    return [i for i, (a, b) in enumerate(d.edges)
            if a not in uni and b not in uni]
