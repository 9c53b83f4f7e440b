"""Directed diagrams made of one cycle with legs, in two edge flavors.

Vertices are internal or external, edges internal or external, and every
vertex matches one of five local patterns:

  1. external, two incoming external edges (exactly one from a univalent
     vertex) and one outgoing external edge;
  2. internal trivalent, internal in, internal out, and an incoming
     external edge from a univalent vertex;
  3. internal univalent with one outgoing external edge;
  4. internal bivalent, external in, internal out;
  5. internal bivalent, internal in, external out.

Together with connectedness these force the shape "directed cycle plus
legs": every vertex has out-degree one, legs are single external edges from
univalent vertices into the trivalent cycle vertices, and transitions
between the internal and external parts of the cycle pair up the type-4 and
type-5 vertices.
"""

from .canon import canonical_form
from .errors import (CycleStructureViolation, Disconnected, EmptyGraph,
                     LoopEdge, VertexTypeViolation)

INTERNAL = "int"
EXTERNAL = "ext"


class BCRDiagram:
    """Validated diagram; construct through :func:`validate_bcr`."""

    __slots__ = ("nv", "external", "edges", "type_of", "cycle", "legs")

    def __init__(self, nv, external, edges, type_of, cycle, legs):
        self.nv = nv
        self.external = frozenset(external)
        self.edges = tuple(edges)
        self.type_of = dict(type_of)
        self.cycle = tuple(cycle)
        self.legs = dict(legs)

    @property
    def degree(self):
        return self.nv // 2

    @property
    def internal_vertices(self):
        return [v for v in range(self.nv) if v not in self.external]

    def external_edges(self):
        return [i for i, e in enumerate(self.edges) if e[2] == EXTERNAL]

    def internal_edges(self):
        return [i for i, e in enumerate(self.edges) if e[2] == INTERNAL]

    def n_trivalent(self):
        return sum(1 for t in self.type_of.values() if t in (1, 2))

    def leg_edges(self):
        """Edge index of each leg, keyed by its trivalent target."""
        out = {}
        for i, (a, b, cls) in enumerate(self.edges):
            if cls == EXTERNAL and self.type_of[a] == 3:
                out[b] = i
        return out


def validate_bcr(nv, external, edges):
    """Check the five local patterns and the cycle/leg decomposition.

    `edges` lists (tail, head, cls) triples.  Returns a BCRDiagram carrying
    the per-vertex type tags and the decomposition.
    """
    if nv == 0:
        raise EmptyGraph("diagram must be non-empty")
    external = frozenset(external)
    for i, (a, b, cls) in enumerate(edges):
        if a == b:
            raise LoopEdge(i)

    in_int = {v: [] for v in range(nv)}
    in_ext = {v: [] for v in range(nv)}
    out_int = {v: [] for v in range(nv)}
    out_ext = {v: [] for v in range(nv)}
    seen_pairs = set()
    for i, (a, b, cls) in enumerate(edges):
        if (a, b) in seen_pairs:
            raise VertexTypeViolation(a, "two edges with the same direction")
        seen_pairs.add((a, b))
        (out_int if cls == INTERNAL else out_ext)[a].append(i)
        (in_int if cls == INTERNAL else in_ext)[b].append(i)

    def degree(v):
        return (len(in_int[v]) + len(in_ext[v])
                + len(out_int[v]) + len(out_ext[v]))

    type_of = {}
    for v in range(nv):
        ii, ie, oi, oe = (len(in_int[v]), len(in_ext[v]),
                          len(out_int[v]), len(out_ext[v]))
        if v in external:
            if (ii, ie, oi, oe) != (0, 2, 0, 1):
                raise VertexTypeViolation(v, "external vertices need two "
                                             "external in, one external out")
            from_uni = [i for i in in_ext[v] if degree(edges[i][0]) == 1]
            if len(from_uni) != 1:
                raise VertexTypeViolation(
                    v, "exactly one incoming edge must come from a "
                       "univalent vertex")
            type_of[v] = 1
        elif (ii, ie, oi, oe) == (1, 1, 1, 0):
            src = edges[in_ext[v][0]][0]
            if degree(src) != 1:
                raise VertexTypeViolation(v, "the external edge into an "
                                             "internal trivalent vertex "
                                             "must come from a univalent "
                                             "vertex")
            type_of[v] = 2
        elif (ii, ie, oi, oe) == (0, 0, 0, 1):
            type_of[v] = 3
        elif (ii, ie, oi, oe) == (0, 1, 1, 0):
            type_of[v] = 4
        elif (ii, ie, oi, oe) == (1, 0, 0, 1):
            type_of[v] = 5
        else:
            raise VertexTypeViolation(v)

    # connectivity, ignoring directions
    adj = {v: set() for v in range(nv)}
    for (a, b, _cls) in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nv:
        raise Disconnected(min(set(range(nv)) - seen))

    # one directed cycle with legs attached
    succ = {}
    for (a, b, cls) in edges:
        succ[a] = b
    v = 0
    trail = {}
    while v not in trail:
        trail[v] = len(trail)
        v = succ[v]
    cycle_start = v
    cycle = [v]
    v = succ[v]
    while v != cycle_start:
        cycle.append(v)
        v = succ[v]
    m = min(cycle)
    i = cycle.index(m)
    cycle = cycle[i:] + cycle[:i]

    on_cycle = set(cycle)
    legs = {}
    for v in range(nv):
        t = type_of[v]
        if t == 3:
            target = succ[v]
            if type_of[target] not in (1, 2) or target not in on_cycle:
                raise CycleStructureViolation(v, "leg must land on a "
                                                 "trivalent cycle vertex")
            legs[target] = v
        elif v not in on_cycle:
            raise CycleStructureViolation(v, "non-leg vertex off the cycle")
    n4 = sum(1 for t in type_of.values() if t == 4)
    n5 = sum(1 for t in type_of.values() if t == 5)
    if n4 != n5:
        raise CycleStructureViolation(cycle[0], "unbalanced transition "
                                                "vertices")
    if nv % 2 != 0 or nv != len(edges):
        raise CycleStructureViolation(cycle[0], "vertex/edge count mismatch")
    return BCRDiagram(nv, external, edges, type_of, cycle, legs)


def bcr_canonical(d):
    """Canonical key and the minimizing relabelings of a BCR diagram."""
    colors = [("e",) if v in d.external else ("i",) for v in range(d.nv)]
    entries = [(a, b, cls) for (a, b, cls) in d.edges]
    return canonical_form(d.nv, colors, entries, directed=True)


def bcr_key(d):
    key, _ = bcr_canonical(d)
    return key


def degree_one_bcr():
    """The unique degree-1 diagram: v -> w internal, w -> v external."""
    return validate_bcr(2, [], [(0, 1, INTERNAL), (1, 0, EXTERNAL)])


def wheel_bcr(k):
    """Directed external k-cycle, each vertex fed by a leg."""
    ext = list(range(k))
    uni = list(range(k, 2 * k))
    edges = [(ext[i], ext[(i + 1) % k], EXTERNAL) for i in range(k)]
    edges += [(uni[i], ext[i], EXTERNAL) for i in range(k)]
    return validate_bcr(2 * k, ext, edges)
