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
type-5 vertices.  So a diagram is fixed by its cycle's edge flavors, and
:func:`cycle_with_legs` builds every diagram the program makes from them.
An isomorphism is a rotation of the cycle, so a class is a cyclic flavor
word up to rotation, keyed by its least rotation (:func:`bcr_key`), and
|Aut| counts the rotations that fix the word (:func:`aut_order`).
"""

import json

from .errors import (Disconnected, EmptyGraph, LoopEdge, ParseError,
                     VertexTypeViolation)

INTERNAL = "int"
EXTERNAL = "ext"

# the internal types 2-5 by (internal in, external in, internal out,
# external out) edge counts
_INTERNAL_TYPES = {(1, 1, 1, 0): 2, (0, 0, 0, 1): 3, (0, 1, 1, 0): 4,
                   (1, 0, 0, 1): 5}


class BCRDiagram:
    """Validated diagram; construct through :func:`validate_bcr`."""

    __slots__ = ("nv", "external", "edges", "type_of", "cycle", "legs",
                 "out_edge")

    def __init__(self, nv, external, edges, type_of, cycle, legs, out_edge):
        self.nv = nv
        self.external = frozenset(external)
        self.edges = tuple(edges)
        self.type_of = dict(type_of)
        self.cycle = tuple(cycle)
        self.legs = dict(legs)
        self.out_edge = tuple(out_edge)

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
        return {v: self.out_edge[u] for v, u in self.legs.items()}


def validate_bcr(nv, external, edges):
    """Check the five local patterns and connectedness, and read off the
    cycle/leg decomposition they force.

    `edges` lists (tail, head, cls) triples.  Returns a BCRDiagram carrying
    the per-vertex type tags, the decomposition and each vertex's one
    outgoing edge (`out_edge[v]`).

    The decomposition needs no check of its own.  Every pattern has one
    outgoing edge, so a connected diagram has one directed cycle, with
    trees that run into it, and as many edges as vertices.  A tree enters
    the cycle at a vertex with two incoming edges, of type 1 or 2, and one
    of them comes from its cycle predecessor.  Either type takes one
    incoming edge from a univalent vertex, and the predecessor, itself
    entered, is not univalent; so the tree's vertex next to the cycle is
    univalent, and having no incoming edge it is the whole tree, a leg on
    a trivalent cycle vertex.

    Nor do the counts need a check.  Every trivalent vertex has exactly
    one leg.  Types 4 and 5 are the switches from external to internal and
    back around the cycle, so they alternate and pair up, and with t
    trivalent vertices nv = 2 (t + n4) is even.

    An edge class other than INTERNAL and EXTERNAL is a ParseError, before
    any other check.
    """
    for i, (_a, _b, cls) in enumerate(edges):
        if cls not in (INTERNAL, EXTERNAL):
            raise ParseError(0, "edges", f"edge {i} has class "
                                         f"{json.dumps(cls, default=repr)}, "
                                         f"not one of {INTERNAL}, {EXTERNAL}")
    if nv == 0:
        raise EmptyGraph("diagram must be non-empty")
    external = list(external)
    for v in [v for (a, b, _cls) in edges for v in (a, b)] + external:
        if type(v) is not int:
            raise VertexTypeViolation(v, "the id is not an integer")
        if not 0 <= v < nv:
            raise VertexTypeViolation(v, f"not among the vertex ids "
                                         f"0..{nv - 1}")
    external = frozenset(external)
    for i, (a, b, cls) in enumerate(edges):
        if a == b:
            raise LoopEdge(i)

    in_int, in_ext, out_int, out_ext = ([[] for _ in range(nv)]
                                        for _ in range(4))
    seen_pairs = set()
    for i, (a, b, cls) in enumerate(edges):
        if (a, b) in seen_pairs:
            raise VertexTypeViolation(a, "two edges with the same direction")
        seen_pairs.add((a, b))
        (out_int if cls == INTERNAL else out_ext)[a].append(i)
        (in_int if cls == INTERNAL else in_ext)[b].append(i)
    degree = [len(in_int[v]) + len(in_ext[v]) + len(out_int[v])
              + len(out_ext[v]) for v in range(nv)]

    type_of = {}
    for v in range(nv):
        sig = (len(in_int[v]), len(in_ext[v]), len(out_int[v]),
               len(out_ext[v]))
        from_uni = sum(degree[edges[i][0]] == 1 for i in in_ext[v])
        if v in external:
            if sig != (0, 2, 0, 1):
                raise VertexTypeViolation(v, "external vertices need two "
                                             "external in, one external out")
            if from_uni != 1:
                raise VertexTypeViolation(
                    v, "exactly one incoming edge must come from a "
                       "univalent vertex")
            type_of[v] = 1
        elif sig not in _INTERNAL_TYPES:
            raise VertexTypeViolation(v)
        elif sig == (1, 1, 1, 0) and from_uni != 1:
            raise VertexTypeViolation(v, "the external edge into an "
                                         "internal trivalent vertex "
                                         "must come from a univalent "
                                         "vertex")
        else:
            type_of[v] = _INTERNAL_TYPES[sig]
    out_edge = [(out_int[v] + out_ext[v])[0] for v in range(nv)]
    succ = [edges[i][1] for i in out_edge]

    # connectivity, ignoring directions
    adj = [set() for _ in range(nv)]
    for (a, b, _cls) in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != nv:
        raise Disconnected(min(set(range(nv)) - seen))

    # one directed cycle with legs attached
    v, trail = 0, set()
    while v not in trail:
        trail.add(v)
        v = succ[v]
    cycle = [v]
    while succ[cycle[-1]] != v:
        cycle.append(succ[cycle[-1]])
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]

    legs = {succ[v]: v for v in range(nv) if type_of[v] == 3}
    return BCRDiagram(nv, external, edges, type_of, cycle, legs, out_edge)


def flavor_word(d):
    """The word of cycle edge flavors that `cycle_with_legs` builds d from."""
    return tuple(d.edges[d.out_edge[v]][2] for v in d.cycle)


def bcr_key(d):
    word = flavor_word(d)
    return min(word[i:] + word[:i] for i in range(len(word)))


def aut_order(d):
    word = flavor_word(d)
    return sum(word[i:] + word[:i] == word for i in range(len(word)))


def cycle_with_legs(flavors):
    """The diagram whose cycle edge i runs from vertex i to i + 1 (mod the
    length) with flavor flavors[i].  A vertex whose two cycle edges share a
    flavor gets a leg, numbered after the cycle in cycle order, and is
    external when that flavor is."""
    edges = [(i, (i + 1) % len(flavors), cls)
             for i, cls in enumerate(flavors)]
    external = []
    for i, cls in enumerate(flavors):
        if flavors[i - 1] == cls:
            edges.append((len(edges), i, EXTERNAL))
            if cls == EXTERNAL:
                external.append(i)
    return validate_bcr(len(edges), external, edges)


def degree_one_bcr():
    """The unique degree-1 diagram: v -> w internal, w -> v external."""
    return cycle_with_legs([INTERNAL, EXTERNAL])


def wheel_bcr(k):
    """Directed external k-cycle, each vertex fed by a leg."""
    return cycle_with_legs([EXTERNAL] * k)
