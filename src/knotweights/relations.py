"""Relator vectors spanning the quotient of the diagram span.

Relators are emitted per class representative and local site:

  STU  [G] - [G1] + [G2]           every edge joining a trivalent vertex
                                   to a univalent one, on a class that
                                   does not vanish
  IHX  [I] - [H] + [X]             one edge per automorphism orbit of the
                                   edges with two trivalent ends on a
                                   component with no univalent vertex

These span all AS, STU and IHX relators.  Orientation signs are folded in
on insertion, so an AS relator is the zero vector: flipping one vertex
keeps the class and negates its sign (a test checks this at every vertex
through degree 3).  On a component that touches the line, IHX follows
from STU [Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995),
Thm 6]; on a closed trivalent component it is the only relation.

The rows left out are zero or repeat a listed row up to sign:

  STU on a vanishing class.  Some automorphism s of G reverses an odd
  number of vertices.  It fixes every line vertex, so it fixes t, u and
  the edge t-u.  If s also fixes the other two half-edges at t, it does
  not reverse t, and it is an automorphism of G1 and of G2 with an odd
  character, so both vanish.  If s swaps them, it reverses t, hence an
  even number of the other vertices, and carries G1 onto G2, where t is
  a line vertex: [G1] = [G2].  Either way the row is 0 - [G1] + [G2] = 0.
  IHX at s(e) for an automorphism s.  The move commutes with relabeling,
  and reversing one vertex maps the row at an edge to +- itself (at an
  end of the edge, H and X trade places), so the row at s(e) is +- the
  row at e.  Parallel edges join the same two vertices and have one row
  up to sign for the same reason (their swap is an automorphism that
  reverses both ends), so orbits are taken on the vertex pairs.
"""

from .canon import orbits
from .enumerate import K_MAX, check_degree, enumerate_jacobi
from .jacobi import (automorphisms, class_of, ihx_terms, internal_edges,
                     stu_expand, stu_sites)
from .vectors import vector_of


class RelationSet:
    def __init__(self, degree):
        self.degree = degree
        self.relators = []  # (kind, DiagramVector)

    def add(self, kind, vec):
        self.relators.append((kind, vec))

    def vectors(self, kind=None):
        return [v for (k, v) in self.relators if kind is None or k == kind]

    def __len__(self):
        return len(self.relators)


def _ihx_edges(d):
    """The internal edges of d's closed components, one per orbit of Aut(d)
    on the vertex pairs they join, in edge order."""
    uni = d.univalent
    closed = {v for c in d.components() if uni.isdisjoint(c) for v in c}
    edges = [e for e in internal_edges(d) if d.edges[e][0] in closed]
    if not edges:
        return []
    index = {}
    for e in edges:
        index.setdefault(frozenset(d.edges[e]), len(index))
    moves = [[index[frozenset(g[v] for v in pair)] for pair in index]
             for g in automorphisms(d)]
    orbit = orbits(len(index), moves)
    seen, out = set(), []
    for e in edges:
        o = orbit[index[frozenset(d.edges[e])]]
        if o not in seen:
            seen.add(o)
            out.append(e)
    return out


def generate_relations(k, k_max=K_MAX):
    check_degree(k, k_max)
    rels = RelationSet(k)
    if k == 0:
        return rels
    for rep in enumerate_jacobi(k, k_max=k):
        if class_of(rep)[1]:
            for (t, u) in stu_sites(rep):
                d1, d2 = stu_expand(rep, t, u)
                vec = vector_of(rep) - vector_of(d1) + vector_of(d2)
                rels.add("STU", vec)
        for e in _ihx_edges(rep):
            h, x = ihx_terms(rep, e)
            vec = vector_of(rep) - vector_of(h) + vector_of(x)
            rels.add("IHX", vec)
    return rels
