"""Relator vectors spanning the quotient of the diagram span.

Relators are emitted per class representative and local site:

  STU  [G] - [G1] + [G2]           every edge joining a trivalent vertex
                                   to a univalent one
  IHX  [I] - [H] + [X]             every edge with two trivalent ends on a
                                   component with no univalent vertex

These span all AS, STU and IHX relators.  Orientation signs are folded in
on insertion, so an AS relator is the zero vector: flipping one vertex
keeps the class and negates its sign (a test checks this at every vertex
through degree 3).  On a component that touches the line, IHX follows
from STU [Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995),
Thm 6]; on a closed trivalent component it is the only relation.
"""

from .enumerate import K_MAX, check_degree, enumerate_jacobi
from .jacobi import ihx_terms, internal_edges, stu_expand, stu_sites
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


def generate_relations(k, k_max=K_MAX):
    check_degree(k, k_max)
    rels = RelationSet(k)
    if k == 0:
        return rels
    for rep in enumerate_jacobi(k, k_max=k):
        for (t, u) in stu_sites(rep):
            d1, d2 = stu_expand(rep, t, u)
            vec = vector_of(rep) - vector_of(d1) + vector_of(d2)
            rels.add("STU", vec)
        uni = rep.univalent
        closed = {v for c in rep.components() if uni.isdisjoint(c) for v in c}
        for e in internal_edges(rep):
            if rep.edges[e][0] in closed:
                h, x = ihx_terms(rep, e)
                vec = vector_of(rep) - vector_of(h) + vector_of(x)
                rels.add("IHX", vec)
    return rels
