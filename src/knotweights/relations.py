"""Relator vectors spanning the quotient of the diagram span.

Relators are emitted per class representative and local site:

  AS   [flip_v G] + [G]            every trivalent vertex v
  STU  [G] - [G1] + [G2]           every edge joining a trivalent vertex
                                   to a univalent one
  IHX  [I] - [H] + [X]             every edge with two trivalent ends

Orientation signs are folded in on insertion, so AS relators are zero
vectors by construction; they are still listed (their count is part of the
contract) and the STU/IHX rows carry all the content.  IHX is implied by
STU wherever a component touches the line, but it is the only relation
available on purely trivalent components, so it is generated everywhere.
"""

from .enumerate import K_MAX, check_degree, enumerate_jacobi
from .jacobi import flipped, ihx_terms, internal_edges, stu_expand, stu_sites
from .vectors import vector_of


class RelationSet:
    def __init__(self, degree):
        self.degree = degree
        self.relators = []  # (kind, site description, DiagramVector)

    def add(self, kind, site, vec):
        self.relators.append((kind, site, vec))

    def vectors(self, kind=None):
        return [v for (k, _s, v) in self.relators if kind is None or k == kind]

    def __len__(self):
        return len(self.relators)


def stu_triple(rep, t, u):
    """The three diagrams of an STU site, as (S, T, U)."""
    d1, d2 = stu_expand(rep, t, u)
    return rep, d1, d2


def generate_relations(k, k_max=K_MAX):
    check_degree(k, k_max)
    rels = RelationSet(k)
    if k == 0:
        return rels
    for rep in enumerate_jacobi(k, k_max=k):
        for v in rep.trivalent:
            vec = vector_of(flipped(rep, v)) + vector_of(rep)
            rels.add("AS", (rep, v), vec)
        for (t, u) in stu_sites(rep):
            s, d1, d2 = stu_triple(rep, t, u)
            vec = vector_of(s) - vector_of(d1) + vector_of(d2)
            rels.add("STU", (rep, t, u), vec)
        for e in internal_edges(rep):
            h, x = ihx_terms(rep, e)
            vec = vector_of(rep) - vector_of(h) + vector_of(x)
            rels.add("IHX", (rep, e), vec)
    return rels
