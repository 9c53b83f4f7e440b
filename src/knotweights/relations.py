"""Relator vectors spanning the quotient of the diagram span.

The line part of a diagram is its components that touch the line; the
rest are closed (purely trivalent) components.  Relators are emitted per
class representative and local site:

  STU  [G] - [G1] + [G2]           on a class that does not vanish, at
                                   every edge joining a trivalent vertex
                                   to a univalent one when the line part
                                   has one trivalent vertex (a Y with
                                   three legs), at the first such edge
                                   when it has more
  IHX  [I] - [H] + [X]             on a class whose line part is a chord
                                   diagram, one internal edge with no
                                   parallel partner per automorphism orbit
                                   (every internal edge lies on a closed
                                   component)

Orientation signs are folded in on insertion, so an AS relator is the
zero vector: flipping one vertex keeps the class and negates its sign (a
test checks this at every vertex through degree 3).  The AS, STU and IHX
relators are spanned by STU at every site and IHX at every internal edge;
on a component that touches the line IHX follows from STU [Bar-Natan, On
the Vassiliev knot invariants, Topology 34 (1995), Thm 6], and on a
closed component it is the only relation.

The listed rows span that every-site set.  An automorphism keeps the line
fixed, so it keeps the line part and the closed part apart: the class of
G is the product of the classes of its two parts, and it vanishes exactly
when one of them does.  The classes therefore span L (x) C, with L the
span of line-part classes and C that of closed classes, and the every-site
rows span S (x) C + L (x) I, with S spanned by STU on line parts and I by
IHX on closed parts.  Let x be any of those rows.  Take the classes with
n >= 1 line-part trivalent vertices from the largest n down, and subtract
from x each one's coefficient times its listed first-site row, which is
the class itself plus classes with n - 1.  What is left, y, is a
combination of chord-line classes (line part a chord diagram), and x - y
is in the span of the listed rows.  By Thm 6, STU expansion to chord
diagrams is well defined modulo 4T, so chord diagrams modulo 4T map onto
L / S isomorphically; y is a combination of chord-line classes that is
zero in (L / S) (x) (C / I), so it lies in 4T (x) C + (chords) (x) I.  A
4T relation is the difference of the STU rows at two sites of a Y, so 4T
beside a closed class is the difference of two listed rows (both zero on
a vanishing class, below); chords beside an IHX row are listed up to
sign, or the row is 0, below.  So y, and x, are in the span of the listed
rows, which are themselves every-site rows: the row space is the same.

The rows left out:

  STU on a vanishing class.  Some automorphism s of G reverses an odd
  number of vertices.  It fixes every line vertex, so it fixes t, u and
  the edge t-u.  If s also fixes the other two half-edges at t, it does
  not reverse t, and it is an automorphism of G1 and of G2 with an odd
  character, so both vanish.  If s swaps them, it reverses t, hence an
  even number of the other vertices, and carries G1 onto G2, where t is
  a line vertex: [G1] = [G2].  Either way the row is 0 - [G1] + [G2] = 0.
  STU past the first site when the line part has two or more trivalent
  vertices, and IHX beside a line part that is not a chord diagram: they
  are in the span of the listed rows, as above.
  IHX at s(e) for an automorphism s.  The move commutes with relabeling,
  and reversing one vertex maps the row at an edge to +- itself (at an
  end of the edge, H and X trade places), so the row at s(e) is +- the
  row at e.  The edges taken have no parallel partner, so each joins its
  own vertex pair, and the orbits are taken on those pairs.
  IHX at an edge e = ab with a parallel partner f: the row is 0.  Write
  the cyclic orders of I as (e, p, q) at a and (e, r, s) at b, as in
  `jacobi.ihx_terms`; H moves r to a and p to b, X moves s to a and p
  to b.  f has one half-edge among p, q and one among r, s, which are:
    p, r    X joins p and r at b, a loop, so [X] = 0 (a loop admits an
            orientation-reversing symmetry, and `class_of` drops it).  H
            moves both ends of f, which still joins a and b, and reads
            (e, q, f) at a and (e, s, f) at b: I with both ends reversed,
            [H] = [I].
    p, s    H joins p and s at b, [H] = 0.  X reads (e, q, f) at a and
            (e, r, f) at b: I with a reversed, [X] = -[I].
    q, r    H joins q and r at a, [H] = 0.  X reads (e, f, s) at a and
            (e, f, p) at b, where I reads (e, p, f) at a and (e, f, s) at
            b: swapping a and b carries X onto I with one end reversed,
            [X] = -[I].
    q, s    X joins q and s at a, [X] = 0.  H reads (e, f, r) at a and
            (e, f, p) at b, where I reads (e, p, f) at a and (e, r, f) at
            b: swapping a and b carries H onto I with both ends reversed,
            [H] = [I].
  Each time [I] - [H] + [X] = 0.
"""

from .canon import orbits
from .enumerate import K_MAX, check_degree, enumerate_jacobi
from .jacobi import (automorphisms, class_of, ihx_terms, internal_edges,
                     stu_expand, stu_sites)
from .vectors import DiagramVector


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
    """The internal edges of d with no parallel partner (the rows at the
    others are 0), one per orbit of Aut(d) on the vertex pairs they join,
    in edge order."""
    internal = internal_edges(d)
    pairs = [frozenset(d.edges[e]) for e in internal]
    edges = [e for e, pair in zip(internal, pairs) if pairs.count(pair) == 1]
    if not edges:
        return []
    index = {frozenset(d.edges[e]): i for i, e in enumerate(edges)}
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


def _row(k, first, second, third):
    """The vector [first] - [second] + [third]."""
    vec = DiagramVector(k)
    for d, coeff in ((first, 1), (second, -1), (third, 1)):
        key, sign = class_of(d)
        if sign:
            vec.add_term(key, coeff * sign)
    return vec


def generate_relations(k, k_max=K_MAX):
    check_degree(k, k_max)
    rels = RelationSet(k)
    if k == 0:
        return rels
    for rep in enumerate_jacobi(k, k_max=k):
        line_trivalents = rep.line_trivalent_count()
        if line_trivalents == 0:
            for e in _ihx_edges(rep):
                rels.add("IHX", _row(k, rep, *ihx_terms(rep, e)))
        elif class_of(rep)[1]:
            sites = stu_sites(rep)
            for (t, u) in sites if line_trivalents == 1 else sites[:1]:
                rels.add("STU", _row(k, rep, *stu_expand(rep, t, u)))
    return rels
