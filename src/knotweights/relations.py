"""Relator vectors spanning the quotient of the diagram span.

The line part of a diagram is its components that touch the line; the
rest are closed (purely trivalent) components.  Relators are emitted per
class representative, in key order, and local site:

  STU  [G] - [G1] + [G2]           on a class that does not vanish, at
                                   every edge joining a trivalent vertex
                                   to a univalent one when the line part
                                   has one trivalent vertex (a Y with
                                   three legs), at the first such edge
                                   when it has more
  IHX  [I] - [H] + [X]             on a class that does not vanish whose
                                   line part is a chord diagram, one
                                   internal edge with no parallel partner
                                   per automorphism orbit (every internal
                                   edge lies on a closed component), but
                                   for the orbits that a row listed
                                   earlier marked (rule 1)

Each term is classed by a search on its parts, with no diagram built
(`jacobi.class_of_parts`), and kept under the key object that
`enumerate_jacobi` holds for its class, not under the search's fresh
copy: a fresh key is 1.5-1.7 KB at degree 5, and with a copy per term
cold `dim` peaked at 69 MB at degree 5 and 1,023 MB at degree 6, against
50 and 656 MB shared (one run each).  The held keys also share their
parts with every other held representative (`jacobi.kept`), and cold
`dim` now peaks at 30 MB at degree 5 and 274 MB at degree 6.  A
nonvanishing term whose class is not listed raises LookupError.  The STU
rows of a class with a closed part are its line part's rows, each key
joined to the closed part's tokens (rule 3): they are searched once per
line part, on its representative, and no search runs on the closed part.

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
  IHX on a vanishing class, and at an orbit that a listed row marked:
  rules 2 and 1.

Rule 1: each IHX relation once.  The move at H's middle edge gives I and
X back.  H reads (e, q, r) at a and (e, s, p) at b; taken as (e, p', q')
and (e, r', s'), its H moves r' = s to a and p' = q to b, reading (e, r,
s) at a and (e, p, q) at b, which is I with a and b swapped, and its X
moves s' = p to a and q to b, reading (e, r, p) at a and (e, s, q) at b,
which is X with a and b swapped and one end reversed.  So the row at H's
middle edge is [H] - [I] - [X], minus the row at I; in the same way the
row at X's middle edge is the row at I.  The search that classes a
companion returns `perm`, an isomorphism onto its class's
representative, and the move commutes with it up to the sign of the
reversed vertices, so the row at the companion's middle edge, carried
to the slot pair (perm[a], perm[b]), is +- the listed row, and so is the
row at every edge of that pair's orbit (above).  A representative skips
such an orbit.  A mark made after the companion's turn skips nothing, so
a relation is listed once, at the first of its three diagrams in key
order whose turn lists it.

Rule 2: IHX only where the class does not vanish.  At a vanishing I the
row is [X] - [H].  If H or X, J say, does not vanish, the row at J's
middle edge is +- this row (rule 1).  At J's turn the orbit of that edge
is listed, or it was marked by a listed row that is +- the same row, or
the edge has a parallel partner and the row is 0.  If all three vanish
the row is 0.

Rule 3: the key of a class with a closed part.  The colors put every
trivalent vertex in the first cell, before the line vertices.  In
refinement (`canon._refine`) a closed vertex's signature is three times
the index of its own cell, the least one while that cell is the first, so
the closed vertices stay together in the first cell.  The other cells
are the line part alone's, in the same order, and the first cell holds
the closed part and the line part alone's first cell: a line vertex
compares the same cells as it does in the line part alone (their
indices shift by one at most, and together), and in the first cell the
least signature is the one the closed vertices carry.  When the
refinement stops, a line vertex left in the first cell would have all
its neighbours there, and so would its whole component, which touches
the line; so the first cell is exactly the closed part, and no edge
leaves it.  The search fills the closed slots 0..c-1 from the closed
part and the rest from the line part: a level below c holds closed
tokens only, and the others line tokens only, so the least leaf is the
least labeling of the closed part alone (one cell, as every signature
there reads the cell itself), followed by that of the line part alone
with every slot shifted by c.  The key is the closed tokens followed by
the line part's tokens shifted by c, and the closed part's size is read
off it (`jacobi._closed_slots`; `enumerate` draws such classes from their
parts by the same key format).  The sign is the product of the two parts'
signs: the default orientation at a vertex reads its own part's slots,
and an automorphism keeps the line part and the closed part apart.  On a
class that does not vanish the closed part's sign is 1.  STU at a site
cuts a line component at t, and both pieces keep a line vertex, t or u,
so the terms keep the closed part as it is and have no other.  So the
STU row of C x L at a site is L's row there with every key joined to
C's tokens.
"""

from .canon import orbits
from .enumerate import K_MAX, check_degree, enumerate_jacobi
from .jacobi import (_closed_slots, _joined, _line_key, automorphisms,
                     class_of, class_of_parts, ihx_parts, internal_edges,
                     representative, stu_parts, stu_sites)
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


def _ihx_edges(d, marked):
    """The internal edges of d with no parallel partner (the rows at the
    others are 0), one per orbit of Aut(d) on the vertex pairs they join,
    in edge order, but for the orbits that hold a pair in `marked`.  The
    edges are yielded one at a time, and `marked` is read afresh for
    each, so pairs marked meanwhile count."""
    internal = internal_edges(d)
    pairs = [frozenset(d.edges[e]) for e in internal]
    edges = [e for e, pair in zip(internal, pairs) if pairs.count(pair) == 1]
    if not edges:
        return
    index = {frozenset(d.edges[e]): i for i, e in enumerate(edges)}
    moves = [[index[frozenset(g[v] for v in pair)] for pair in index]
             for g in automorphisms(d)]
    orbit = orbits(len(index), moves)
    seen = set()
    for e in edges:
        seen.update(orbit[index[p]] for p in marked if p in index)
        o = orbit[index[frozenset(d.edges[e])]]
        if o not in seen:
            seen.add(o)
            yield e


def _listed(classes, term):
    """The class list's own key object for a term's key, so that the
    relators share the keys `enumerate_jacobi` holds instead of each
    holding a fresh copy."""
    try:
        return classes[term]
    except KeyError:
        raise LookupError(f"relator term {term!r} is not a listed "
                          f"nonvanishing class") from None


def _ihx_rows(k, rep, key, marks, classes):
    """The IHX rows of a representative whose line part is a chord
    diagram, at the edges `_ihx_edges` leaves; each row marks the middle
    edge of its two companions, in their canonical slots."""
    marked = marks.setdefault(key, set())
    rows = []
    for e in _ihx_edges(rep, marked):
        a, b = rep.edges[e]
        vec = DiagramVector(k, {key: 1})
        for (edges, orient), coeff in zip(ihx_parts(rep, e), (-1, 1)):
            term, sign, perm, _ = class_of_parts(
                rep.nv, rep.univalent_order, edges, orient.values())
            if sign:
                term = _listed(classes, term)
                vec.add_term(term, coeff * sign)
                marks.setdefault(term, set()).add(
                    frozenset((perm[a], perm[b])))
        rows.append(vec)
    del marks[key]
    return rows


def _stu_terms(line):
    """The STU rows of a representative `line` with no closed part, as the
    terms after its own class: at every site when it has one trivalent
    vertex, at the first site when it has more."""
    sites = stu_sites(line)
    if line.nv - len(line.univalent_order) > 1:
        sites = sites[:1]
    rows = []
    for (t, u) in sites:
        order, term_edges, orient = stu_parts(line, t, u)
        terms = []
        for edges, coeff in zip(term_edges, (-1, 1)):
            term, sign = class_of_parts(line.nv, order, edges,
                                        orient.values())[:2]
            if sign:
                terms.append((term, coeff * sign))
        rows.append(terms)
    return rows


def generate_relations(k, k_max=K_MAX):
    check_degree(k, k_max)
    rels = RelationSet(k)
    if k == 0:
        return rels
    listed = []      # (representative, key) of the nonvanishing classes
    classes = {}     # key -> itself, for the same classes
    for rep in enumerate_jacobi(k, k_max=k):
        key, sign = class_of(rep)
        if sign:
            listed.append((rep, key))
            classes[key] = key
    marks = {}       # key -> slot pairs of companions of listed IHX rows
    line_rows = {}   # line key -> STU rows of a line part below degree k
    for rep, key in listed:
        closed = _closed_slots(key)
        if rep.nv - closed == len(rep.univalent_order):
            for vec in _ihx_rows(k, rep, key, marks, classes):
                rels.add("IHX", vec)
            continue
        if closed:
            line = _line_key(key, closed)
            rows = line_rows.get(line)
            if rows is None:
                rows = line_rows[line] = _stu_terms(representative(line))
        else:
            rows = _stu_terms(rep)
        closed_tokens = key[1][:3 * closed // 2]
        for terms in rows:
            vec = DiagramVector(k, {key: 1})
            for term, coeff in terms:
                vec.add_term(_listed(classes, _joined(closed_tokens, term)),
                             coeff)
            rels.add("STU", vec)
    return rels
