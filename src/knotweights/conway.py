"""The circle-counting weight system and its logarithmic variant.

A chord diagram is evaluated by surgering the line along every chord: cut
at the two endpoints and reconnect crosswise, so the arc before one
endpoint continues into the arc after its partner.  The diagram weighs 1
when no closed circle remains and 0 otherwise; counting circles and
testing for none walk one partner array on the line positions.  wc is a
weight system, so a diagram with trivalent vertices is evaluated by STU on
its own labels [Bar-Natan, On the Vassiliev knot invariants, Topology 34
(1995)], with no class lookup.

The whole diagram is STU-expanded once (`_expand`), on plain arrays edited
in place and restored on return: a univalent vertex next to a trivalent
vertex t is resolved, t becomes a line vertex just before it, and the two
resolutions enter with opposite signs.  Every trivalent vertex has a leg
when the expansion runs (the leg test below comes first), and that leg
stays on the line until its vertex is resolved, so the vertices are taken
in any order.  Each term numbers its line vertices 0..2k-1 in line order
and lists its chords as pairs of those positions; equal chord lists are
merged, so the expansion is a signed set of chord diagrams.  wc sums the
coefficients of those that surgery leaves without a circle, and wc' sums
minus each coefficient times a cycle sum (below).  The linear extensions
to diagram vectors evaluate each class on its representative;
`wc_prime_eval` also takes a diagram, standing for its class, so `verify
prop32` evaluates the representative it holds.  wc, wc' and both
extensions take the degree cap `k_max` and check it before any zero test
or expansion, as `bridge.wbcr` does; the commands pass the user's
--k-max.

wc of odd degree is 0 with no expansion: STU keeps the degree, and surgery
along k chords leaves k circles mod 2 (each chord's cut and crosswise
reconnection, which keeps the line's direction, splits one component in
two or joins two into one), so a chord diagram of odd degree leaves at
least one circle.

A trivalent vertex with no leg (no edge to a univalent vertex) makes wc
vanish outright (``JacobiDiagram.has_legless_vertex``), with no expansion;
a purely trivalent component, on which wc is 0 by definition, is the case
where no vertex of a component has a leg.  The proof: on chord diagrams wc
is the gl(1|1) weight system, with the defining representation C^(1|1) on
the line.  The Casimir of the supertrace form acts on C^(1|1) (x) C^(1|1)
as the super-permutation, so a chord diagram weighs sdim^(circles) =
0^(circles), the circle through the line aside [Figueroa-O'Farrill,
Kimura, Vaintrob, The universal Vassiliev invariant for the Lie
superalgebra gl(1|1), Comm. Math. Phys. 185 (1997)].  Lie superalgebra
weight systems satisfy STU [Vaintrob, Vassiliev knot invariants and Lie
S-algebras, Math. Res. Lett. 1 (1994)], and STU fixes a weight system on
Jacobi diagrams from its chord values, so wc is the gl(1|1) weight on
every diagram with legs: a trivalent vertex carries the structure tensor
str([x, y] z) and an edge the inverse of the form.  In g = gl(1|1),
[g, g] is spanned by E (the identity, central), psi+ and psi-, str
vanishes on it, and [[g, g], [g, g]] = C E.  Let v be trivalent with
trivalent neighbours only.
  Three distinct neighbours: the rest of the diagram feeds v's three
  edges from three different vertex tensors, each of which gives its
  third edge a bracket, so v sees u1, u2, u3 in [g, g] and returns
  str([u1, u2] u3) = c str(E u3) = c str(u3) = 0.
  A double edge to w (a bubble) and a third neighbour x: the bubble maps
  what enters w's third edge, y, to c str(y) E on v's third edge (on the
  basis, e11 and e22 go to 2E and -2E, up to one sign fixed by the
  conventions, and psi+- to 0), and x, being trivalent, returns
  str([E, a] b) = 0, E being central.
  A triple edge to w: v and w make a theta, a purely trivalent component.
Each way, wc is 0.

The logarithmic variant wc' is the cumulant of wc over connected
components: on a diagram D,

  wc'(D) = sum over set partitions pi of the components of D of
           (-1)^(|pi|-1) (|pi|-1)! prod_{B in pi} wc(D_B),

where D_B keeps the components in block B.  Primitives are spanned by
connected diagrams, the coproduct splits the set of components, and wc is
multiplicative, so this equals wc composed with the projection onto the
connected summand (the test oracle
``tests/oracles.py:SplittingByProducts.project_connected``).  It
kills the empty class and every non-trivial product, so a diagram whose
components fall into two groups, one wholly before the other on the line
(the cut of ``JacobiDiagram.product_split``), is 0 without an expansion.
So is one with a trivalent vertex without a leg: in every partition, the
block that holds that vertex's component has wc 0.  The degree, the leg
test and the cut come first; then the whole diagram is expanded.

wc' is a weight system too, wc composed with a linear projection, so STU
gives it as the sum, over the chord diagrams of the expansion, of the
coefficient times wc' of the chord diagram; on a chord diagram the
components are the chords, and wc' is the cumulant of wc over them.  For
a chord diagram D with chords (a_i, b_i), a_i < b_i, let S_D be its
signed intersection matrix: S_ij = 1 and S_ji = -1 when
a_i < a_j < b_i < b_j, and 0 otherwise.  Then

  wc'(D) = (-1)^(k-1) sum over the cyclic orders sigma of the k chords
           of prod_i S_D[i][sigma(i)],

evaluated by `_cycles` (the test oracles ``cumulant_by_partitions``,
``wc_prime_resolved``, ``ClassWeights.wc_prime`` and
``SplittingByProducts.project_connected`` keep the cumulant).  The proof:
  Principal minors (proved, by the band surface).  wc(D_B) = det S_B for
  every set B of chords, S_B the principal submatrix; D_B is a chord
  diagram with the intersection matrix S_B, so it suffices to show
  wc(D) = det S_D.  Glue to a disk one untwisted band per chord, at the
  chord's two endpoints on an arc of the disk's boundary.  The surface F
  is compact, connected and orientable, and retracts onto a wedge of k
  circles, so H_1(F) = Z^k with the cores as a basis, core i running
  along band i and back across the disk.  Two cores meet only in the
  disk, where they are straight chords of it; they cross once exactly
  when their endpoints interlace, and the order of the endpoints fixes
  the sign of the crossing, so the intersection form of F is +-S_D in
  this basis (as V - V^T is for a Seifert surface [Lickorish, An
  Introduction to Knot Theory, GTM 175 (1997), ch. 6]).  Walking along
  the boundary of F, the arc of the disk that ends at an endpoint runs
  along the band's outer edge into the arc after its partner: this is
  the surgery.  Closing the line through the rest of the disk's boundary
  makes the line one boundary component, so F has b = 1 + c boundary
  components, c the circles that surgery leaves [the same surface counts
  circles for the gl(N) weight systems: Chmutov, Duzhin, Mostovoy,
  Introduction to Vassiliev Knot Invariants (2012), ch. 6].  The form is
  the duality pairing of H_1(F) with H_1(F, dF), which is perfect
  [Lefschetz duality: Hatcher, Algebraic Topology (2002), Thm. 3.43],
  taken after j: H_1(F) -> H_1(F, dF).  In the exact sequence of the
  pair, the kernel of j is the image of H_1(dF) = Z^b, whose one
  relation is that the boundary circles sum to the boundary of F, so
  the form's radical has rank b - 1 = c.  At c = 0, j is also onto
  (H_0(dF) -> H_0(F) is injective) and S_D is unimodular: det S_D =
  Pf(S_D)^2 = 1.  At c > 0 the radical is not 0 and det S_D = 0.  So
  wc(D) = det S_D.  With GF(2) coefficients the same sequence gives
  corank c over GF(2), the theorem of Cohn-Lempel [J. Combin. Theory A
  13 (1972)] and Moran [J. Combin. Theory A 37 (1984)].
  Exponential formula (proved).  det S_B sums sgn(pi) prod_i S[i][pi(i)]
  over the permutations pi of B.  A permutation is a set partition of B
  into blocks with a cyclic order on each; its sign and its product are
  products over the cycles, a cycle of length m giving (-1)^(m-1).  So
  wc(D_B) = sum over set partitions of B of prod over blocks C of z(C),
  z(C) the signed cycle sum of C, and the cumulant, which inverts this
  moment-cumulant relation, is z of the whole chord set.
  Odd k (proved).  S is skew, so reversing a cycle multiplies its product
  by (-1)^k.  At odd k >= 3 reversal pairs off the cyclic orders and the
  sum is 0; at k = 1 the one cycle reads S_ii = 0.  So the sign is -1
  wherever the sum is not 0.  (wc' of odd degree is 0 also by the circle
  parity above.)
  A chord that crosses no other has a zero row, and every cycle passes
  through it, so the sum is 0.
``bridge`` shows that wbcr is the same cycle sum on a chord diagram,
which is Prop 3.2 there.
"""

from fractions import Fraction

from .enumerate import K_MAX, check_degree
from .errors import VertexTypeViolation
from .jacobi import JacobiDiagram, class_of, representative

ZERO = Fraction(0)


def _partner(chords):
    """Each line position's partner, for chords given as pairs of the
    positions 0..2k-1."""
    partner = [0] * (2 * len(chords))
    for a, b in chords:
        partner[a] = b
        partner[b] = a
    return partner


def count_circles(d):
    """Circles left after surgering the line along every chord.  Closing
    the line, its last arc into its first, makes it one more cycle of the
    arc walk that `_no_circle` takes."""
    if not d.is_chord_diagram():
        raise VertexTypeViolation(d.trivalent[0], "not a chord diagram")
    partner = _partner([(a - 1, b - 1) for a, b in d.chords()])
    succ = [p + 1 for p in partner] + [0]
    seen = [False] * len(succ)
    cycles = 0
    for start in range(len(succ)):
        if not seen[start]:
            cycles += 1
            arc = start
            while not seen[arc]:
                seen[arc] = True
                arc = succ[arc]
    return cycles - 1


def _no_circle(partner):
    """Whether surgery along the chords of `partner` leaves no circle.  Arc
    i ends at point i and continues into the arc after that point's
    partner; the walk from the first arc reaches the last one, and it
    covers every arc exactly when no circle is left."""
    n = len(partner)
    arc = steps = 0
    while arc != n:
        arc = partner[arc] + 1
        steps += 1
    return steps == n


def _expand(d):
    """The STU expansion of d, every trivalent vertex of which has a leg:
    {chords: coefficient}, each chord a pair (i, j), i < j, of line
    positions 0..2k-1, listed in the order of i.

    Half-edge h = 2 * edge + end sits at vertex ``ends[h]``; ``leg[v]`` is
    the half-edge at a line vertex v, ``cyc[t]`` the cyclic order at a
    trivalent vertex t, and ``line`` lists the line vertices in order.
    """
    ends = [v for pair in d.edges for v in pair]
    cyc = {t: tuple(2 * e + end for (e, end) in c)
           for t, c in d.orient.items()}
    line = list(d.univalent_order)
    leg = {v: h for h, v in enumerate(ends) if v not in cyc}
    order = list(cyc)
    pos = [0] * d.nv
    out = {}

    def expand(depth, sign):
        if depth == len(order):
            for i, v in enumerate(line):
                pos[v] = i
            chords = tuple((i, j) for i, v in enumerate(line)
                           if i < (j := pos[ends[leg[v] ^ 1]]))
            out[chords] = out.get(chords, 0) + sign
            return
        t = order[depth]
        c = cyc[t]
        for i, h in enumerate(c):
            u = ends[h ^ 1]
            if u in leg:
                break
        alpha, beta = c[i - 2], c[i - 1]  # (to u, alpha, beta) cyclically
        to_u = leg[u]
        j = line.index(u)
        line.insert(j, t)
        for keep, move, s in ((alpha, beta, sign), (beta, alpha, -sign)):
            leg[t], leg[u] = keep, move
            ends[move] = u
            expand(depth + 1, s)
            ends[move] = t
        leg[u] = to_u
        del leg[t]
        del line[j]

    expand(0, 1)
    return {chords: c for chords, c in out.items() if c}


def wc_diagram(d, k_max=K_MAX):
    """Circle-counting weight of an oriented diagram (exact rational): 0
    at odd degree and with a leg-less vertex, otherwise the sum of the
    coefficients of the expansion's chord diagrams that surgery leaves
    without a circle.  The degree cap is checked first, as by wc' and
    wbcr."""
    check_degree(d.degree, k_max)
    if d.degree % 2 or d.has_legless_vertex():
        return ZERO
    return Fraction(sum(c for chords, c in _expand(d).items()
                        if _no_circle(_partner(chords))))


def wc_eval(v, k_max=K_MAX):
    """Linear extension of wc to diagram vectors."""
    check_degree(v.degree, k_max)
    return sum((c * wc_diagram(representative(key), k_max)
                for key, c in v.terms.items()), ZERO)


def _cycles(chords):
    """The cycle sum of the chord diagram `chords`: over the cyclic orders
    sigma of the chords, the sum of prod_i S[i][sigma(i)], where S is the
    signed intersection matrix read off the line positions, each chord a
    sorted pair.  The number of chords is even (an odd one sums to 0 by
    reversal, a zero `wc_prime_diagram` returns first); 0 at once for a
    chord that crosses no other (its row of S is 0).  Held-Karp
    recursion from chord 0: ``sums[mask]`` maps the chord a path through
    `mask` ends at to the signed sum of those paths; masks are taken in
    increasing order, so each is complete before it is extended, and
    dropped once it is.  Each step reads a row of S, and the closing one
    reads row 0 negated, S being skew.  The identity in place of the
    cumulant is in the module docstring; `bridge._cycle_sum` is the other
    side of the identity `verify prop32` checks and is not used here."""
    steps = [[(1 << j, j, s) for j, (c, e) in enumerate(chords)
              if (s := (a < c < b < e) - (c < a < e < b))]
             for a, b in chords]
    if not all(steps):
        return 0
    sums = [{} for _ in range(1 << len(chords))]
    sums[1][0] = 1
    for mask in range(1, len(sums) - 1, 2):
        ends, sums[mask] = sums[mask], None
        for last, val in ends.items():
            for bit, j, s in steps[last]:
                if not mask & bit:
                    nxt = sums[mask | bit]
                    nxt[j] = nxt.get(j, 0) + s * val
    return -sum(s * sums[-1].get(j, 0) for _, j, s in steps[0])


def wc_prime_diagram(d, k_max=K_MAX):
    """Logarithmic variant: the cumulant of wc over d's components.  The
    parity of the degree (the odd-k zero of the module docstring), the leg
    test and one walk over the components give the exact zeros; otherwise
    each chord diagram of the expansion adds its coefficient times its
    wc', the cycle sum with the sign (-1)^(k-1), which is -1 where the sum
    is not 0."""
    check_degree(d.degree, k_max)
    if (d.nv == 0 or d.degree % 2 or d.has_legless_vertex()
            or d.product_split() is not None):
        return ZERO
    return Fraction(-sum(c * _cycles(chords)
                         for chords, c in _expand(d).items()))


def wc_prime_eval(v, k_max=K_MAX):
    """Linear extension of wc' to diagram vectors.  A diagram in place of
    a vector stands for its class, such as a representative in hand, which
    knows its class without a search: a weight system takes the same
    value on a diagram and on its class, and a vanishing class is 0
    without an expansion."""
    check_degree(v.degree, k_max)
    if isinstance(v, JacobiDiagram):
        return wc_prime_diagram(v, k_max) if class_of(v)[1] else ZERO
    return sum((c * wc_prime_diagram(representative(key), k_max)
                for key, c in v.terms.items()), ZERO)
