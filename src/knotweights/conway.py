"""The circle-counting weight system and its logarithmic variant.

A chord diagram is evaluated by surgering the line along every chord: cut
at the two endpoints and reconnect crosswise, so the arc before one
endpoint continues into the arc after its partner.  The diagram weighs 1
when no closed circle remains and 0 otherwise.  wc is a weight system,
so a diagram with trivalent vertices is evaluated by STU on its own labels
[Bar-Natan, On the Vassiliev knot invariants, Topology 34 (1995)], with no
class lookup.

Each connected component is STU-expanded once, on plain arrays edited in
place and restored on return: a univalent vertex next to a trivalent
vertex t is resolved, t becomes a line vertex just before it, and the two
resolutions enter with opposite signs.  The new line vertices all sit
beside original legs, so an endpoint is named by the key (original line
position, index among the vertices beside it), and the keys of different
components interleave exactly as on the line.  A component's expansion is
a signed set of chord lists, and wc of any union of components is the sum,
over one chord list per component, of the product of the coefficients
whenever the merged chord diagram leaves no circle.  A component with no
univalent vertex makes wc vanish outright.  The linear extensions to
diagram vectors evaluate each class on its representative.

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
components fall into two groups, one wholly before the other on the line,
is 0 without an expansion, as is one with a purely trivalent component.
The block values are shared by the partitions of one call.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

from .enumerate import K_MAX, check_degree
from .errors import VertexTypeViolation
from .jacobi import representative

ZERO = Fraction(0)


def count_circles(d):
    """Circles left after surgering the line along every chord."""
    if not d.is_chord_diagram():
        raise VertexTypeViolation(d.trivalent[0], "not a chord diagram")
    n = d.nv
    partner = {}
    for (i, j) in d.chords():
        partner[i] = j
        partner[j] = i
    # arcs 0..n: arc p-1 ends at point p and continues into the arc after
    # the partner of p
    succ = {p - 1: partner[p] for p in range(1, n + 1)}
    visited = set()
    arc = 0
    while arc in succ:  # the line component, from the -infinity arc
        visited.add(arc)
        arc = succ[arc]
    visited.add(arc)
    circles = 0
    for start in range(n + 1):
        if start in visited:
            continue
        circles += 1
        arc = start
        while arc not in visited:
            visited.add(arc)
            arc = succ[arc]
    return circles


def _no_circle(chords):
    """Whether surgery along `chords`, pairs of endpoint keys that sort in
    line order, leaves no circle.  Arc i ends at point i and continues
    into the arc after that point's partner; the walk from the first arc
    reaches the last one, and it covers every arc exactly when no circle
    is left."""
    points = sorted([p for chord in chords for p in chord])
    at = {p: i for i, p in enumerate(points)}
    partner = [0] * len(points)
    for a, b in chords:
        i, j = at[a], at[b]
        partner[i] = j
        partner[j] = i
    n = len(points)
    arc = steps = 0
    while arc != n:
        arc = partner[arc] + 1
        steps += 1
    return steps == n


class _Expansion:
    """The components of a diagram on plain arrays, ready to expand.

    Half-edge h = 2 * edge + end sits at vertex ``ends[h]``; ``leg[v]`` is
    the half-edge at a line vertex v and ``cyc[t]`` the cyclic order at a
    trivalent vertex t.  ``beside[p]`` lists, in line order, the vertices
    beside the original leg at line position p, and ``at[v]`` is that p.
    """

    def __init__(self, d):
        self.ends = [v for pair in d.edges for v in pair]
        self.cyc = {t: tuple(2 * e + end for (e, end) in c)
                    for t, c in d.orient.items()}
        self.at = [None] * d.nv
        self.beside = []
        for p, v in enumerate(d.univalent_order):
            self.at[v] = p
            self.beside.append([v])
        self.leg = {v: h for h, v in enumerate(self.ends)
                    if self.at[v] is not None}
        self.width = d.nv + 1
        self.comps = d.components()

    def legged(self):
        """Whether every component has a univalent vertex."""
        at = self.at
        return all(any(at[v] is not None for v in c) for c in self.comps)

    def splits(self):
        """Whether the components fall into two non-empty groups with every
        leg of the first before every leg of the second (all legged)."""
        last = {}
        comp_at = []
        for i, c in enumerate(self.comps):
            for v in c:
                p = self.at[v]
                if p is not None:
                    last[i] = max(last.get(i, p), p)
                    comp_at.append((p, i))
        comp_at.sort()
        reach = -1
        for p, i in comp_at[:-1]:
            reach = max(reach, last[i])
            if reach == p:
                return True
        return False

    def terms(self, comp):
        """The STU expansion of one legged component: {chords: coefficient},
        each chord a sorted pair of endpoint keys."""
        ends, cyc, at, beside, leg = (self.ends, self.cyc, self.at,
                                      self.beside, self.leg)
        legs = [v for v in comp if at[v] is not None]
        spots = sorted(at[v] for v in legs)
        width = self.width
        order = self._resolution_order(legs)
        key = [0] * len(at)
        out = {}

        def expand(depth, sign):
            if depth == len(order):
                for p in spots:
                    for i, v in enumerate(beside[p], p * width):
                        key[v] = i
                chords = []
                for v in legs:
                    a, b = key[v], key[ends[leg[v] ^ 1]]
                    if a < b:
                        chords.append((a, b))
                chords = tuple(sorted(chords))
                out[chords] = out.get(chords, 0) + sign
                return
            t = order[depth]
            c = cyc.pop(t)
            for i, h in enumerate(c):
                u = ends[h ^ 1]
                if at[u] is not None:
                    break
            alpha, beta = c[i - 2], c[i - 1]  # (to u, alpha, beta) cyclically
            to_u = leg[u]
            line = beside[at[u]]
            j = line.index(u)
            line.insert(j, t)
            at[t] = at[u]
            legs.append(t)
            for keep, move, s in ((alpha, beta, sign), (beta, alpha, -sign)):
                leg[t], leg[u] = keep, move
                ends[move] = u
                expand(depth + 1, s)
                ends[move] = t
            leg[u] = to_u
            del leg[t]
            legs.pop()
            at[t] = None
            del line[j]
            cyc[t] = c

        expand(0, 1)
        return {chords: c for chords, c in out.items() if c}

    def _resolution_order(self, legs):
        """The trivalent vertices by distance from the legs.  Resolving a
        vertex leaves each of its other neighbors next to a line vertex,
        whichever term is taken, so every vertex in this order has a
        univalent neighbor when its turn comes."""
        ends, cyc = self.ends, self.cyc
        order = []
        seen = set(legs)
        frontier = legs
        while frontier:
            nxt = []
            for v in frontier:
                halves = cyc[v] if v in cyc else (self.leg[v],)
                for h in halves:
                    w = ends[h ^ 1]
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            order += nxt
            frontier = nxt
        return order


def _block_wc(terms):
    """wc of a union of expanded components: one chord list from each."""
    if len(terms) == 1:
        return sum(c for chords, c in terms[0].items() if _no_circle(chords))
    total = 0
    for choice in product(*(t.items() for t in terms)):
        if _no_circle([ch for chords, _ in choice for ch in chords]):
            total += prod(c for _, c in choice)
    return total


def wc_diagram(d):
    """Circle-counting weight of an oriented diagram (exact rational)."""
    ex = _Expansion(d)
    if not ex.legged():
        return ZERO
    return Fraction(_block_wc([ex.terms(c) for c in ex.comps]))


def wc_eval(v):
    """Linear extension of wc to diagram vectors."""
    return sum((c * wc_diagram(representative(key))
                for key, c in v.terms.items()), ZERO)


def _set_partitions(items):
    """Every set partition of a list, each as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def wc_prime_diagram(d, k_max=K_MAX):
    """Logarithmic variant: the cumulant of wc over d's components."""
    check_degree(d.degree, k_max)
    ex = _Expansion(d)
    if not ex.comps or not ex.legged() or ex.splits():
        return ZERO
    terms = [ex.terms(c) for c in ex.comps]
    block_wc = {}
    total = 0
    for part in _set_partitions(list(range(len(terms)))):
        n = len(part)
        term = (-1) ** (n - 1) * factorial(n - 1)
        for block in part:
            block = tuple(block)
            w = block_wc.get(block)
            if w is None:
                w = block_wc[block] = _block_wc([terms[i] for i in block])
            term *= w
            if not term:
                break
        total += term
    return Fraction(total)


def wc_prime_eval(v, k_max=K_MAX):
    """Linear extension of wc' to diagram vectors."""
    check_degree(v.degree, k_max)
    return sum((c * wc_prime_diagram(representative(key), k_max)
                for key, c in v.terms.items()), ZERO)
