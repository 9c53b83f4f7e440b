"""The circle-counting weight system and its logarithmic variant.

A chord diagram is evaluated by surgering the line along every chord: cut
at the two endpoints and reconnect crosswise, so the arc before one
endpoint continues into the arc after its partner.  The diagram weighs 1
when no closed circle remains and 0 otherwise.  wc is a weight system,
so it is evaluated by STU on the diagram's own labels, with no class
lookup: a diagram with trivalent vertices is rewritten into chord diagrams
by resolving, at each step, the trivalent vertex attached to the lowest
univalent vertex, and the two resolutions enter with opposite signs.
Diagrams with a purely trivalent component weigh 0 outright.  The linear
extensions to diagram vectors evaluate each class on its representative.

The logarithmic variant wc' is the cumulant of wc over connected
components: on a diagram D,

  wc'(D) = sum over set partitions pi of the components of D of
           (-1)^(|pi|-1) (|pi|-1)! prod_{B in pi} wc(D_B),

where D_B keeps the components in block B.  Primitives are spanned by
connected diagrams, the coproduct splits the set of components, and wc is
multiplicative, so this equals wc composed with the projection onto the
connected summand (``quotient.project_pc``, kept as the test oracle).  It
kills the empty class and every non-trivial product.
"""

from fractions import Fraction
from math import factorial

from .enumerate import K_MAX, check_degree
from .errors import VertexTypeViolation
from .jacobi import representative, stu_expand, stu_sites, sub_diagram

ZERO = Fraction(0)
ONE = Fraction(1)


def as_chord_diagram(d):
    if not d.is_chord_diagram():
        raise VertexTypeViolation(d.trivalent[0], "not a chord diagram")
    return d


def count_circles(d):
    """Circles left after surgering the line along every chord."""
    as_chord_diagram(d)
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


def _resolve(d):
    """wc of a diagram whose every component has a univalent vertex."""
    if d.is_chord_diagram():
        return ONE if count_circles(d) == 0 else ZERO
    t, u = stu_sites(d)[0]  # the site at the lowest univalent vertex
    d1, d2 = stu_expand(d, t, u)
    return _resolve(d1) - _resolve(d2)


def wc_diagram(d):
    """Circle-counting weight of an oriented diagram (exact rational)."""
    # STU never creates a purely trivalent component: the two new line
    # vertices each keep a piece of the resolved component, so one check
    # here covers the whole recursion.
    if d.has_trivalent_component():
        return ZERO
    return _resolve(d)


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
    comps = d.components()
    if not comps:
        return ZERO
    if len(comps) == 1:
        return wc_diagram(d)
    block_wc = {}
    total = ZERO
    for part in _set_partitions(list(range(len(comps)))):
        n = len(part)
        term = Fraction((-1) ** (n - 1) * factorial(n - 1))
        for block in part:
            block = tuple(block)
            w = block_wc.get(block)
            if w is None:
                w = wc_diagram(sub_diagram(
                    d, [v for i in block for v in comps[i]]))
                block_wc[block] = w
            term *= w
            if not term:
                break
        total += term
    return total


def wc_prime_eval(v, k_max=K_MAX):
    """Linear extension of wc' to diagram vectors."""
    check_degree(v.degree, k_max)
    return sum((c * wc_prime_diagram(representative(key), k_max)
                for key, c in v.terms.items()), ZERO)
