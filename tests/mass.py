"""Counting certificates of the class lists: the Jacobi lists by a mass
formula, the BCR lists by Burnside's lemma, the support by its component
kinds, and the line-only classes from the connected ones, both by the
exponential formula.

Count the labeled structures of degree k: u univalent vertices in line
order, t trivalent vertices with their half-edges labeled, and a pairing
of the u + 3t half-edges with no loop.  A class G is drawn by t! 6^t /
(|Aut G| prod m_ab!) of them, with m_ab the number of parallel edges
between a and b, so

  sum over classes G of 1 / (|Aut G| prod m_ab!)
      = sum over t of P(2k - t, t) / (t! 6^t),

where P(u, t) = sum_j (-1)^j C(t, j) 3^j (u + 3t - 2j - 1)!! counts the
pairings with no loop, by inclusion-exclusion over the j vertices given
one.  Vanishing classes count too.  A missing, duplicated or merged
class, or a lost automorphism generator, moves the left side.  |Aut G|
is taken by closure of the generators each representative keeps.

A BCR class of degree k is a word of L flavors, k <= L <= 2k and L >= 2,
up to rotation, with exactly 2k - L cyclically adjacent pairs that agree
(`enumerate.enumerate_bcr`).  A word fixed by the rotation of order L/g
repeats its first g letters L/g times, so those g letters, read
cyclically, have a = (2k - L) g / L agreeing pairs; such a cyclic word is
fixed by where its g - a changes of flavor fall, an even number, and its
first letter: N(g, a) = 2 C(g, g - a) words when g - a >= 0 is even, and
none otherwise, or when a is not an integer.  Burnside's lemma counts
the orbits,

  count(k) = sum over L of (1/L) sum over g | L of phi(L/g) N(g, a),

and a missing, duplicated or merged class moves it.

A class whose components all touch the line has automorphisms that fix
every univalent vertex, so they map each component to itself: the class
is a set partition of the line's positions with a connected class on
each block, relabeled in line order.  By the exponential formula, with
c(n, d) the connected line classes with n legs at degree d,

  (line-only classes with u legs at degree k)
      = u! [x^u y^k] exp(sum over n, d of c(n, d) x^n y^d / n!),

for every u and k.  A class is on the support when every trivalent
vertex has a leg, an edge to a univalent vertex.  Such a vertex has at
most two trivalent neighbours, so each component is a strut, a tripod, a
hairy path (two legs at each end vertex, one at each inner one) or a
hairy wheel (one leg at each vertex, of length 2 or more), and each
kind's automorphisms, with its legs unlabeled, number 2, 6, 8 and 2m (2
for the bubble, the wheel of length 2).  So the support classes of
degree k number sum over u of u! [x^u y^k] exp(F), where

  F = y x^2/2 + y^2 x^3/6 + y^2 x^2/2 + sum over m >= 2 of y^(m+1) x^(m+2)/8
      + sum over m >= 3 of y^m x^m/(2m)

counts the strut, the tripod, the bubble, the hairy paths with m
trivalent vertices and the hairy wheels with m.  A missing, duplicated
or merged class moves either count.

None of them needs pytest, so CI can run all four at a degree the test
suite does not:

    PYTHONPATH=src python tests/mass.py 6

The exit code is 0 only when both sides of every count are equal.
"""

import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd

from knotweights.enumerate import enumerate_bcr, enumerate_jacobi

from oracles import _jacobi_edge_aut_order


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def loopless_pairings(u, t):
    """P(u, t): pairings of u + 3t half-edges, three at each of t
    vertices, that join no vertex to itself."""
    return sum((-1) ** j * comb(t, j) * 3 ** j
               * _double_factorial(u + 3 * t - 2 * j - 1)
               for j in range(t + 1))


def expected_mass(k):
    return sum((Fraction(loopless_pairings(2 * k - t, t),
                         factorial(t) * 6 ** t)
                for t in range(2 * k + 1)), Fraction(0))


def class_mass(reps):
    return sum((Fraction(1, _jacobi_edge_aut_order(rep)) for rep in reps),
               Fraction(0))


def _flavor_cycles(g, a):
    """N(g, a): cyclic words of g flavors with a agreeing neighbour
    pairs."""
    changes = g - a
    return 2 * comb(g, changes) if changes >= 0 and changes % 2 == 0 else 0


def bcr_class_count(k):
    """The number of degree-k BCR classes, by Burnside's lemma over the
    rotations of each cycle length."""
    total = Fraction(0)
    for length in range(max(2, k), 2 * k + 1):
        for g in range(1, length + 1):
            agree, rest = divmod((2 * k - length) * g, length)
            if length % g or rest:
                continue
            r = length // g
            phi = sum(gcd(i, r) == 1 for i in range(1, r + 1))
            total += Fraction(phi * _flavor_cycles(g, agree), length)
    return total


def _exp(terms, k):
    """exp of the series sum c x^n y^d over ``terms = {(n, d): c}``, every
    d >= 1, up to y^k, as ``{(n, d): coefficient}``."""
    out = {(0, 0): Fraction(1)}
    power = dict(out)
    for j in range(1, k + 1):
        step = {}
        for (n1, d1), c1 in power.items():
            for (n2, d2), c2 in terms.items():
                if d1 + d2 <= k:
                    at = (n1 + n2, d1 + d2)
                    step[at] = step.get(at, 0) + c1 * c2
        power = step
        for at, c in power.items():
            out[at] = out.get(at, 0) + c / factorial(j)
    return out


def _labeled(terms, k):
    """u! [x^u y^k] exp(terms), keyed by u."""
    return {n: c * factorial(n) for (n, d), c in _exp(terms, k).items()
            if d == k and c}


def support_count(k):
    """The number of degree-k classes on the support, from F."""
    F = {(2, 1): Fraction(1, 2), (3, 2): Fraction(1, 6),
         (2, 2): Fraction(1, 2)}
    for m in range(2, k):
        F[(m + 2, m + 1)] = Fraction(1, 8)
    for m in range(3, k + 1):
        F[(m, m)] = Fraction(1, 2 * m)
    return sum(_labeled(F, k).values())


def _line_parts(rep):
    """The number of components of rep, or None when one of them does not
    touch the line."""
    uni = rep.univalent
    comps = rep.components()
    if all(uni.intersection(c) for c in comps):
        return len(comps)
    return None


def line_only_counts(k):
    """Per number of legs u, the degree-k classes whose components all
    touch the line, counted in the class list and by the exponential
    formula from the connected line classes of degrees 1..k:
    ``(listed, formula)``."""
    connected = Counter()
    listed = Counter()
    for d in range(1, k + 1):
        for rep in enumerate_jacobi(d, k_max=k):
            parts = _line_parts(rep)
            if parts == 1:
                connected[(len(rep.univalent_order), d)] += 1
            if d == k and parts:
                listed[len(rep.univalent_order)] += 1
    terms = {(n, d): Fraction(c, factorial(n))
             for (n, d), c in connected.items()}
    return dict(listed), _labeled(terms, k)


def main(args):
    k = int(args[0])
    got = class_mass(enumerate_jacobi(k, k_max=k))
    want = expected_mass(k)
    print(f"degree {k}: Jacobi classes {got}, labeled structures {want}")
    bcr_got = len(enumerate_bcr(k, k_max=k)) if k else 0
    bcr_want = bcr_class_count(k)
    print(f"degree {k}: BCR classes {bcr_got}, rotation orbits {bcr_want}")
    ok = got == want and bcr_got == bcr_want
    if k:
        sup_got = sum(not rep.has_legless_vertex()
                      for rep in enumerate_jacobi(k, k_max=k))
        sup_want = support_count(k)
        print(f"degree {k}: support classes {sup_got}, from F {sup_want}")
        listed, formula = line_only_counts(k)
        print(f"degree {k}: line-only classes {sum(listed.values())}, "
              f"from the connected ones {sum(formula.values())}")
        ok = ok and sup_got == sup_want and listed == formula
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
