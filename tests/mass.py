"""Counting certificates of the class lists: the Jacobi lists by a mass
formula, the BCR lists by Burnside's lemma.

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

Neither needs pytest, so CI can run both at a degree the test suite does
not:

    PYTHONPATH=src python tests/mass.py 6

The exit code is 0 only when both sides of both counts are equal.
"""

import sys
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


def main(args):
    k = int(args[0])
    got = class_mass(enumerate_jacobi(k, k_max=k))
    want = expected_mass(k)
    print(f"degree {k}: Jacobi classes {got}, labeled structures {want}")
    bcr_got = len(enumerate_bcr(k, k_max=k)) if k else 0
    bcr_want = bcr_class_count(k)
    print(f"degree {k}: BCR classes {bcr_got}, rotation orbits {bcr_want}")
    return 0 if got == want and bcr_got == bcr_want else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
