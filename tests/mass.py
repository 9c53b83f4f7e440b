"""The mass-formula certificate of the Jacobi class lists.

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
is taken by closure of the generators each representative keeps.  It
needs no pytest, so CI can run it at a degree the test suite does not:

    PYTHONPATH=src python tests/mass.py 6

The exit code is 0 only when both sides are equal.
"""

import sys
from fractions import Fraction
from math import comb, factorial

from knotweights.enumerate import enumerate_jacobi

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


def main(args):
    k = int(args[0])
    got = class_mass(enumerate_jacobi(k, k_max=k))
    want = expected_mass(k)
    print(f"degree {k}: classes {got}, labeled structures {want}")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
