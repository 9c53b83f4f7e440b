"""Counting ordered, numbered cycle-with-legs sources of a Jacobi diagram.

Every total order of a source's internal vertices induces a Jacobi diagram
(keep the external edges, orient each cycle vertex by cycle-in, cycle-out,
leg).  Weighted with three signs and a power of two, the count of sources
inducing a given diagram recovers minus the logarithmic circle weight --
checked here class by class.

Run:  python demos/source_counting.py
"""

from knotweights import (enumerate_bcr, epsilon, epsilon2, epsilon3,
                         jacobi_of, orderings, verify_main, verify_stu,
                         wbcr, wheel, wheel_bcr)
from knotweights.bcr import degree_one_bcr
from knotweights.jacobi import class_of

# The degree-1 source has two orderings of its two internal vertices; the
# rank-comparison sign makes them cancel,
d1 = degree_one_bcr()
terms = [epsilon(d1) * epsilon2(d1, rho) for rho in orderings(d1)]
print("degree-1 signed terms:", terms, "-> sum", sum(terms))

# ... while the wheel sources contribute twice with equal signs in even
# degree and cancel in odd degree:
for k in (2, 3):
    w = wheel_bcr(k)
    uni = sorted(w.legs.values())
    rho_a = {v: i + 1 for i, v in enumerate(uni)}
    rho_b = {v: i + 1 for i, v in enumerate(uni[::-1])}
    print(f"wheel_{k}: eps = {epsilon(w)}, "
          f"eps3(forward) = {epsilon3(wheel(k), w, rho_a)}, "
          f"eps3(reversed) = {epsilon3(wheel(k), w, rho_b)}, "
          f"weight = {wbcr(wheel(k))}")

# The induced diagram forgets edge directions but keeps vertex orientation
# data; the reversed ordering flips every cycle vertex:
w = wheel_bcr(2)
uni = sorted(w.legs.values())
jd = jacobi_of(w, {v: i + 1 for i, v in enumerate(uni)})
print("induced degree-2 diagram matches the wheel class:",
      class_of(jd)[0] == class_of(wheel(2))[0])

# The weighted count is a linear form on the quotient: it satisfies every
# two-term relation, kills products, and agrees with minus the logarithmic
# circle weight on every class.
for k in (2, 3):
    rows = verify_stu(k)
    print(f"degree {k}: {len(rows)} relation checks pass:",
          all(r['equal'] for r in rows))
for k in (1, 2, 3):
    rows = verify_main(k)
    print(f"degree {k}: weight == -wc' on all {len(rows)} classes:",
          all(r['equal'] for r in rows))

print()
print("source classes per degree:", {k: len(enumerate_bcr(k)) for k in (1, 2, 3, 4)})
