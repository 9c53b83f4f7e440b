"""The circle-counting weight system, the quotient algebra, and the
logarithmic variant.

Run:  python demos/weight_systems.py
"""

from knotweights import (chord_diagram, count_circles, dims_table,
                         empty_diagram, generate_relations, product,
                         single_chord, wc_eval, wheel)
from knotweights.conway import wc_diagram, wc_prime_diagram

# On a chord diagram the weight is decided by surgery: cut the line at the
# two endpoints of every chord and reconnect crosswise, then count closed
# circles.  Weight 1 exactly when nothing closes up.
print("circles after surgery:")
for pairs in ([(1, 2)], [(1, 3), (2, 4)], [(1, 2), (3, 4)]):
    d = chord_diagram(pairs)
    print(f"  chords {pairs}: {count_circles(d)} circles "
          f"-> weight {wc_diagram(d)}")

# Diagrams with trivalent vertices reduce to chord diagrams through the
# two-term resolution; the wheel family alternates between -2 and 0.  The
# degree cap (default 4) is raised to reach the larger wheels.
print()
print("wheels:")
for k in range(2, 9):
    print(f"  wc(wheel_{k}) = {wc_diagram(wheel(k), k_max=8)}")

# The weight is constant on the quotient by the local relations; every
# generated relator evaluates to zero.
rels = generate_relations(2)
print()
print(f"degree-2 relators: {len(rels)}, all evaluate to 0:",
      all(wc_eval(v) == 0 for v in rels.vectors()))

# The quotient splits into connected-with-leg classes, products, and
# trivalent-component classes; dimensions per degree:
print()
for k in range(0, 4):
    t = dims_table(k)
    print(f"degree {k}: dim A = {t['dim_A']}  "
          f"(P {t['dim_P']}, N {t['dim_N']}, T {t['dim_T']})")

# The logarithmic variant is the cumulant of wc over connected components;
# it agrees with wc after projecting onto the connected summand, so
# products and the empty class die, though wc is 1 on the empty class:
seq = product(single_chord(), single_chord())
print()
print("wc(chord x chord) =", wc_diagram(seq),
      "   wc'(chord x chord) =", wc_prime_diagram(seq))
print("wc'(wheel_2) =", wc_prime_diagram(wheel(2)))
print("wc(empty) =", wc_diagram(empty_diagram()),
      "   wc'(empty) =", wc_prime_diagram(empty_diagram()))
