"""A tour of the two diagram families and their enumeration.

Run:  python demos/enumerate_diagrams.py
"""

from knotweights import (canonical_key, degree_one_bcr, enumerate_bcr,
                         enumerate_jacobi, single_chord, theta_graph,
                         validate_bcr, wheel, wheel_bcr)
from knotweights.bcr import EXTERNAL, INTERNAL

# Jacobi diagrams live on an ordered line of univalent vertices, with
# trivalent vertices floating above it.  The smallest ones:
print("== Jacobi diagrams ==")
print("single chord:  degree", single_chord().degree,
      " chords:", single_chord().chords())
print("theta graph:   degree", theta_graph().degree,
      " (two trivalent vertices, a triple edge, no legs)")
w2 = wheel(2)
print("wheel_2:       degree", w2.degree, " edges:", w2.edges)

# Degree by degree, one representative per isomorphism class.  Univalent
# vertices are pinned to their line positions; trivalent vertices and
# parallel edges may be permuted freely.
for k in range(0, 4):
    classes = enumerate_jacobi(k)
    conn = [d for d in classes if d.is_connected()]
    print(f"degree {k}: {len(classes):3d} classes "
          f"({len(conn)} connected)")

# BCR diagrams are directed: one cycle whose edges come in two flavors,
# with legs feeding the trivalent cycle vertices.  The degree-1 diagram is
# a two-vertex cycle, one flavor each way:
print()
print("== BCR diagrams ==")
d1 = degree_one_bcr()
print("degree 1:", d1.edges, " vertex types:", d1.type_of)

# The wheel sources: an external cycle with one leg per cycle vertex.
w = wheel_bcr(3)
print("wheel source, degree 3: cycle", w.cycle, " legs", w.legs)

# Any directed graph with the right local structure validates; here is the
# all-internal cycle with two legs (the degree-2 "solid" source):
e = [(0, 1, INTERNAL), (1, 0, INTERNAL), (2, 0, EXTERNAL), (3, 1, EXTERNAL)]
solid = validate_bcr(4, [], e)
print("solid 2-cycle types:", solid.type_of)

for k in range(1, 5):
    print(f"degree {k}: {len(enumerate_bcr(k)):3d} classes")

# Canonical keys are equal exactly for isomorphic diagrams, so they drive
# all the deduplication above.
print()
print("key(wheel_2) == key(wheel_2):",
      canonical_key(wheel(2)) == canonical_key(wheel(2)))
print("key(wheel_2) == key(wheel_3):",
      canonical_key(wheel(2)) == canonical_key(wheel(3)))
