"""Exact diagram combinatorics for knot weight systems.

The package enumerates Jacobi and BCR diagrams, builds the graded quotient
algebra of Jacobi classes with exact rational arithmetic, evaluates the
circle-counting (Conway) weight system and its logarithmic variant, counts
signed ordered BCR sources of Jacobi classes, and extracts formal series
invariants from Alexander polynomials computed over PD codes.
"""

__version__ = "1.0.0"

from .bcr import BCRDiagram, degree_one_bcr, validate_bcr, wheel_bcr
from .bridge import (epsilon, epsilon2, epsilon3, jacobi_of, orderings,
                     verify_main, verify_stu, wbcr)
from .conway import (count_circles, wc_diagram, wc_eval, wc_prime_diagram,
                     wc_prime_eval)
from .enumerate import K_MAX, enumerate_bcr, enumerate_jacobi
from .jacobi import (JacobiDiagram, canonicalize, chord_diagram,
                     empty_diagram, key_bytes, make_diagram, product,
                     single_chord, theta_graph, validate_jacobi, wheel)
from .quotient import dims_table, quotient_basis
from .relations import generate_relations
from .vectors import DiagramVector, vector_of

from .bcr import bcr_key as _bcr_key
from .jacobi import class_of as _class_of
from .jacobi import class_of_parts as _class_of_parts


def canonical_key(d):
    """Bytes identifying a diagram up to structure-preserving isomorphism,
    its edge numbering, when it has one, included; a diagram with a loop
    has no class and gives ``b"None"``."""
    if isinstance(d, BCRDiagram):
        return key_bytes(_bcr_key(d))
    if d.numbering is None or any(a == b for a, b in d.edges):
        return key_bytes(_class_of(d)[0])
    tags = [d.numbering[i] for i in range(len(d.edges))]
    return key_bytes(_class_of_parts(d.nv, d.univalent_order, d.edges, (),
                                     tags)[0])
