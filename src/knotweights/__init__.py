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
from .vectors import DiagramVector, GradedSeries, algebra_product, graded_exp, vector_of

from .bcr import bcr_key as _bcr_key
from .jacobi import class_of as _class_of


def canonical_key(d):
    """Bytes identifying a diagram up to structure-preserving isomorphism."""
    if isinstance(d, BCRDiagram):
        return key_bytes(_bcr_key(d))
    return key_bytes(_class_of(d, with_numbering=d.numbering is not None)[0])
