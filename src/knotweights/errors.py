"""Exception types raised by diagram validation and the quotient machinery."""


class DiagramError(ValueError):
    """Base class for all structural errors in this package."""


class EmptyGraph(DiagramError):
    pass


class Disconnected(DiagramError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"graph is not connected (vertex {vertex} unreachable)")


class LoopEdge(DiagramError):
    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge} joins a vertex to itself")


class VertexTypeViolation(DiagramError):
    def __init__(self, vertex, reason=""):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no admissible local type"
                         + (f": {reason}" if reason else ""))


class CycleStructureViolation(DiagramError):
    def __init__(self, element, reason=""):
        self.element = element
        super().__init__(f"cycle/leg decomposition fails at {element}"
                         + (f": {reason}" if reason else ""))


class InvalidNumbering(DiagramError):
    pass


class DegreeOutOfRange(DiagramError):
    def __init__(self, degree, k_max, lowest=0):
        self.degree = degree
        self.k_max = k_max
        super().__init__(
            f"degree {degree} outside supported range [{lowest}, {k_max}]")


class NonzeroConstantTerm(DiagramError):
    pass


class NotIsomorphic(DiagramError):
    pass


class AmbiguousIsomorphism(DiagramError):
    """An orientation-reversing symmetry makes the matching sign ill-defined."""


class BadSelection(DiagramError):
    pass


class ParseError(DiagramError):
    def __init__(self, line_no, text, reason=""):
        self.line_no = line_no
        self.text = text
        super().__init__(f"line {line_no}: cannot parse {text!r}"
                         + (f" ({reason})" if reason else ""))


class ArcCountError(DiagramError):
    def __init__(self, arc, count):
        self.arc = arc
        self.count = count
        super().__init__(f"arc {arc} appears {count} times (expected 2)")


class MultiComponentError(DiagramError):
    def __init__(self, n_components):
        self.n_components = n_components
        super().__init__(f"diagram has {n_components} components (expected 1)")


class DegenerateDiagram(DiagramError):
    pass


class NonUnitConstantTerm(DiagramError):
    pass
