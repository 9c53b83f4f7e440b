"""JSON encoding of diagrams with a stable field layout.

Schema (both kinds):

  {"kind": "jacobi" | "bcr",
   "vertices": [{"id": int, "class": str, "orient": [h, h, h]?}, ...],
   "edges":    [{"id": int, "from": int, "to": int, "class": str,
                 "number": int?}, ...],
   "univalent_order": [int, ...]?}

Vertex classes are "univalent"/"trivalent" or "internal"/"external"; edge
classes are "plain" for Jacobi diagrams and "internal"/"external" for BCR
diagrams.  A half-edge id is 2*edge_id + end, with end 0 on the "from"
side.  Vertices and edges are listed by ascending id and keys are written
in the order above, so equal diagrams serialize to equal bytes.
"""

import json

from .bcr import BCRDiagram, validate_bcr
from .errors import ParseError
from .jacobi import JacobiDiagram


def _half_id(half):
    e, end = half
    return 2 * e + end


def _half_from_id(h):
    return (h // 2, h % 2)


def jacobi_to_obj(d):
    uni = d.univalent
    vertices = []
    for v in range(d.nv):
        row = {"id": v,
               "class": "univalent" if v in uni else "trivalent"}
        if v in d.orient:
            row["orient"] = [_half_id(h) for h in d.orient[v]]
        vertices.append(row)
    edges = []
    for i, (a, b) in enumerate(d.edges):
        row = {"id": i, "from": a, "to": b, "class": "plain"}
        if d.numbering is not None:
            row["number"] = d.numbering[i]
        edges.append(row)
    return {"kind": "jacobi", "vertices": vertices, "edges": edges,
            "univalent_order": list(d.univalent_order)}


def bcr_to_obj(d):
    vertices = [{"id": v,
                 "class": "external" if v in d.external else "internal"}
                for v in range(d.nv)]
    edges = [{"id": i, "from": a, "to": b, "class": cls}
             for i, (a, b, cls) in enumerate(d.edges)]
    return {"kind": "bcr", "vertices": vertices, "edges": edges}


def to_json(d, indent=None):
    if isinstance(d, JacobiDiagram):
        obj = jacobi_to_obj(d)
    elif isinstance(d, BCRDiagram):
        obj = bcr_to_obj(d)
    else:
        raise TypeError(f"cannot serialize {type(d).__name__}")
    return json.dumps(obj, indent=indent, separators=(",", ":")
                      if indent is None else None) + "\n"


def from_obj(obj):
    """The diagram an object encodes; a malformed object is a ParseError."""
    try:
        return _decode(obj)
    except KeyError as exc:
        raise ParseError(0, "diagram", f"missing field {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ParseError(0, "diagram", f"malformed: {exc}") from None


def _decode(obj):
    kind = obj.get("kind")
    vertices = sorted(obj["vertices"], key=lambda r: r["id"])
    edges_rows = sorted(obj["edges"], key=lambda r: r["id"])
    nv = len(vertices)
    if [r["id"] for r in vertices] != list(range(nv)):
        raise ParseError(0, "vertices", "ids must cover 0..n-1")
    if kind == "jacobi":
        edges = [(r["from"], r["to"]) for r in edges_rows]
        orient = {}
        for r in vertices:
            if "orient" in r:
                orient[r["id"]] = tuple(_half_from_id(h)
                                        for h in r["orient"])
        numbering = None
        if any("number" in r for r in edges_rows):
            numbering = {r["id"]: r["number"] for r in edges_rows}
        return JacobiDiagram(nv, obj["univalent_order"], edges, orient,
                             numbering)
    if kind == "bcr":
        external = [r["id"] for r in vertices if r["class"] == "external"]
        edges = [(r["from"], r["to"], r["class"]) for r in edges_rows]
        return validate_bcr(nv, external, edges)
    raise ParseError(0, str(kind), "kind must be 'jacobi' or 'bcr'")


def from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, "diagram JSON",
                         f"{exc.msg} at column {exc.colno}") from None
    return from_obj(obj)
