"""Planar-diagram codes for knots.

A crossing line reads ``X(a,b,c,d)``: the four arc labels counterclockwise
starting from the incoming understrand, so the understrand runs a -> c and
the overstrand occupies b and d.  With arcs labeled 1..2n consecutively
along the knot, the overstrand direction (hence the crossing sign) follows
from which of b, d is the successor of the other; an explicit trailing
``+`` or ``-`` overrides the inference.  Positive means the overstrand runs
b -> d.  A `PDCode` is planar, however it is built: a virtual code, one
that no diagram in the plane realizes, raises `NotPlanar`.
"""

import re
from collections import Counter, namedtuple

from .errors import (ArcCountError, DanglingArc, MultiComponentError,
                     NotPlanar, ParseError)

Crossing = namedtuple("Crossing",
                      ["under_in", "over_a", "under_out", "over_b", "sign"])


class PDCode:
    """Validated planar single-component crossing list (possibly empty:
    unknot)."""

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        self.crossings = tuple(crossings)
        self._validate()

    def __len__(self):
        return len(self.crossings)

    def arcs(self):
        labels = set()
        for x in self.crossings:
            labels.update((x.under_in, x.over_a, x.under_out, x.over_b))
        return sorted(labels)

    def over_pair(self, x):
        """(incoming, outgoing) arcs of the overstrand at crossing x."""
        if x.sign > 0:
            return x.over_a, x.over_b
        return x.over_b, x.over_a

    def successor_map(self):
        succ = {}
        for x in self.crossings:
            succ[x.under_in] = x.under_out
            o_in, o_out = self.over_pair(x)
            succ[o_in] = o_out
        return succ

    def _validate(self):
        if not self.crossings:
            return
        counts = Counter()
        for x in self.crossings:
            counts.update((x.under_in, x.over_a, x.under_out, x.over_b))
        for arc, n in sorted(counts.items()):
            if n != 2:
                raise ArcCountError(arc, n)
        succ = self.successor_map()
        if len(succ) != len(counts):  # two strands leave one arc
            raise DanglingArc(min(set(counts) - set(succ)))
        start = min(succ)
        seen = {start}
        arc = succ[start]
        while arc != start:
            seen.add(arc)
            arc = succ[arc]
        if len(seen) != len(succ):
            n_comp = 1
            rest = set(succ) - seen
            while rest:
                n_comp += 1
                arc = rest.pop()
                while True:
                    arc = succ[arc]
                    if arc not in rest:
                        break
                    rest.remove(arc)
            raise MultiComponentError(n_comp)
        n_faces = _face_count(self)
        if n_faces != len(self) + 2:
            raise NotPlanar(n_faces, len(self))

    def mirror(self):
        """Swap over/under at every crossing (reverses all signs)."""
        return PDCode([Crossing(x.under_in, x.over_b, x.under_out, x.over_a,
                                -x.sign) for x in self.crossings])


_LINE = re.compile(
    r"^\s*X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*([+-]?)\s*$")


def _infer_sign(a, b, c, d, n_arcs):
    def is_succ(x, y):
        return y == (x % n_arcs) + 1
    b_to_d = is_succ(b, d)
    d_to_b = is_succ(d, b)
    if b_to_d and not d_to_b:
        return 1
    if d_to_b and not b_to_d:
        return -1
    if b_to_d and d_to_b:
        return 1  # a one-crossing curl; both readings give the unknot
    return 0


def parse_pd(text):
    """Parse one ``X(a,b,c,d)`` per line (blank lines and # comments ok)."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if not m:
            raise ParseError(ln, raw, "expected X(a,b,c,d) with optional "
                                      "+/- suffix")
        a, b, c, d = (int(m.group(i)) for i in range(1, 5))
        rows.append((ln, raw, a, b, c, d, m.group(5)))
    if not rows:
        return PDCode([])
    n_arcs = 2 * len(rows)
    crossings = []
    for (ln, raw, a, b, c, d, suffix) in rows:
        if suffix:
            sign = 1 if suffix == "+" else -1
        else:
            sign = _infer_sign(a, b, c, d, n_arcs)
            if sign == 0:
                raise ParseError(ln, raw, "cannot infer the crossing sign; "
                                          "add a +/- suffix")
        crossings.append(Crossing(a, b, c, d, sign))
    return PDCode(crossings)


def _face_count(pd):
    """Faces of the code's ribbon graph.  A face walk steps from corner
    (x, i) to the other occurrence (y, j) of label x[i], then on to corner
    (y, j+1 mod 4).  With n crossings and 2n arcs, Euler's formula makes
    the code planar exactly when there are n + 2 faces."""
    where = {}
    for x, c in enumerate(pd.crossings):
        for i, label in enumerate(c[:4]):
            where.setdefault(label, []).append((x, i))
    seen = set()
    faces = 0
    for start in ((x, i) for x in range(len(pd)) for i in range(4)):
        if start in seen:
            continue
        faces += 1
        corner = start
        while corner not in seen:
            seen.add(corner)
            x, i = corner
            first, second = where[pd.crossings[x][i]]
            y, j = second if first == corner else first
            corner = (y, (j + 1) % 4)
    return faces


def format_pd(pd):
    lines = []
    for x in pd.crossings:
        lines.append(f"X({x.under_in},{x.over_a},{x.under_out},{x.over_b}) "
                     f"{'+' if x.sign > 0 else '-'}")
    return "\n".join(lines) + ("\n" if lines else "")
