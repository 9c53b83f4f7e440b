"""Edge substitution by two-legged diagrams.

`splice` cuts chosen edges of a diagram and glues into each a diagram with
exactly two univalent vertices: the edge's endpoints inherit the insert's
first and second univalent vertex (in the order the edge pair is stored).
`default_edge_selection` picks, in every connected component, as many
edges as the component's degree, the edges the framing anomaly is
substituted into.  Of the doubled anomaly only the degree-1 part, a bare
chord, is in the program, and splicing a bare chord restores the edge, so
`verify_wc_psi` checks wc(D) = wc(D) on every class; a check with content
waits for the higher-degree parts.  wc is a weight system, so both sides
are `wc_diagram` on the diagrams as built, with no class search.
"""

from .conway import wc_diagram
from .enumerate import K_MAX, enumerate_jacobi
from .jacobi import JacobiDiagram, single_chord


def default_edge_selection(d):
    """Lowest edge indices per component, one per unit of its degree."""
    comps, comp_of = d.component_map()
    per_comp = [[] for _ in comps]
    for i, (a, _b) in enumerate(d.edges):
        per_comp[comp_of[a]].append(i)
    return sorted(i for comp, edges in zip(comps, per_comp)
                  for i in edges[:len(comp) // 2])


def splice(d, assignment):
    """Replace each assigned edge by a two-legged diagram.

    `assignment` maps edge indices of `d` to two-legged representatives.
    The edge (a, b) is removed and a is glued where the insert's first
    univalent vertex sat, b where the second sat; a bare chord therefore
    restores the edge.  Inserted trivalent vertices keep their cyclic
    orders.
    """
    edges = []
    emap = {}           # surviving host edge -> new index
    host_half = {}      # (host edge, end) -> new half for spliced edges
    orient_new = {}
    nv = d.nv

    for i, (a, b) in enumerate(d.edges):
        if i not in assignment:
            emap[i] = len(edges)
            edges.append((a, b))

    for e in sorted(assignment):
        a, b = d.edges[e]
        ins = assignment[e]
        l1, l2 = ins.univalent_order
        (h1,) = ins.incident(l1)
        (h2,) = ins.incident(l2)
        base = len(edges)
        lmap = {}
        for v in range(ins.nv):
            if v not in (l1, l2):
                lmap[v] = nv
                nv += 1
        for (u, v) in ins.edges:
            u2 = a if u == l1 else b if u == l2 else lmap[u]
            v2 = a if v == l1 else b if v == l2 else lmap[v]
            edges.append((u2, v2))
        host_half[(e, 0)] = (base + h1[0], h1[1])
        host_half[(e, 1)] = (base + h2[0], h2[1])
        for v, cyc in ins.orient.items():
            orient_new[lmap[v]] = tuple((base + ej, end) for (ej, end) in cyc)

    def map_half(h):
        e, end = h
        if e in emap:
            return (emap[e], end)
        return host_half[(e, end)]

    for v, cyc in d.orient.items():
        orient_new[v] = tuple(map_half(h) for h in cyc)
    return JacobiDiagram(nv, d.univalent_order, edges, orient_new,
                         validate=False)


def verify_wc_psi(k, k_max=K_MAX):
    """Compare wc of each degree-k class representative with wc of the
    diagram with a bare chord spliced into every edge of its default
    selection, both under the cap `k_max`."""
    chord = single_chord()
    rows = []
    for rep in enumerate_jacobi(k, k_max=k_max):
        spliced = splice(rep, dict.fromkeys(default_edge_selection(rep),
                                            chord))
        if spliced.degree != rep.degree:
            raise ArithmeticError(
                f"splice produced degree {spliced.degree}, expected "
                f"{rep.degree}")
        lhs = wc_diagram(spliced, k_max)
        rhs = wc_diagram(rep, k_max)
        rows.append({"lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
    return rows
