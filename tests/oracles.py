"""Naive generate-and-filter enumerations used to cross-check the fast
generators, the BCR classes by a scan over words of four cycle pieces, the
wheel and degree-one BCR diagrams written out edge by edge, the legs and the
Jacobi diagram an ordering induces by scans over every edge, the Jacobi
enumeration without its swap filter and with every candidate searched,
none joined from its parts, the swap filter by a relabeling
array per swap, the multigraph search by nested generators that concatenate
edge lists, every multigraph kept and then those with closed components
apart from the rest dropped by a component scan, and its candidates as
validated diagrams, the relators listed at
every local site and class by class with every term searched on the whole
diagram, a dense rank for the sparse eliminator and the sparse
eliminator normalizing every row in Fractions, the canonical labeling search
without automorphism pruning, on directed graphs too, and with it but
without the least-sibling cut, the order of a permutation group by closure,
the orientation sign read through a sorted edge map, the default
orientation by sorting each vertex's half-edges, the product split by a
scan over every cut of the line, the P + N + T splitting with N spanned by
products and its projection onto the connected summand P, the STU and IHX
moves that renumber their terms or scan for the moving half-edges, the
surgery circle count by a walk over a successor dict and as a corank
over GF(2) on every labeled chord diagram, a chord diagram's signed
intersection matrix with its determinant by elimination and its cycle sum
over every cyclic order, the boundary components of its band surface as
the faces of a ribbon graph, the circle-counting weight and its cumulant
by a class-keyed, memoized STU recursion and as a sum over set partitions
with each block rebuilt and resolved by STU on the whole block once, the
BCR sources of a diagram listed one by one, their cycle sum by a
recursion with one dict per layer, the weighted source count by a scan
over every ordering of every BCR
class, the Alexander determinant by expansion in minors, the skein
recursion on mutable crossing lists, the substitution t = e^h with a
Fraction per term and order, and the logarithm and exponential of a power
series as sums of powers.  Everything here works by exhausting a
finite search space and keeping what passes an independently coded validity
test, or by textbook elimination."""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, groupby,
                       permutations, product)
from math import factorial, prod

from knotweights import canon
from knotweights.bcr import EXTERNAL, INTERNAL, bcr_key, validate_bcr
from knotweights.bridge import _orbit_length, _vertex_roles, _wbcr_table
from knotweights.enumerate import (K_MAX, _swap_beats, check_degree,
                                   enumerate_jacobi)
from knotweights.jacobi import (JacobiDiagram, _cyclic_parity, _halves,
                                _line_colors, _rotate_to, automorphisms,
                                canonicalize, chord_diagram, class_of,
                                class_of_parts, drawn, ihx_terms,
                                internal_edges, make_diagram, representative,
                                stu_expand, stu_sites)
from knotweights.jacobi import product as diagram_product
from knotweights.quotient import _Eliminator, quotient_basis
from knotweights.relations import RelationSet
from knotweights.series import PowerSeries
from knotweights.vectors import DiagramVector, vector_of


def _bcr_local_check(nv, external, edges):
    """Def-style per-vertex check, written directly from the five cases."""
    in_i = [0] * nv
    in_e = [0] * nv
    out_i = [0] * nv
    out_e = [0] * nv
    for (a, b, cls) in edges:
        if a == b:
            return False
        if cls == INTERNAL:
            out_i[a] += 1
            in_i[b] += 1
        else:
            out_e[a] += 1
            in_e[b] += 1
    deg = [in_i[v] + in_e[v] + out_i[v] + out_e[v] for v in range(nv)]
    for v in range(nv):
        sig = (in_i[v], in_e[v], out_i[v], out_e[v])
        if v in external:
            if sig != (0, 2, 0, 1):
                return False
            uni_in = sum(1 for (a, b, cls) in edges
                         if b == v and cls == EXTERNAL and deg[a] == 1)
            if uni_in != 1:
                return False
        elif sig == (1, 1, 1, 0):
            src = next(a for (a, b, cls) in edges
                       if b == v and cls == EXTERNAL)
            if deg[src] != 1:
                return False
        elif sig not in ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)):
            return False
    # connectivity
    adj = {v: set() for v in range(nv)}
    for (a, b, _c) in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def bcr_inputs(nv, m):
    """Every (external, edges) on nv vertices with m loop-free, pairwise
    distinct directed edges in either flavor."""
    pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b]
    for chosen in combinations(pairs, m):
        for classes in product((INTERNAL, EXTERNAL), repeat=m):
            edges = [(a, b, cls) for (a, b), cls in zip(chosen, classes)]
            for ext_bits in range(1 << nv):
                yield [v for v in range(nv) if ext_bits >> v & 1], edges


def brute_force_bcr_keys(k):
    """Canonical keys of all valid diagrams on 2k vertices, by exhaustion."""
    nv = 2 * k
    keys = set()
    for external, edges in bcr_inputs(nv, nv):
        if _bcr_local_check(nv, set(external), edges):
            keys.add(bcr_key(validate_bcr(nv, external, edges)))
    return keys


# cycle pieces: (incoming flavor, outgoing flavor, has leg, external vertex)
_PIECES = {
    "b4": (EXTERNAL, INTERNAL, False, False),
    "b5": (INTERNAL, EXTERNAL, False, False),
    "t1": (EXTERNAL, EXTERNAL, True, True),
    "t2": (INTERNAL, INTERNAL, True, False),
}


def _word_ok(word):
    for i, w in enumerate(word):
        nxt = word[(i + 1) % len(word)]
        if _PIECES[w][1] != _PIECES[nxt][0]:
            return False
    return True


def _min_rotation(word):
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def _diagram_from_word(word):
    length = len(word)
    external = [i for i, w in enumerate(word) if _PIECES[w][3]]
    edges = []
    for i, w in enumerate(word):
        cls = _PIECES[w][1]
        edges.append((i, (i + 1) % length, cls))
    next_id = length
    for i, w in enumerate(word):
        if _PIECES[w][2]:
            edges.append((next_id, i, EXTERNAL))
            next_id += 1
    return validate_bcr(next_id, external, edges)


def enumerate_bcr_by_pieces(k):
    """`enumerate.enumerate_bcr` by a scan over all 4^L words of cycle
    pieces, keeping the least rotations whose edge flavors match around
    the cycle and deduplicating through canonical keys."""
    found = {}
    for length in range(2, 2 * k + 1):
        legs = 2 * k - length
        for word in product(_PIECES, repeat=length):
            if sum(1 for w in word if _PIECES[w][2]) != legs:
                continue
            if word != _min_rotation(list(word)):
                continue
            if not _word_ok(word):
                continue
            d = _diagram_from_word(list(word))
            key = bcr_key(d)
            if key not in found:
                found[key] = d
    return tuple(found[key] for key in sorted(found))


def degree_one_bcr_explicit():
    """`bcr.degree_one_bcr` written out: v -> w internal, w -> v external."""
    return validate_bcr(2, [], [(0, 1, INTERNAL), (1, 0, EXTERNAL)])


def wheel_bcr_explicit(k):
    """`bcr.wheel_bcr` written out: the external k-cycle, then the legs."""
    ext = list(range(k))
    uni = list(range(k, 2 * k))
    edges = [(ext[i], ext[(i + 1) % k], EXTERNAL) for i in range(k)]
    edges += [(uni[i], ext[i], EXTERNAL) for i in range(k)]
    return validate_bcr(2 * k, ext, edges)


def leg_edges_by_scan(bcr):
    """`BCRDiagram.leg_edges` by a scan over every edge."""
    out = {}
    for i, (a, b, cls) in enumerate(bcr.edges):
        if cls == EXTERNAL and bcr.type_of[a] == 3:
            out[b] = i
    return out


def jacobi_of_by_edge_scan(bcr, rho, sigma=None):
    """`bridge.jacobi_of` with each external vertex's cycle edges and leg
    found by a scan over every edge."""
    ext_edges = bcr.external_edges()
    new_idx = {e: i for i, e in enumerate(ext_edges)}
    edges = [(bcr.edges[e][0], bcr.edges[e][1]) for e in ext_edges]
    order = sorted(bcr.internal_vertices, key=lambda v: rho[v])

    legs = leg_edges_by_scan(bcr)
    orient = {}
    cyc_in = {}
    cyc_out = {}
    for i, e in enumerate(bcr.edges):
        a, b, cls = e
        if cls != EXTERNAL:
            continue
        if bcr.type_of[a] != 3 and b in bcr.external:
            cyc_in[b] = i
        if a in bcr.external:
            cyc_out[a] = i
    for v in bcr.external:
        e_in = new_idx[cyc_in[v]]
        leg = new_idx[legs[v]]
        f_out = new_idx[cyc_out[v]]
        orient[v] = ((e_in, 1), (f_out, 0), (leg, 1))

    numbering = None
    if sigma is not None:
        numbering = {new_idx[e]: sigma[e] for e in ext_edges}
    return JacobiDiagram(bcr.nv, order, edges, orient, numbering,
                         validate=False)


def brute_force_jacobi_keys(k):
    """Canonical keys of all loop-free unitrivalent graphs of degree k."""
    if k == 0:
        return {class_of(make_diagram(0, (), ()))[0]}
    nv = 2 * k
    keys = set()
    for t in range(0, nv + 1):
        u = nv - t
        n_edges, rem = divmod(3 * t + u, 2)
        if rem:
            continue
        pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        for multiset in combinations_with_replacement(pairs, n_edges):
            deg = [0] * nv
            for (a, b) in multiset:
                deg[a] += 1
                deg[b] += 1
            if any(deg[v] != 1 for v in range(u)):
                continue
            if any(deg[v] != 3 for v in range(u, nv)):
                continue
            d = make_diagram(nv, range(u), multiset)
            keys.add(class_of(d)[0])
    return keys


def multigraphs_by_concatenation(deg_seq, free_start):
    """`enumerate._multigraphs` by a filter on `every_multigraph`: those
    whose components all hold a vertex below free_start, or, when
    free_start is 0, the connected ones."""
    for edges in every_multigraph(deg_seq, free_start):
        roots = component_roots(len(deg_seq), edges)
        if free_start:
            kept = set(roots) <= set(roots[:free_start])
        else:
            kept = len(set(roots)) <= 1
        if kept:
            yield edges


def component_roots(n, edges):
    """Each vertex's component, named by one of its vertices."""
    root = list(range(n))
    for a, b in edges:
        ra, rb = root[a], root[b]
        if ra != rb:
            root = [ra if r == rb else r for r in root]
    return root


def every_multigraph(deg_seq, free_start):
    """The loop-free multigraphs with the given degrees, a free vertex
    first touched only after the lower ones, by nested generators, a new
    edge list concatenated at every level."""
    deg = list(deg_seq)
    n = len(deg)
    orig = tuple(deg_seq)

    def first_untouched():
        for j in range(free_start, n):
            if deg[j] == orig[j] and deg[j] > 0:
                return j
        return None

    def rec():
        pivot = None
        for v in range(n):
            if deg[v] > 0:
                pivot = v
                break
        if pivot is None:
            yield []
            return
        need = deg[pivot]
        deg[pivot] = 0

        def stubs(remaining, min_j, acc):
            if remaining == 0:
                for rest in rec():
                    yield acc + rest
                return
            fu = first_untouched()
            for j in range(min_j, n):
                if j == pivot or deg[j] == 0:
                    continue
                if j >= free_start and deg[j] == orig[j] and j != fu:
                    continue
                deg[j] -= 1
                yield from stubs(remaining - 1, j, acc + [(pivot, j)])
                deg[j] += 1

        yield from stubs(need, 0, [])
        deg[pivot] = need

    yield from rec()


def candidate_diagrams(k):
    """`enumerate._candidates` as validated diagrams with the default
    orientation, each with its line vertex count: a closed one is kept
    when vertices 0 and 1 are joined by as many edges as any pair is."""
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in multigraphs_by_concatenation([1] * u + [3] * t, u):
            count = Counter(edges)
            if u == 0 and count[(0, 1)] < max(count.values(), default=0):
                continue
            if not _swap_beats(edges, u, 2 * k):
                yield u, make_diagram(2 * k, range(u), edges)


def every_candidate(k):
    """Every degree-k multigraph that passes the swap test, as ``(u,
    edges)``, those with closed components apart from the rest
    included."""
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in every_multigraph([1] * u + [3] * t, u):
            if not _swap_beats(edges, u, 2 * k):
                yield u, edges


def enumerate_jacobi_unfiltered(k):
    """Jacobi class representatives by the first-touch multigraph loop alone,
    every candidate canonicalized, in key order."""
    found = {}
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in every_multigraph([1] * u + [3] * t, u):
            key, _, rep = canonicalize(make_diagram(2 * k, range(u), edges))
            found.setdefault(key, rep)
    return tuple(found[key] for key in sorted(found))


def enumerate_jacobi_by_search(k):
    """`enumerate_jacobi` with every candidate searched, those with a
    closed part beside a line part and those with several closed
    components included, and no class joined from its parts."""
    found = {}
    for u, edges in every_candidate(k):
        key, sign, perm, gens = class_of_parts(
            2 * k, range(u), edges, _halves(2 * k, edges)[u:])
        if key not in found:
            found[key] = drawn(key, sign, perm, gens)
    return tuple(found[key] for key in sorted(found))


def swap_beats_by_relabeling(edges, free_start, n):
    """`enumerate._swap_beats` with a relabeling array built per swap: the
    sorted edges at the two vertices against their images under it."""
    at = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            at[v].append(e)
    for i in range(free_start, n):
        for j in range(i + 1, n):
            touched = sorted(at[i] + [e for e in at[j] if i not in e])
            p = list(range(n))
            p[i], p[j] = j, i
            moved = sorted((p[a], p[b]) if p[a] < p[b] else (p[b], p[a])
                           for (a, b) in touched)
            if moved < touched:
                return True
    return False


def relators_at_sites(k):
    """``(representative, kind, site, row)`` for AS at every trivalent
    vertex (a zero row), STU at every site ``(t, u)`` and IHX at every
    internal edge, whatever its component or class."""
    for rep in enumerate_jacobi(k, k_max=k):
        for v in rep.trivalent:
            yield rep, "AS", v, DiagramVector(k)
        for (t, u) in stu_sites(rep):
            d1, d2 = stu_expand(rep, t, u)
            vec = vector_of(rep) - vector_of(d1) + vector_of(d2)
            yield rep, "STU", (t, u), vec
        for e in internal_edges(rep):
            h, x = ihx_terms(rep, e)
            vec = vector_of(rep) - vector_of(h) + vector_of(x)
            yield rep, "IHX", e, vec


def relators_everywhere(k, k_max=K_MAX):
    """The rows of `relators_at_sites`, as a relation set."""
    check_degree(k, k_max)
    rels = RelationSet(k)
    for _, kind, _, vec in relators_at_sites(k):
        rels.add(kind, vec)
    return rels


def _ihx_edges_per_orbit(d):
    """The internal edges of d with no parallel partner, one per orbit of
    Aut(d) on the vertex pairs they join, in edge order."""
    internal = internal_edges(d)
    pairs = [frozenset(d.edges[e]) for e in internal]
    edges = [e for e, pair in zip(internal, pairs) if pairs.count(pair) == 1]
    if not edges:
        return []
    index = {frozenset(d.edges[e]): i for i, e in enumerate(edges)}
    moves = [[index[frozenset(g[v] for v in pair)] for pair in index]
             for g in automorphisms(d)]
    orbit = canon.orbits(len(index), moves)
    seen, out = set(), []
    for e in edges:
        o = orbit[index[frozenset(d.edges[e])]]
        if o not in seen:
            seen.add(o)
            out.append(e)
    return out


def _row_by_class_of(k, first, second, third):
    """The vector [first] - [second] + [third]."""
    vec = DiagramVector(k)
    for d, coeff in ((first, 1), (second, -1), (third, 1)):
        key, sign = class_of(d)
        if sign:
            vec.add_term(key, coeff * sign)
    return vec


def relations_per_class(k, k_max=K_MAX):
    """The relators listed class by class, each term classed by a search
    on the whole diagram: STU on every class that does not vanish, at
    every site when its line part has one trivalent vertex and at the
    first site when it has more, and IHX on every class whose line part is
    a chord diagram, vanishing or not, at one edge with no parallel
    partner per automorphism orbit."""
    check_degree(k, k_max)
    rels = RelationSet(k)
    for rep in enumerate_jacobi(k, k_max=k):
        uni = rep.univalent
        line_trivalents = sum(len(c) for c in rep.components()
                              if not uni.isdisjoint(c)) - len(uni)
        if line_trivalents == 0:
            for e in _ihx_edges_per_orbit(rep):
                rels.add("IHX", _row_by_class_of(k, rep, *ihx_terms(rep, e)))
        elif class_of(rep)[1]:
            sites = stu_sites(rep)
            for (t, u) in sites if line_trivalents == 1 else sites[:1]:
                rels.add("STU",
                         _row_by_class_of(k, rep, *stu_expand(rep, t, u)))
    return rels


def dense_rank_oracle(rows, columns):
    """Textbook dense elimination, to cross-check the sparse ranks."""
    order = {key: i for i, key in enumerate(columns)}
    mat = []
    for row in rows:
        dense = [Fraction(0)] * len(columns)
        for key, c in row.items():
            dense[order[key]] = Fraction(c)
        mat.append(dense)
    rank = 0
    for col in range(len(columns)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class FractionEliminator:
    """The reference for `quotient._Eliminator`: the fully reduced echelon
    form, kept by back-substitution, over Fractions.  Every sum starts at
    Fraction(0) and every kept row is scaled by 1 / lead, so rows must come
    in with Fraction coefficients (1 / lead on an int is a float)."""

    def __init__(self, column_rank):
        self.column_rank = column_rank  # key -> position
        self.pivots = {}                # key -> normalized row (dict)
        self._first = None              # least rank of a kept lead

    def _reduce_terms(self, terms):
        terms = dict(terms)
        for col in sorted(terms, key=self.column_rank.get):
            c = terms.get(col)
            if not c:
                continue
            row = self.pivots.get(col)
            if row is None:
                continue
            for k2, c2 in row.items():
                nc = terms.get(k2, Fraction(0)) - c * c2
                if nc:
                    terms[k2] = nc
                else:
                    terms.pop(k2, None)
        return terms

    def add_row(self, terms):
        """Reduce a row and keep it; return its lead column, or None when
        it reduces to zero."""
        terms = self._reduce_terms(terms)
        if not terms:
            return None
        lead = min(terms, key=self.column_rank.get)
        inv = 1 / terms[lead]
        row = {k: c * inv for k, c in terms.items()}
        rank = self.column_rank[lead]
        if self._first is None or rank < self._first:
            # a kept row holds no column before its own lead, so none
            # holds this one: nothing to back-substitute
            self._first = rank
        else:
            for other in self.pivots.values():
                c = other.get(lead)
                if c:
                    for k2, c2 in row.items():
                        nc = other.get(k2, Fraction(0)) - c * c2
                        if nc:
                            other[k2] = nc
                        else:
                            other.pop(k2, None)
        self.pivots[lead] = row
        return lead


def canonical_form_all(n, colors, edges, directed=False):
    """`canon.canonical_form` without automorphism pruning: the search
    visits every minimizing relabeling and returns ``(key, perms)`` with
    all of them, so ``len(perms)`` is the order of the automorphism group.
    With `directed`, an edge runs from u to v, and an edge token carries
    a flip, 1 when the edge runs from the larger slot to the smaller (see
    `_edge_token`): the oracle of the BCR word keys.
    """
    if n == 0:
        return ((), ()), [()]
    order = sorted(range(n), key=lambda v: (colors[v], v))
    slot_colors = tuple(colors[v] for v in order)

    incidence = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        if directed:  # the edge's tag and its direction, as one label
            incidence[u].append((v, (tag, 1)))
            incidence[v].append((u, (tag, -1)))
        else:
            incidence[u].append((v, tag))
            incidence[v].append((u, tag))

    cells = [list(g) for _, g in groupby(order, key=lambda v: colors[v])]
    cells = canon._refine(cells, incidence)

    # Slot ranges follow the refined cell order; all vertices in one cell
    # share a color, so any assignment keeps slot_colors fixed.
    flat_cells = []
    for cell in cells:
        flat_cells.append(sorted(cell))

    best_tokens = None
    best_perms = []
    assign = [-1] * n  # vertex -> slot

    # Edges grouped by vertex for incremental finalization.
    edges_at = [[] for _ in range(n)]
    for idx, (u, v, tag) in enumerate(edges):
        edges_at[u].append((idx, u, v, tag))
        if u != v:
            edges_at[v].append((idx, u, v, tag))

    def dfs(cell_i, pos_in_cell, next_slot, tokens):
        nonlocal best_tokens, best_perms
        if cell_i == len(flat_cells):
            if best_tokens is None or tokens < best_tokens:
                best_tokens = list(tokens)
                best_perms = [tuple(assign)]
            elif tokens == best_tokens:
                best_perms.append(tuple(assign))
            return
        cell = flat_cells[cell_i]
        if pos_in_cell == len(cell):
            dfs(cell_i + 1, 0, next_slot, tokens)
            return
        for v in cell:
            if assign[v] != -1:
                continue
            assign[v] = next_slot
            new_tokens = []
            for (idx, a, b, tag) in edges_at[v]:
                w = b if a == v else a
                if assign[w] != -1:
                    new_tokens.append(_edge_token(assign[a], assign[b],
                                                  tag, directed))
            merged = sorted(tokens + new_tokens)
            prune = False
            if best_tokens is not None:
                prefix = best_tokens[:len(merged)]
                if merged > prefix:
                    prune = True
            if not prune:
                dfs(cell_i, pos_in_cell + 1, next_slot + 1, merged)
            assign[v] = -1
        return

    dfs(0, 0, 0, [])
    return (slot_colors, tuple(best_tokens)), best_perms


def canonical_form_dfs(n, colors, edges):
    """`canon.canonical_form` by the plain pruned search: every child of a
    node is tried in cell order, skipped only by the orbits of the
    generators that fix the path, and each node's whole token list is
    compared with the best leaf's tokens on the same slots."""
    if n == 0:
        return ((), ()), (), []
    order = sorted(range(n), key=lambda v: (colors[v], v))
    slot_colors = tuple(colors[v] for v in order)

    incidence = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        incidence[u].append((v, tag))
        incidence[v].append((u, tag))

    cells = [list(g) for _, g in groupby(order, key=lambda v: colors[v])]
    cells = canon._refine(cells, incidence)

    slot_cell = []
    for cell in cells:
        slot_cell.extend([sorted(cell)] * len(cell))

    edges_at = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        edges_at[u].append((u, v, tag))
        if u != v:
            edges_at[v].append((u, v, tag))

    assign = [-1] * n  # vertex -> slot
    path = []          # slot -> vertex, for the assigned prefix
    best = None        # (tokens, perm, path) of the least leaf so far
    end = [(n,)]       # sorts after every token
    gens = []

    def dfs(s, tokens):
        nonlocal best
        if s == n:
            if best is None or tokens < best[0]:
                best = (tokens, tuple(assign), list(path))
                return s
            best_path = best[2]
            gens.append(tuple(best_path[assign[v]] for v in range(n)))
            c = 0
            while path[c] == best_path[c]:
                c += 1
            return c
        tried = []
        seen_gens = 0
        orbit = None
        for v in slot_cell[s]:
            if assign[v] != -1:
                continue
            if seen_gens != len(gens):
                seen_gens = len(gens)
                fixing = [g for g in gens if all(g[w] == w for w in path)]
                orbit = canon.orbits(n, fixing) if fixing else None
            if orbit is not None and any(orbit[v] == orbit[w] for w in tried):
                continue
            tried.append(v)
            assign[v] = s
            path.append(v)
            new_tokens = []
            for (a, b, tag) in edges_at[v]:
                if assign[a] != -1 and assign[b] != -1:
                    new_tokens.append(
                        _edge_token(assign[a], assign[b], tag))
            new_tokens.sort()
            merged = tokens + new_tokens
            back = s
            if best is None or not merged + end > (
                    best[0][:bisect_left(best[0], (s + 1,))] + end):
                back = dfs(s + 1, merged)
            path.pop()
            assign[v] = -1
            if back < s:
                return back
        return s

    dfs(0, [])
    return (slot_colors, tuple(best[0])), best[1], gens


def _edge_token(a, b, tag, directed=False):
    """An edge's token in the labels a and b of its ends: (hi, lo, tag), or
    (hi, lo, flip, tag) with flip 1 when the edge runs from hi to lo."""
    if a < b:
        lo, hi, flip = a, b, 0
    else:
        lo, hi, flip = b, a, 1
    if directed:
        return (hi, lo, flip, tag)
    return (hi, lo, tag)


def edge_map_for_perm(edges, perm):
    """Map original edge indices to canonical edge slots under `perm`.

    Parallel edges are tied in ascending original order (a fixed convention;
    any other choice differs by an even reorientation at both endpoints, so
    downstream signs do not depend on it).  Returns ``(tokens, edge_map)``
    with ``tokens`` the sorted canonical edge list and ``edge_map[i]`` the
    slot of original edge ``i``.
    """
    tagged = []
    for idx, (u, v, tag) in enumerate(edges):
        tagged.append((_edge_token(perm[u], perm[v], tag), idx))
    tagged.sort()
    edge_map = [-1] * len(edges)
    for slot, (_tok, idx) in enumerate(tagged):
        edge_map[idx] = slot
    return [tok for tok, _ in tagged], edge_map


def orientation_sign_by_edge_map(d, entries, perm):
    """`jacobi._cycles_sign` of d's orientation by sorting every edge
    token into its canonical slot and reading each vertex's cyclic order
    in slots and ends."""
    _, emap = edge_map_for_perm(entries, perm)
    s = 1
    for v, cyc in d.orient.items():
        moved = tuple((emap[e], 0 if perm[d.edges[e][end]] == max(
            perm[d.edges[e][0]], perm[d.edges[e][1]]) else 1)
            for (e, end) in cyc)
        s *= _cyclic_parity(moved)
    return s


def default_orientation_by_sorting(nv, univalent_order, edges):
    """`jacobi.default_orientation` by collecting each trivalent vertex's
    half-edges in a dict and sorting them."""
    uni = set(univalent_order)
    halves = {v: [] for v in range(nv) if v not in uni}
    for i, (a, b) in enumerate(edges):
        if a in halves:
            halves[a].append((i, 0))
        if b in halves:
            halves[b].append((i, 1))
    return {v: tuple(sorted(h)) for v, h in halves.items()}


def class_of_by_edge_map(d, with_numbering=False):
    """`jacobi.class_of` with every sign read through the edge map, the
    edge numbering kept if `with_numbering`."""
    tags = [0] * len(d.edges)
    if with_numbering and d.numbering is not None:
        tags = [d.numbering[i] for i in range(len(d.edges))]
    entries = [(u, v, tags[i]) for i, (u, v) in enumerate(d.edges)]
    key, perm, gens = canon.canonical_form(
        d.nv, _line_colors(d.nv, d.univalent_order), entries)
    signs = {orientation_sign_by_edge_map(d, entries, p)
             for p in [perm] + [[perm[w] for w in g] for g in gens]}
    return key, (signs.pop() if len(signs) == 1 else 0)


def class_of_all(d):
    """`jacobi.class_of` by the unpruned search, as ``(key, sign, |Aut|)``:
    the sign is read through the edge map in every minimizing relabeling
    and is 0 unless they all agree."""
    entries = [(u, v, 0) for (u, v) in d.edges]
    key, perms = canonical_form_all(
        d.nv, _line_colors(d.nv, d.univalent_order), entries)
    signs = {orientation_sign_by_edge_map(d, entries, perm) for perm in perms}
    return key, (signs.pop() if len(signs) == 1 else 0), len(perms)


def product_split_by_cuts(d):
    """`JacobiDiagram.product_split` by trying every cut of the line in
    turn against every component."""
    if d.nv == 0:
        return None
    comps = d.components()
    if len(comps) < 2:
        return None
    pos = {v: i for i, v in enumerate(d.univalent_order)}
    nu = len(d.univalent_order)
    for cut in range(nu + 1):
        left, right = [], []
        ok = True
        for comp in comps:
            ps = sorted(pos[v] for v in comp if v in pos)
            if not ps:
                ok = False  # trivalent components spoil the split here
                break
            if ps[-1] < cut:
                left.append(comp)
            elif ps[0] >= cut:
                right.append(comp)
            else:
                ok = False
                break
        if ok and left and right:
            return (sorted(sum(left, [])), sorted(sum(right, [])))
    return None


class SplittingByProducts:
    """The P + N + T splitting of degree k with N spanned by the products
    of every pair of lower-degree classes without trivalent components, and
    the projection onto P by a dense inverse of the generators' reduced
    coordinates."""

    def __init__(self, k):
        q = self.quotient = quotient_basis(k, k_max=k)
        self.degree = k
        p_gens, n_gens, t_gens = [], [], []
        if k == 0:
            n_gens = [(key, DiagramVector(0, {key: 1})) for key in q.basis]
        else:
            for rep in enumerate_jacobi(k, k_max=k):
                key, sign, _ = canonicalize(rep)
                if not sign:
                    continue
                vec = DiagramVector(k, {key: 1})
                if rep.has_trivalent_component():
                    t_gens.append((key, vec))
                elif rep.is_connected():
                    p_gens.append((key, vec))
        for k1 in range(1, k // 2 + 1):
            lefts = [d for d in enumerate_jacobi(k1, k_max=k)
                     if not d.has_trivalent_component()]
            rights = [d for d in enumerate_jacobi(k - k1, k_max=k)
                      if not d.has_trivalent_component()]
            for d1 in lefts:
                for d2 in rights:
                    vec = vector_of(diagram_product(d1, d2))
                    if not vec.is_zero():
                        n_gens.append(((canonicalize(d1)[0],
                                        canonicalize(d2)[0]), vec))
        self.p_part = self._independent(p_gens)
        self.n_part = self._independent(n_gens)
        self.t_part = self._independent(t_gens)
        cols = [c for part in (self.p_part, self.n_part, self.t_part)
                for _, c in part]
        if len(cols) != q.dim:
            raise ArithmeticError(f"total dimension {len(cols)} != {q.dim}")
        self.inverse = _dense_inverse(cols)

    def coords(self, vec):
        red = self.quotient.reduce(vec)
        return [red.terms.get(key, Fraction(0)) for key in self.quotient.basis]

    def _independent(self, generators):
        elim = _Eliminator()
        rank = self.quotient.rank
        return [(gen, self.coords(vec)) for gen, vec in generators
                if elim.add_row({rank[key]: c for key, c
                                 in self.quotient.reduce(vec).terms.items()})
                is not None]

    @property
    def dims(self):
        return (self.quotient.dim, len(self.p_part), len(self.n_part),
                len(self.t_part))

    def project_connected(self, vec):
        b = self.coords(vec)
        out = DiagramVector(self.degree)
        for (key, _), row in zip(self.p_part, self.inverse):
            c = sum(r * x for r, x in zip(row, b))
            if c:
                out.add_term(key, c)
        return out


def _dense_inverse(columns):
    """Gauss-Jordan inverse of the square matrix with the given columns;
    a singular matrix raises StopIteration."""
    n = len(columns)
    aug = [[columns[j][i] for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, aug[col][col])
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _rebuild(d, drop_vertices, drop_edges, extra_uni, reattach,
             order_patch):
    """Shared constructor for STU-style surgeries.

    drop_vertices/drop_edges are removed; `reattach` maps an old half-edge
    to a new endpoint vertex (given in old labels or fresh ids from
    extra_uni).  Univalent order is given explicitly by `order_patch` (old
    labels + fresh ids).  Surviving vertices and edges are renumbered
    compactly, and the fresh ids come last.
    """
    keep_v = [v for v in range(d.nv) if v not in drop_vertices]
    vmap = {v: i for i, v in enumerate(keep_v)}
    for v in extra_uni:
        vmap[v] = len(vmap)
    nv = len(vmap)

    edges = []
    for i, (a, b) in enumerate(d.edges):
        if i in drop_edges:
            edges.append(None)
            continue
        a2 = reattach.get((i, 0), a)
        b2 = reattach.get((i, 1), b)
        edges.append((vmap[a2], vmap[b2]))
    emap = {}
    new_edges = []
    for i, e in enumerate(edges):
        if e is not None:
            emap[i] = len(new_edges)
            new_edges.append(e)

    orient = {}
    for v, cyc in d.orient.items():
        if v in drop_vertices:
            continue
        orient[vmap[v]] = tuple((emap[e], end) for (e, end) in cyc)
    order = [vmap[v] for v in order_patch]
    return JacobiDiagram(nv, order, new_edges, orient, validate=False)


def stu_expand_renumbered(d, t, u):
    """`jacobi.stu_expand` by deleting t and u and appending two fresh line
    vertices x < y in u's place: d1 attaches alpha to x and beta to y, d2
    swaps them."""
    (eu_half,) = [h for h in d.incident(u)]
    eu = eu_half[0]
    cyc = _rotate_to(list(d.orient[t]), (eu, 1 - eu_half[1]))
    alpha, beta = cyc[1], cyc[2]

    x, y = d.nv, d.nv + 1
    i = list(d.univalent_order).index(u)
    order = (list(d.univalent_order[:i]) + [x, y]
             + list(d.univalent_order[i + 1:]))

    def build(first, second):
        reattach = {first: x, second: y}
        return _rebuild(d, {t, u}, {eu}, [x, y], reattach, order)

    return build(alpha, beta), build(beta, alpha)


def ihx_terms_scanned(d, edge_idx):
    """`jacobi.ihx_terms` with the moving half-edges found by scanning the
    new cyclic orders for half-edges that came from the other end."""
    a, b = d.edges[edge_idx]
    cyc_a = _rotate_to(list(d.orient[a]), (edge_idx, 0))
    cyc_b = _rotate_to(list(d.orient[b]), (edge_idx, 1))
    g_a, p, q = cyc_a
    g_b, r, s = cyc_b

    def rebuilt(cyc_a2, cyc_b2):
        reattach = {}
        for h in cyc_a2[1:]:
            if h in (r, s):
                reattach[h] = a
        for h in cyc_b2[1:]:
            if h in (p, q):
                reattach[h] = b
        edges = list(d.edges)
        for (e, end), v in reattach.items():
            pair = list(edges[e])
            pair[end] = v
            edges[e] = tuple(pair)
        orient = dict(d.orient)
        orient[a] = tuple(cyc_a2)
        orient[b] = tuple(cyc_b2)
        return JacobiDiagram(d.nv, d.univalent_order, edges, orient,
                             validate=False)

    return rebuilt((g_a, q, r), (g_b, s, p)), rebuilt((g_a, q, s), (g_b, r, p))


def count_circles_by_successors(d):
    """`conway.count_circles` by a walk over a successor dict: arc p-1
    ends at point p and continues into the arc after the partner of p."""
    n = d.nv
    partner = {}
    for (i, j) in d.chords():
        partner[i] = j
        partner[j] = i
    succ = {p - 1: partner[p] for p in range(1, n + 1)}
    visited = set()
    arc = 0
    while arc in succ:  # the line component, from the -infinity arc
        visited.add(arc)
        arc = succ[arc]
    visited.add(arc)
    circles = 0
    for start in range(n + 1):
        if start in visited:
            continue
        circles += 1
        arc = start
        while arc not in visited:
            visited.add(arc)
            arc = succ[arc]
    return circles


def pairings(items):
    """Every way to split the list `items` into pairs."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def labeled_chord_diagrams(k):
    """Every chord diagram on the points 1..2k: each pairing of them."""
    for pairs in pairings(list(range(1, 2 * k + 1))):
        yield chord_diagram(pairs)


def circles_by_gf2_corank(d):
    """The circles surgery leaves on a chord diagram, as the corank over
    GF(2) of its chords' intersection matrix [Cohn-Lempel, J. Combin.
    Theory A 13 (1972); Moran, J. Combin. Theory A 37 (1984)]: two chords
    intersect when exactly one end of one lies between the ends of the
    other.  Rows are bitmasks, reduced by Gaussian elimination."""
    chords = d.chords()
    pivots = {}  # leading bit -> reduced row
    for a, b in chords:
        row = sum(1 << j for j, (c, e) in enumerate(chords)
                  if (a < c < b) != (a < e < b))
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(chords) - len(pivots)


def intersection_matrix(d):
    """The signed intersection matrix of a chord diagram, chords in edge
    order: S[i][j] = 1 and S[j][i] = -1 when a_i < a_j < b_i < b_j."""
    chords = d.chords()
    return [[1 if a < c < b < e else -1 if c < a < e < b else 0
             for c, e in chords] for a, b in chords]


def det_by_elimination(matrix):
    """The determinant by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def cycle_sum_by_permutations(matrix):
    """The sum over the cyclic orders sigma of 0..k-1 of prod_i
    S[i][sigma(i)], each cyclic order listed as 0 followed by a
    permutation of the rest."""
    k = len(matrix)
    total = 0
    for rest in permutations(range(1, k)):
        cycle = (0,) + rest
        total += prod(matrix[cycle[i - 1]][cycle[i]] for i in range(k))
    return total


def _set_partitions(items):
    """Every set partition of a list, each as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


class ClassWeights:
    """wc and wc' by the class-keyed recursion: a diagram is reduced to its
    canonical classes, each class is resolved by STU on its stored
    representative at the lowest univalent vertex, each STU term is
    canonicalized in turn, and the values are memoized per class key in
    this object only."""

    def __init__(self):
        self.memo = {}

    def _wc_class(self, key):
        val = self.memo.get(key)
        if val is None:
            rep = representative(key)
            if rep.has_trivalent_component():
                val = Fraction(0)
            elif rep.is_chord_diagram():
                val = Fraction(
                    1 if count_circles_by_successors(rep) == 0 else 0)
            else:
                order = {v: i for i, v in enumerate(rep.univalent_order)}
                t, u = min(stu_sites(rep), key=lambda site: order[site[1]])
                d1, d2 = stu_expand(rep, t, u)
                val = self._wc_vector(vector_of(d1)) - \
                    self._wc_vector(vector_of(d2))
            self.memo[key] = val
        return val

    def _wc_vector(self, v):
        return sum((c * self._wc_class(key) for key, c in v.terms.items()),
                   Fraction(0))

    def wc(self, d):
        return self._wc_vector(vector_of(d))

    def wc_prime(self, d):
        """The cumulant of wc over the components of each class's
        representative, with every block canonicalized."""
        total = Fraction(0)
        for key, c in vector_of(d).terms.items():
            rep = representative(key)
            comps = rep.components()
            if not comps:
                continue  # wc' kills the empty diagram
            for part in _set_partitions(list(range(len(comps)))):
                n = len(part)
                term = Fraction((-1) ** (n - 1) * factorial(n - 1))
                for block in part:
                    term *= self.wc(sub_diagram(
                        rep, [v for i in block for v in comps[i]]))
                total += c * term
        return total


def sub_diagram(d, vertices):
    """The diagram spanned by a union of components of d.

    Keeps the chosen vertices and their edges in their relative order, the
    cyclic orientations, and the line order of the chosen univalent
    vertices; the edge numbering is dropped.
    """
    vmap = {v: i for i, v in enumerate(sorted(vertices))}
    emap = {}
    edges = []
    for i, (a, b) in enumerate(d.edges):
        if a in vmap:
            emap[i] = len(edges)
            edges.append((vmap[a], vmap[b]))
    orient = {vmap[v]: tuple((emap[e], end) for (e, end) in cyc)
              for v, cyc in d.orient.items() if v in vmap}
    order = [vmap[v] for v in d.univalent_order if v in vmap]
    return JacobiDiagram(len(vmap), order, edges, orient, validate=False)




def _resolve(d):
    """wc of a diagram whose every component has a univalent vertex."""
    if d.is_chord_diagram():
        return Fraction(1 if count_circles_by_successors(d) == 0 else 0)
    t, u = stu_sites(d)[0]  # the site at the lowest univalent vertex
    d1, d2 = stu_expand(d, t, u)
    return _resolve(d1) - _resolve(d2)


def wc_resolved(d):
    """wc by STU on the whole diagram: each step resolves the trivalent
    vertex at the lowest univalent vertex and builds both terms as new
    diagrams, down to the chord diagrams."""
    if d.has_trivalent_component():
        return Fraction(0)
    return _resolve(d)


def wc_prime_resolved(d, k_max=K_MAX):
    """The cumulant of wc over d's components, each block rebuilt by
    `sub_diagram` and resolved from scratch (`cumulant_by_partitions`)."""
    check_degree(d.degree, k_max)
    return Fraction(cumulant_by_partitions(d))


def cumulant_by_partitions(d):
    """The cumulant of wc over d's components, as a sum over their set
    partitions: (-1)^(|pi|-1) (|pi|-1)! times the product of wc over the
    blocks, in integers, each block rebuilt by `sub_diagram` and resolved
    by `wc_resolved` once (a block of chords by the successor walk)."""
    comps = d.components()
    if not comps:
        return 0
    block_wc = {}
    total = 0
    for part in _set_partitions(list(range(len(comps)))):
        n = len(part)
        term = (-1) ** (n - 1) * factorial(n - 1)
        for block in part:
            block = tuple(block)
            w = block_wc.get(block)
            if w is None:
                w = block_wc[block] = int(wc_resolved(sub_diagram(
                    d, [v for i in block for v in comps[i]])))
            term *= w
            if not term:
                break
        total += term
    return total


def band_surface_boundaries(d):
    """The boundary components of a chord diagram's band surface, a disk
    with one untwisted band per chord, as the faces of its ribbon graph.
    The graph has one vertex, the disk, and one edge per chord; its darts
    are the chord ends (position, chord), and the rotation sigma takes
    each to the next around the disk, the line closed up.  The involution
    alpha swaps the two ends of a chord, and the faces are the orbits of
    sigma after alpha.  A disk with no bands has its one boundary
    circle."""
    darts = sorted((p, c) for c, chord in enumerate(d.chords())
                   for p in chord)
    if not darts:
        return 1
    sigma = dict(zip(darts, darts[1:] + darts[:1]))
    alpha = {x: y for x in darts for y in darts if x[1] == y[1] and x != y}
    faces, seen = 0, set()
    for start in darts:
        if start not in seen:
            faces += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = sigma[alpha[x]]
    return faces


def sources(d):
    """Every BCR source of `d` built on d's own vertices and edges.

    Yields ``(edges, sign)``: `edges` lists the ``(tail, head, class)``
    triples, d's edges first in d's order and directed, then the internal
    edges; d's trivalent vertices are the external vertices; `sign` is
    epsilon * epsilon2 * epsilon3 with the ordering read off d's line.
    Each trivalent vertex gets an outgoing edge, a leg from a type-3
    vertex and an incoming cycle edge; each chord is a leg into type 2 or
    a step from type 5 to type 4.  The external edges then form chains
    from type 5 to type 4 (or one closed cycle), and the internal edges
    close chains and type-2 vertices into one cycle in every order.
    """
    if not d.edges or any(a == b for (a, b) in d.edges):
        return  # the empty diagram and loops have no sources
    rank = {v: i for i, v in enumerate(d.univalent_order)}
    tri = [v for v in range(d.nv) if v not in rank]
    tt = [i for i, (a, b) in enumerate(d.edges)
          if a not in rank and b not in rank]
    chords = [i for i, (a, b) in enumerate(d.edges)
              if a in rank and b in rank]
    chord_ways = [[(a, b, 2), (b, a, 2), (a, b, 4), (b, a, 4)]
                  for (a, b) in (d.edges[i] for i in chords)]
    parity = len(d.edges) + len(tri)

    def far(i, v):
        a, b = d.edges[i]
        return b if a == v else a

    for choice in product(*(_vertex_roles(d, v, rank) for v in tri)):
        # every edge between trivalent vertices leaves exactly one of them
        if sorted(r[0] for r in choice if r[0] in tt) != tt:
            continue
        tails = [None] * len(d.edges)
        succ, starts, s3 = {}, [], 1
        for v, (out, leg, c_in, s) in zip(tri, choice):
            s3 *= s
            tails[out], succ[v], tails[leg] = v, far(out, v), far(leg, v)
            if c_in not in tt:
                tails[c_in] = far(c_in, v)
                starts.append((tails[c_in], v))
        chains, seen = [], 0
        for u, x in starts:  # walk from type 5 through trivalent to type 4
            while x in succ:
                x, seen = succ[x], seen + 1
            chains.append((u, x))
        for ways in product(*chord_ways):
            ring = list(chains)
            for i, (a, b, head_type) in zip(chords, ways):
                tails[i] = a
                ring.append((b, b) if head_type == 2 else (a, b))
            ext = [(t, far(i, t), EXTERNAL) for i, t in enumerate(tails)]
            n2 = sum(1 for (a, b) in ring if a == b)
            sign = s3 * (-1 if (parity + n2) % 2 else 1)
            if seen < len(tri):  # a closed cycle must be the whole cycle
                if not ring and _orbit_length(succ, tri[0]) == len(tri):
                    yield ext, sign
            elif len(ring) > 1 or ring[0][0] != ring[0][1]:  # no loop
                for perm in permutations(ring[1:]):
                    order = ring[:1] + list(perm)
                    internal, s2 = [], sign
                    for (_, x), (y, _) in zip(order, order[1:] + order[:1]):
                        internal.append((x, y, INTERNAL))
                        if rank[y] < rank[x]:
                            s2 = -s2
                    yield ext + internal, s2


def group_order(n, gens):
    """Order of the group generated by vertex permutations `gens`, by
    closure."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        frontier = [q for q in {tuple(g[x] for x in p)
                                for p in frontier for g in gens}
                    if q not in seen]
        seen.update(frontier)
    return len(seen)


def _parallel_factor(rep):
    """Number of edge bijections per vertex automorphism (parallel swaps)."""
    counts = {}
    for (a, b) in rep.edges:
        pair = (min(a, b), max(a, b))
        counts[pair] = counts.get(pair, 0) + 1
    return prod(factorial(m) for m in counts.values())


def _jacobi_edge_aut_order(rep):
    return group_order(rep.nv, automorphisms(rep)) * _parallel_factor(rep)


def cycle_sum_by_layers(ring):
    """`bridge._cycle_sum` with one dict per layer keyed by (visited set,
    end rank), each option of element 0 opening its own recursion and each
    option stepping from each state on its own."""
    others = range(1, len(ring))
    total = 0
    for start, end, weight in ring[0]:
        layer = {(1, end): weight}
        for _ in range(len(ring) - 1):
            step = {}
            for (seen, r), val in layer.items():
                for j in others:
                    if seen >> j & 1:
                        continue
                    for s, e, w in ring[j]:
                        if s != r:
                            key = (seen | 1 << j, e)
                            step[key] = step.get(key, 0) + (
                                val * w if s > r else -val * w)
            layer = step
        total += sum(val if start > r else -val
                     for (_, r), val in layer.items() if start != r)
    return total


def wbcr_by_orderings(d, k_max=K_MAX):
    """`bridge.wbcr` by the degree-wide ordering scan `bridge._wbcr_table`,
    whose terms are divided by |Aut(source)|, times the target's edge
    automorphisms."""
    key, sign = class_of(d)
    if sign == 0 or d.degree == 0:
        return Fraction(0)
    k = d.degree
    base = _wbcr_table(k, k_max).get(key, Fraction(0))
    if not base:
        return Fraction(0)
    weight = Fraction(_jacobi_edge_aut_order(d), 2 ** (2 * k - len(d.edges)))
    return sign * base * weight


def _list_add(a, b):
    """a + b for coefficient lists, lowest power first."""
    out = [x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):]
    while out and not out[-1]:
        out.pop()
    return out


def _list_mul(a, b):
    """a * b for coefficient lists, lowest power first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def laplace_det(rows):
    """`alexander._det` by expansion along the first row, with memoized
    minors: O(n 2^n) products of coefficient lists."""
    n = len(rows)
    memo = {}

    def minor(row, cols):
        if row == n:
            return [1]
        got = memo.get((row, cols))
        if got is not None:
            return got
        total = []
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            if rows[row][j]:
                term = _list_mul(rows[row][j], minor(row + 1, cols & ~bit))
                total = _list_add(total, [sign * c for c in term])
            sign = -sign
        memo[(row, cols)] = total
        return total

    return minor(0, (1 << n) - 1)


class _ListTangle:
    """`alexander._Tangle` with mutable crossing lists, arcs merged by a
    union-find over every crossing, and the successor map and components
    recomputed by each query."""

    __slots__ = ("crossings", "free_circles")

    def __init__(self, crossings, free_circles=0):
        # crossing: [under_in, under_out, over_in, over_out, sign]
        self.crossings = [list(c) for c in crossings]
        self.free_circles = free_circles

    @classmethod
    def from_pd(cls, pd):
        return cls.from_crossings(pd.crossings)

    @classmethod
    def from_crossings(cls, crossings):
        """From `pd.Crossing`s that need not form a planar code."""
        rows = []
        for x in crossings:
            o_in, o_out = ((x.over_a, x.over_b) if x.sign > 0
                           else (x.over_b, x.over_a))
            rows.append([x.under_in, x.under_out, o_in, o_out, x.sign])
        return cls(rows)

    def successor(self):
        succ = {}
        for (ui, uo, oi, oo, _s) in self.crossings:
            succ[ui] = uo
            succ[oi] = oo
        return succ

    def components(self):
        succ = self.successor()
        seen = set()
        comps = []
        for start in sorted(succ):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            arc = succ[start]
            while arc != start:
                comp.append(arc)
                seen.add(arc)
                arc = succ[arc]
            comps.append(comp)
        return comps

    def switched(self, i):
        out = _ListTangle(self.crossings, self.free_circles)
        ui, uo, oi, oo, s = out.crossings[i]
        out.crossings[i] = [oi, oo, ui, uo, -s]
        return out

    def smoothed(self, i):
        out = _ListTangle(self.crossings, self.free_circles)
        ui, uo, oi, oo, _s = out.crossings.pop(i)
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (x, y) in ((ui, oo), (oi, uo)):
            rx, ry = find(x), find(y)
            if rx == ry:
                out.free_circles += 1
            else:
                parent[max(rx, ry)] = min(rx, ry)
        for c in out.crossings:
            for j in range(4):
                c[j] = find(c[j])
        return out

    def first_underpass(self):
        succ = self.successor()
        enters_under = {}
        enters_over = {}
        for ci, (ui, uo, oi, oo, _s) in enumerate(self.crossings):
            enters_under[ui] = ci
            enters_over[oi] = ci
        seen = set()
        for comp in self.components():
            for arc in comp:
                if arc in enters_under:
                    ci = enters_under[arc]
                    if ci not in seen:
                        return ci
                    continue
                ci = enters_over[arc]
                seen.add(ci)
        return None


def _list_nabla(tangle):
    if not tangle.crossings:
        return {0: 1} if tangle.free_circles == 1 else {}
    ci = tangle.first_underpass()
    if ci is None:
        n_comp = len(tangle.components()) + tangle.free_circles
        return {0: 1} if n_comp == 1 else {}
    sign = tangle.crossings[ci][4]
    a = _list_nabla(tangle.switched(ci))
    b = _list_nabla(tangle.smoothed(ci))
    out = dict(a)
    for e, c in b.items():
        out[e + 1] = out.get(e + 1, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def conway_skein_lists(pd):
    """The skein recursion of `alexander.conway_skein` without its
    Reidemeister moves, split zero and memo, on mutable crossing lists."""
    if len(pd) == 0:
        return {0: 1}
    return _list_nabla(_ListTangle.from_pd(pd))


def exp_substitute_per_term(p, K):
    """`series.exp_substitute` term by term: each c t^m adds c m^n / n! at
    h^n."""
    out = [Fraction(0)] * (K + 1)
    for m, c in p.coeffs.items():
        for n in range(K + 1):
            out[n] += c * Fraction(m ** n if n else 1, factorial(n))
    return PowerSeries(K, out)


def _truncated_mul(a, b):
    """a * b for coefficient lists of one length K + 1, cut after h^K."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def power_loop_log(s):
    """log of a power series given as a coefficient list with s[0] = 1,
    lowest power first: the sum of (-1)^(m+1) x^m / m over 1 <= m <= K for
    x = s - 1, each power by a whole truncated product."""
    assert s[0] == 1
    x = [Fraction(0)] + list(s[1:])
    out = [Fraction(0)] * len(s)
    power = [Fraction(1)] + [Fraction(0)] * (len(s) - 1)
    for m in range(1, len(s)):
        power = _truncated_mul(power, x)
        out = [c + Fraction((-1) ** (m + 1), m) * q
               for c, q in zip(out, power)]
    return out


def power_loop_exp(a):
    """`PowerSeries.exp` on a coefficient list with a[0] = 0: the sum of
    a^m / m! over 0 <= m <= K."""
    assert a[0] == 0
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    power = list(out)
    for m in range(1, len(a)):
        power = _truncated_mul(power, a)
        out = [c + Fraction(1, factorial(m)) * q for c, q in zip(out, power)]
    return out
