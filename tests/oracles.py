"""Naive generate-and-filter enumerations used to cross-check the fast
generators, the Jacobi enumeration without its swap filter, the relators
listed at every local site, a dense rank for the sparse eliminator, the
canonical labeling search without automorphism pruning and with it but
without the least-sibling cut, the P + N + T splitting with N spanned by
products and its projection onto the connected summand P, the STU and IHX
moves that renumber their terms or scan for the moving half-edges, the
circle-counting weight and its cumulant by a class-keyed, memoized STU
recursion and by STU on whole diagrams with every block of the cumulant
rebuilt, the BCR sources of a diagram listed one by one, the weighted
source count by a scan over every ordering of every BCR class, the
Alexander determinant by expansion in minors, and the skein recursion on
mutable crossing lists.  Everything here works by exhausting a
finite search space and keeping what passes an independently coded validity
test, or by textbook elimination."""

from bisect import bisect_left
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, groupby,
                       permutations, product)
from math import factorial, prod

from knotweights import canon
from knotweights.bcr import EXTERNAL, INTERNAL, bcr_key, validate_bcr
from knotweights.bridge import _group_order as group_order
from knotweights.bridge import _orbit_length, _vertex_roles, _wbcr_table
from knotweights.conway import _set_partitions, count_circles
from knotweights.enumerate import (K_MAX, _multigraphs, check_degree,
                                   enumerate_jacobi)
from knotweights.jacobi import (JacobiDiagram, _colors, _orientation_sign,
                                _rotate_to, automorphisms, canonicalize,
                                class_of, ihx_terms, internal_edges,
                                make_diagram, representative, stu_expand,
                                stu_sites)
from knotweights.jacobi import product as diagram_product
from knotweights.quotient import _Eliminator, quotient_basis
from knotweights.relations import RelationSet
from knotweights.series import LaurentPolynomial
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


def brute_force_bcr_keys(k):
    """Canonical keys of all valid diagrams on 2k vertices, by exhaustion."""
    nv = 2 * k
    pairs = [(a, b) for a in range(nv) for b in range(nv) if a != b]
    keys = set()
    for chosen in combinations(pairs, nv):
        for classes in product((INTERNAL, EXTERNAL), repeat=nv):
            edges = [(a, b, cls) for (a, b), cls in zip(chosen, classes)]
            for ext_bits in range(1 << nv):
                external = [v for v in range(nv) if ext_bits >> v & 1]
                if not _bcr_local_check(nv, set(external), edges):
                    continue
                d = validate_bcr(nv, external, edges)
                keys.add(bcr_key(d))
    return keys


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


def enumerate_jacobi_unfiltered(k):
    """Jacobi class representatives by the first-touch multigraph loop alone,
    every candidate canonicalized, in key order."""
    found = {}
    for t in range(0, 2 * k + 1):
        u = 2 * k - t
        if (3 * t + u) % 2:
            continue
        for edges in _multigraphs([1] * u + [3] * t, free_start=u):
            key, _, rep = canonicalize(make_diagram(2 * k, range(u), edges))
            found.setdefault(key, rep)
    return tuple(found[key] for key in sorted(found))


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


def canonical_form_all(n, colors, edges, directed=False):
    """`canon.canonical_form` without automorphism pruning: the search
    visits every minimizing relabeling and returns ``(key, perms)`` with
    all of them, so ``len(perms)`` is the order of the automorphism group.
    """
    if n == 0:
        return ((), ()), [()]
    order = sorted(range(n), key=lambda v: (colors[v], v))
    slot_colors = tuple(colors[v] for v in order)

    incidence = [[] for _ in range(n)]
    for (u, v, tag) in edges:
        if directed:
            incidence[u].append((v, tag, 1))
            incidence[v].append((u, tag, -1))
        else:
            incidence[u].append((v, tag, 0))
            incidence[v].append((u, tag, 0))

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
                    new_tokens.append(canon._edge_token(assign[a], assign[b],
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


def canonical_form_dfs(n, colors, edges, directed=False):
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
        if directed:
            incidence[u].append((v, tag, 1))
            incidence[v].append((u, tag, -1))
        else:
            incidence[u].append((v, tag, 0))
            incidence[v].append((u, tag, 0))

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
                        canon._edge_token(assign[a], assign[b], tag, directed))
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


def class_of_all(d):
    """`jacobi.class_of` by the unpruned search, as ``(key, sign, |Aut|)``:
    the sign is read in every minimizing relabeling and is 0 unless they
    all agree."""
    entries = [(u, v, 0) for (u, v) in d.edges]
    key, perms = canonical_form_all(d.nv, _colors(d), entries)
    signs = {_orientation_sign(d, entries, perm) for perm in perms}
    return key, (signs.pop() if len(signs) == 1 else 0), len(perms)


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
        elim = _Eliminator({key: i for i, key in
                            enumerate(self.quotient.basis)})
        return [(gen, self.coords(vec)) for gen, vec in generators
                if elim.add_row(self.quotient.reduce(vec).terms) is not None]

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
        inv = 1 / aug[col][col]
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
                val = Fraction(1 if count_circles(rep) == 0 else 0)
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
        return Fraction(1 if count_circles(d) == 0 else 0)
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
    `sub_diagram` and resolved from scratch by `wc_resolved`."""
    check_degree(d.degree, k_max)
    comps = d.components()
    if not comps:
        return Fraction(0)
    block_wc = {}
    total = Fraction(0)
    for part in _set_partitions(list(range(len(comps)))):
        n = len(part)
        term = Fraction((-1) ** (n - 1) * factorial(n - 1))
        for block in part:
            block = tuple(block)
            if block not in block_wc:
                block_wc[block] = wc_resolved(sub_diagram(
                    d, [v for i in block for v in comps[i]]))
            term *= block_wc[block]
        total += term
    return total


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


def _parallel_factor(rep):
    """Number of edge bijections per vertex automorphism (parallel swaps)."""
    counts = {}
    for (a, b) in rep.edges:
        pair = (min(a, b), max(a, b))
        counts[pair] = counts.get(pair, 0) + 1
    return prod(factorial(m) for m in counts.values())


def _jacobi_edge_aut_order(rep):
    return group_order(rep.nv, automorphisms(rep)) * _parallel_factor(rep)


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


def laplace_det(rows):
    """`alexander._det` by expansion along the first row, with memoized
    minors: O(n 2^n) products of Laurent polynomials."""
    n = len(rows)
    if n == 0:
        return LaurentPolynomial({0: 1})
    full = (1 << n) - 1
    memo = {}

    def minor(row, cols):
        if row == n:
            return LaurentPolynomial({0: 1})
        got = memo.get((row, cols))
        if got is not None:
            return got
        total = LaurentPolynomial()
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not cols & bit:
                continue
            c = rows[row][j]
            if not c.is_zero():
                total = total + sign * c * minor(row + 1, cols & ~bit)
            sign = -sign
        memo[(row, cols)] = total
        return total

    return minor(0, full)


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
