"""Naive generate-and-filter enumerations used to cross-check the fast
generators, and a dense rank for the sparse eliminator.  Everything here
works by exhausting a finite search space and keeping what passes an
independently coded validity test, or by textbook elimination."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from knotweights.bcr import EXTERNAL, INTERNAL, bcr_key, validate_bcr
from knotweights.jacobi import class_of, make_diagram


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
