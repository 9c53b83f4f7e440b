"""The quotient space per degree: basis, reduction, and the splitting.

Row reduction is exact sparse Gaussian elimination over Fractions with a
fixed class ordering (canonical keys, lexicographic), so bases and reduced
coordinates are reproducible.  The degree-k space splits into

  P  classes of connected diagrams with a univalent vertex,
  N  the span of non-trivial products (plus the empty class in degree 0),
  T  classes with a purely trivalent component,

and the projection onto P along N + T realizes the connected part used by
the logarithmic weight system.
"""

from fractions import Fraction

from .enumerate import K_MAX, enumerate_jacobi, per_degree
from .jacobi import canonicalize, product
from .relations import generate_relations
from .vectors import DiagramVector, vector_of


class _Eliminator:
    """Sparse RREF accumulator over a fixed column order."""

    def __init__(self, column_rank):
        self.column_rank = column_rank  # key -> position
        self.pivots = {}                # key -> normalized row (dict)

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
        terms = self._reduce_terms(terms)
        if not terms:
            return False
        lead = min(terms, key=self.column_rank.get)
        inv = 1 / terms[lead]
        row = {k: c * inv for k, c in terms.items()}
        for col, other in self.pivots.items():
            c = other.get(lead)
            if c:
                for k2, c2 in row.items():
                    nc = other.get(k2, Fraction(0)) - c * c2
                    if nc:
                        other[k2] = nc
                    else:
                        other.pop(k2, None)
        self.pivots[lead] = row
        return True


class Quotient:
    """Basis of a degree's quotient space plus the reduction map."""

    def __init__(self, degree, class_keys, eliminator):
        self.degree = degree
        self.class_keys = class_keys
        self._elim = eliminator
        self.basis = [k for k in class_keys if k not in eliminator.pivots]

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Rewrite a vector in terms of basis classes."""
        terms = self._elim._reduce_terms(vec.terms)
        return DiagramVector(self.degree, terms)

    def coords(self, vec):
        red = self.reduce(vec)
        return [red.terms.get(k, Fraction(0)) for k in self.basis]


@per_degree()
def quotient_basis(k):
    keys = []
    for rep in enumerate_jacobi(k, k_max=k):
        key, sign, _ = canonicalize(rep)
        if sign:  # classes killed by antisymmetry never index a column
            keys.append(key)
    keys.sort()
    rank = {key: i for i, key in enumerate(keys)}
    elim = _Eliminator(rank)
    for vec in generate_relations(k, k_max=k).vectors():
        if not vec.is_zero():
            elim.add_row(vec.terms)
    return Quotient(k, keys, elim)


def _independent(quotient, generators):
    """Select generators with independent reduced coordinates."""
    rank = {key: i for i, key in enumerate(quotient.basis)}
    elim = _Eliminator(rank)
    picked = []
    for gen, vec in generators:
        red = quotient.reduce(vec)
        if elim.add_row(red.terms):
            picked.append((gen, quotient.coords(vec)))
    return picked


class Splitting:
    """The decomposition P + N + T of one degree, with its projector."""

    def __init__(self, k):
        q = quotient_basis(k, k_max=k)
        self.quotient = q
        self.degree = k

        p_gens, n_gens, t_gens = [], [], []
        if k == 0:
            for key in q.basis:
                n_gens.append((key, DiagramVector(0, {key: 1})))
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
            for k1 in range(1, k):
                k2 = k - k1
                if k1 > k2:
                    break
                lefts = [d for d in enumerate_jacobi(k1, k_max=k)
                         if not d.has_trivalent_component()]
                rights = [d for d in enumerate_jacobi(k2, k_max=k)
                          if not d.has_trivalent_component()]
                for d1 in lefts:
                    for d2 in rights:
                        prod = product(d1, d2)
                        vec = vector_of(prod)
                        if not vec.is_zero():
                            n_gens.append(((canonicalize(d1)[0],
                                            canonicalize(d2)[0]), vec))

        self.p_part = _independent(q, p_gens)
        self.n_part = _independent(q, n_gens)
        self.t_part = _independent(q, t_gens)
        self._check_direct_sum()

    def _check_direct_sum(self):
        q = self.quotient
        cols = ([c for _, c in self.p_part] + [c for _, c in self.n_part]
                + [c for _, c in self.t_part])
        if len(cols) != q.dim:
            raise ArithmeticError(
                f"splitting of degree {self.degree} has total dimension "
                f"{len(cols)} != {q.dim}")
        self._solver = _Solver(cols)

    @property
    def dims(self):
        return (self.quotient.dim, len(self.p_part), len(self.n_part),
                len(self.t_part))

    def project_connected(self, vec):
        """Component in P along N + T, as a vector of P generator classes."""
        if vec.is_zero():
            return DiagramVector(self.degree)
        coeffs = self._solver.solve(self.quotient.coords(vec))
        out = DiagramVector(self.degree)
        for (gen_key, _), c in zip(self.p_part, coeffs[:len(self.p_part)]):
            if c:
                out.add_term(gen_key, c)
        return out


class _Solver:
    """Dense exact solver for the fixed square system of a splitting."""

    def __init__(self, columns):
        n = len(columns)
        aug = [[columns[j][i] for j in range(n)] + [Fraction(int(i == j))
                                                    for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        self.inverse = [row[n:] for row in aug]

    def solve(self, b):
        return [sum(r * x for r, x in zip(row, b)) for row in self.inverse]


@per_degree()
def splitting(k):
    return Splitting(k)


def project_pc(vec, k_max=K_MAX):
    """Projection onto connected-with-univalent classes (p^c)."""
    return splitting(vec.degree, k_max).project_connected(vec)


def reduce_vector(vec, k_max=K_MAX):
    return quotient_basis(vec.degree, k_max).reduce(vec)


def dims_table(k, k_max=K_MAX):
    s = splitting(k, k_max)
    dim_a, dim_p, dim_n, dim_t = s.dims
    return {"degree": k, "dim_A": dim_a, "dim_P": dim_p,
            "dim_N": dim_n, "dim_T": dim_t}

