"""The quotient space per degree: basis, reduction, and dimensions.

Row reduction is exact sparse Gaussian elimination with a fixed class
ordering (canonical keys, lexicographic), kept fully reduced.  The relators
have integer coefficients, and a row whose lead is +-1 is normalized by its
sign, so rows stay Python ints; a `Fraction` enters only through a lead of
any other value.  The fully reduced echelon form of a row space over a
fixed column order is unique, so bases and reduced coordinates are
reproducible whatever order the rows come in.  The relators come in by
descending rank of their first column: a kept row holds no column before
its own lead, so a row whose lead comes before every kept lead needs no
back-substitution, and in this order most rows are such rows.  The degree-k
space splits into

  P  connected classes with a univalent vertex,
  N  the empty class and the product classes,
  T  classes with a purely trivalent component,

read off the class list: products commute in the quotient, so the product
classes span every product, and interleaved disconnected classes generate
no summand.  The independent classes of each summand give its dimension,
and one more elimination over all of them checks that the sum is direct.

`project_pc`, the projection onto P along N + T, serves only the tests
(the program takes wc' as a cumulant over components instead); it stays
here while the benchmark's tracer test (perfbench/test_perfbench.py)
expects every traced layer function to exist.
"""

from fractions import Fraction

from .enumerate import K_MAX, enumerate_jacobi, per_degree
from .jacobi import class_of
from .relations import generate_relations
from .vectors import DiagramVector


def _ints(row):
    """Turn the integral `Fraction`s of a row into ints, in place."""
    for k, c in row.items():
        if type(c) is Fraction and c.denominator == 1:
            row[k] = c.numerator


class _Eliminator:
    """Sparse RREF accumulator over a fixed column order.  Once a kept row
    has a lead other than +-1, values can be `Fraction`s, and each row the
    elimination writes has its integral ones turned back into ints; before
    that, every value is an int and nothing is checked."""

    def __init__(self, column_rank):
        self.column_rank = column_rank  # key -> position
        self.pivots = {}                # key -> normalized row (dict)
        self._first = None              # least rank of a kept lead
        self._fractions = False         # whether a kept lead was not +-1

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
                nc = terms.get(k2, 0) - c * c2
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
        c = terms[lead]
        if c == 1:
            row = terms
        elif c == -1:
            row = {k: -c2 for k, c2 in terms.items()}
        else:
            inv = Fraction(1, c)
            row = {k: c2 * inv for k, c2 in terms.items()}
            self._fractions = True
        if self._fractions:
            _ints(row)
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
                        nc = other.get(k2, 0) - c * c2
                        if nc:
                            other[k2] = nc
                        else:
                            other.pop(k2, None)
                    if self._fractions:
                        _ints(other)
        self.pivots[lead] = row
        return lead


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


@per_degree()
def quotient_basis(k):
    keys = []
    for rep in enumerate_jacobi(k, k_max=k):
        key, sign = class_of(rep)
        if sign:  # classes killed by antisymmetry never index a column
            keys.append(key)
    keys.sort()
    rank = {key: i for i, key in enumerate(keys)}
    elim = _Eliminator(rank)
    rows = [vec.terms for vec in generate_relations(k, k_max=k).vectors()
            if not vec.is_zero()]
    # latest leads first: a row whose lead no kept row reaches needs no
    # back-substitution, and the reduced form does not depend on the order
    rows.sort(key=lambda terms: min(map(rank.__getitem__, terms)),
              reverse=True)
    for terms in rows:
        elim.add_row(terms)
    return Quotient(k, keys, elim)


def _independent(quotient, keys):
    """The keys whose classes are independent of the ones before them."""
    elim = _Eliminator({key: i for i, key in enumerate(quotient.basis)})
    picked = []
    for key in keys:
        red = quotient.reduce(DiagramVector(quotient.degree, {key: 1}))
        if elim.add_row(red.terms) is not None:
            picked.append(key)
    return picked


def _summands(k):
    """The nonvanishing class keys of degree k in P, N and T."""
    p_keys, n_keys, t_keys = [], [], []
    for rep in enumerate_jacobi(k, k_max=k):
        key, sign = class_of(rep)
        if not sign:
            continue
        parts = rep.component_map()
        if rep.has_trivalent_component(parts[0]):
            t_keys.append(key)
        elif rep.nv == 0 or rep.product_split(parts) is not None:
            n_keys.append(key)
        elif len(parts[0]) == 1:
            p_keys.append(key)
    return p_keys, n_keys, t_keys


@per_degree()
def splitting(k):
    """The independent generator keys of P, N and T in degree k, checked to
    make up a basis of the quotient together."""
    q = quotient_basis(k, k_max=k)
    parts = tuple(_independent(q, keys) for keys in _summands(k))
    gens = [key for part in parts for key in part]
    picked = _independent(q, gens)
    if picked != gens:
        j = next(j for j, (a, b) in enumerate(zip(gens, picked + [None]))
                 if a != b)
        raise ArithmeticError(
            f"splitting of degree {k} is not a direct sum: "
            f"generator {j} depends on those before it")
    if len(gens) != q.dim:
        raise ArithmeticError(
            f"splitting of degree {k} has total dimension "
            f"{len(gens)} != {q.dim}")
    return parts


def dims_table(k, k_max=K_MAX):
    dim_p, dim_n, dim_t = map(len, splitting(k, k_max))
    return {"degree": k, "dim_A": dim_p + dim_n + dim_t, "dim_P": dim_p,
            "dim_N": dim_n, "dim_T": dim_t}


# -- the projection onto P (only the tests call it) --------------------------

@per_degree()
def _projector(k):
    """The splitting's generators eliminated with marker column j on
    generator j, ranked after the basis columns."""
    q = quotient_basis(k, k_max=k)
    gens = [key for part in splitting(k, k_max=k) for key in part]
    rank = {key: i for i, key in enumerate(q.basis)}
    rank.update((j, q.dim + j) for j in range(len(gens)))
    elim = _Eliminator(rank)
    for j, key in enumerate(gens):
        row = q.reduce(DiagramVector(k, {key: 1})).terms
        row[j] = 1
        elim.add_row(row)
    return elim


def project_pc(vec, k_max=K_MAX):
    """Component in P along N + T, as a vector of P generator classes: a
    vector reduced by the projector's rows leaves minus its coordinates on
    the markers."""
    k = vec.degree
    left = _projector(k, k_max)._reduce_terms(
        quotient_basis(k, k_max).reduce(vec).terms)
    out = DiagramVector(k)
    for j, key in enumerate(splitting(k, k_max)[0]):
        if left.get(j):
            out.add_term(key, -left[j])
    return out
