"""The quotient space per degree: basis, reduction, and dimensions.

The relators are kept in row echelon form over a fixed class ordering
(canonical keys, lexicographic) on integer columns: column i is the class
`class_keys[i]`, and `rank` maps a key to its column.  Each relator is
mapped to columns once, so the kept rows, their leads and the reduction
heap hold and compare ints, not keys of some twenty small tuples each
(1.5-1.7 KB at degree 5), and a key appears only where a vector comes in
or goes out (`basis`, `reduce`, the splitting and the projection); cold
`dim --degree 6` took 70.5 s on columns against 92.9 s on keys (one run
each, 2-core shared machine, CPython 3.11).  Each kept row is filed
under its lead, its least column, where it holds 1, and no two rows share
a lead.
Every echelon form of a row space over a fixed column order has the same
set of leads, so the basis, the classes that lead no row, depends on the
row space alone, not on the rows that span it or their order.  Reducing a
vector by the rows, lead columns in increasing order, leaves the one vector
congruent to it modulo the relators that lives on basis columns, so reduced
coordinates do not depend on them either.  A kept row is never edited, so a
copy of the pivot dict can be extended with more rows while it shares the
relators' rows.  The relators have integer coefficients, and a row whose
lead is +-1 is normalized by its sign, so rows stay Python ints; a
`Fraction` enters only through a lead of any other value.  The relators
come in by descending rank of their lead: in the order they are generated,
the kept rows fill in, and degree-5 elimination takes more than ten times
as long.  The degree-k space splits into

  P  connected classes with a univalent vertex,
  N  the empty class and the product classes,
  T  classes with a purely trivalent component,

read off the class list: products commute in the quotient, so the product
classes span every product, and interleaved disconnected classes generate
no summand.  A class is independent of the relators and the classes before
it when its unit row, added to the relators' rows, reduces to a new lead.
The independent classes of each summand give its dimension, and one more
pass over all of them checks that the sum is direct.

`project_pc`, the projection onto P along N + T, serves only the tests
(the program takes wc' as a cumulant over components instead); it stays
here while the benchmark's tracer test (perfbench/test_perfbench.py)
expects every traced layer function to exist.
"""

import copy
from fractions import Fraction
from heapq import heapify, heappop, heappush

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
    """Sparse row echelon form on integer columns: `pivots` maps each lead
    column to its row, which has 1 there and no lesser column.  Kept rows
    are never edited, so copies of the form share them.  Once a kept row
    has a lead other than +-1, values can be `Fraction`s, and each new row
    has its integral ones turned back into ints; before that, every value
    is an int and nothing is checked."""

    def __init__(self):
        self.pivots = {}         # lead column -> normalized row (dict)
        self._fractions = False  # whether a kept lead was not +-1

    def _reduce_terms(self, terms):
        """The row less its multiples of kept rows, lead columns taken in
        increasing order, those a subtraction brings in included."""
        terms = dict(terms)
        pivots = self.pivots
        heap = [col for col in terms if col in pivots]
        heapify(heap)
        while heap:
            col = heappop(heap)
            c = terms.get(col)
            if not c:
                continue
            for k2, c2 in pivots[col].items():
                nc = terms.get(k2, 0) - c * c2
                if nc:
                    if k2 not in terms and k2 in pivots:
                        heappush(heap, k2)
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
        lead = min(terms)
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
        self.pivots[lead] = row
        return lead


class Quotient:
    """Basis of a degree's quotient space plus the reduction map.  The
    relators' echelon form is on the columns `rank[key]`, the positions of
    the classes in `class_keys`."""

    def __init__(self, degree, class_keys, rank, eliminator):
        self.degree = degree
        self.class_keys = class_keys
        self.rank = rank
        self._elim = eliminator
        self.basis = [key for i, key in enumerate(class_keys)
                      if i not in eliminator.pivots]

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Rewrite a vector in terms of basis classes.  A key that is not a
        nonvanishing class of the degree has no column, and it raises
        ValueError: passed through, it would look like a basis class."""
        try:
            terms = {self.rank[key]: c for key, c in vec.terms.items()}
        except KeyError as exc:
            raise ValueError(
                f"{exc.args[0]!r} is not a nonvanishing class of degree "
                f"{self.degree}") from None
        keys = self.class_keys
        return DiagramVector(self.degree, {
            keys[i]: c for i, c in self._elim._reduce_terms(terms).items()})


@per_degree()
def quotient_basis(k):
    keys = []
    for rep in enumerate_jacobi(k, k_max=k):
        key, sign = class_of(rep)
        if sign:  # classes killed by antisymmetry never index a column
            keys.append(key)
    keys.sort()
    rank = {key: i for i, key in enumerate(keys)}
    rows = [{rank[key]: c for key, c in vec.terms.items()}
            for vec in generate_relations(k, k_max=k).vectors()
            if not vec.is_zero()]
    # latest leads first, against fill-in (see the module docstring)
    rows.sort(key=min, reverse=True)
    elim = _Eliminator()
    for row in rows:
        elim.add_row(row)
    return Quotient(k, keys, rank, elim)


def _independent(quotient, keys):
    """The keys whose classes are independent of the ones before them: a
    copy of the relators' echelon form, sharing their rows, extended with
    each key's unit row."""
    elim = copy.copy(quotient._elim)
    elim.pivots = dict(elim.pivots)
    rank = quotient.rank
    return [key for key in keys if elim.add_row({rank[key]: 1}) is not None]


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
    """The splitting's generators, reduced, eliminated with marker column
    n + j on generator j, after the n class columns."""
    q = quotient_basis(k, k_max=k)
    gens = [key for part in splitting(k, k_max=k) for key in part]
    n = len(q.class_keys)
    elim = _Eliminator()
    for j, key in enumerate(gens):
        row = q._elim._reduce_terms({q.rank[key]: 1})
        row[n + j] = 1
        elim.add_row(row)
    return elim


def project_pc(vec, k_max=K_MAX):
    """Component in P along N + T, as a vector of P generator classes: a
    vector reduced by the projector's rows leaves minus its coordinates on
    the markers."""
    k = vec.degree
    projector = _projector(k, k_max)
    q = quotient_basis(k, k_max)
    left = projector._reduce_terms(
        {q.rank[key]: c for key, c in q.reduce(vec).terms.items()})
    n = len(q.class_keys)
    out = DiagramVector(k)
    for j, key in enumerate(splitting(k, k_max)[0]):
        if left.get(n + j):
            out.add_term(key, -left[n + j])
    return out
