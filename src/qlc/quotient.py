"""Quotient rings, lengths, and finite-length subquotient modules.

An ideal in R = ambient/(relations) is handled by adjoining the relation
generators before any Groebner computation; QuotientPresentation carries the
convention.  vector_module realizes J/K as an explicit finite-dimensional
vector space with one commuting action matrix per variable, found by spinning
the generators and closing under the variable actions.
"""

from __future__ import annotations

import itertools

from . import dsl
from .groebner import IdealHandle, InternalError, ideal_sum, normal_form
from .linalg import RowSpace, mat_mul
from .poly import Polynomial, PolyRing, grevlex, mono_divides


class NotZeroDimensional(ValueError):
    """Raised when a length is requested for an ideal of positive dimension."""


class QuotientPresentation:
    """A ring ambient/(relations); the zero ring is rejected at construction."""

    def __init__(self, ambient: PolyRing, relations=()):
        if isinstance(relations, IdealHandle):
            relations = relations.generators
        rels = [r for r in relations if not r.is_zero()]
        self.ambient = ambient
        self.relations = IdealHandle(ambient, rels)
        if rels and self.relations.is_unit_ideal():
            raise ValueError("relations generate the unit ideal: the ring is zero")

    @staticmethod
    def parse(text: str) -> "QuotientPresentation":
        ring, rels = dsl.parse_ring(text)
        return QuotientPresentation(ring, rels)

    def describe(self) -> str:
        return dsl.format_ring(self.ambient, self.relations.generators)

    def ideal(self, gens) -> IdealHandle:
        """Ideal of the quotient ring: generators plus the relations."""
        if isinstance(gens, IdealHandle):
            gens = gens.generators
        return IdealHandle(self.ambient, tuple(gens) + self.relations.generators)

    def nf(self, f: Polynomial, order=grevlex) -> Polynomial:
        return self.relations.normal_form(f, order)

    def is_zero_element(self, f: Polynomial) -> bool:
        return self.relations.contains_poly(f)

    def __repr__(self):
        return self.describe()


def is_zero_dimensional(I: IdealHandle, order=grevlex) -> bool:
    """True when R/I has finite length (a pure power of every variable leads)."""
    gb = I.groebner_basis(order)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return True  # unit ideal, the zero module
    lts = [g.leading(order)[0] for g in gb]
    n = I.ring.nvars
    for i in range(n):
        if not any(lt[i] > 0 and sum(lt) == lt[i] for lt in lts):
            return False
    return True


def standard_monomials(I: IdealHandle, order=grevlex) -> list[tuple]:
    """Monomials outside LT(I), sorted ascending; error if infinitely many."""
    gb = I.groebner_basis(order)
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return []
    lts = [g.leading(order)[0] for g in gb]
    n = I.ring.nvars
    bounds = []
    for i in range(n):
        pure = [lt[i] for lt in lts if lt[i] > 0 and sum(lt) == lt[i]]
        if not pure:
            raise NotZeroDimensional(f"no pure power of {I.ring.variables[i]} leads {I!r}")
        bounds.append(min(pure))
    out = []
    for exps in itertools.product(*[range(b) for b in bounds]):
        if not any(mono_divides(lt, exps) for lt in lts):
            out.append(exps)
    out.sort(key=order.key)
    return out


def length(I: IdealHandle, order=grevlex) -> int:
    """Vector space dimension of R/I (0 for the unit ideal)."""
    return len(standard_monomials(I, order))


class VectorModule:
    """Finite-length module as explicit data: basis labels, dimension, and one
    action matrix per ambient variable, row-major (A[i][j] is the coefficient
    of basis vector i in x * basis vector j).

    k_gb is the reduced GB of the ideal the module is taken modulo, or None.
    space, when given, is the RowSpace of normal forms modulo k_gb whose
    pivot rows are the basis: the polynomial model behind element_from_poly.
    """

    def __init__(self, ring, actions: dict, labels=None, k_gb=None, order=grevlex,
                 space=None):
        dims = {len(m) for m in actions.values()}
        if set(actions) != set(ring.variables):
            raise ValueError("need exactly one action matrix per ring variable")
        if len(dims) != 1:
            raise ValueError("action matrices disagree on dimension")
        n = dims.pop()
        for m in actions.values():
            if any(len(row) != n for row in m):
                raise ValueError("action matrices must be square")
        self.ring = ring
        self.order = order
        self.field = ring.field
        self.k_gb = k_gb
        self.space = space
        self.dim = n
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(n)]
        self.actions = {v: [list(row) for row in actions[v]] for v in ring.variables}
        self._assert_commuting()

    def _assert_commuting(self):
        names = self.ring.variables
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = self.actions[names[i]], self.actions[names[j]]
                if mat_mul(self.field, a, b) != mat_mul(self.field, b, a):
                    raise InternalError(f"actions of {names[i]} and {names[j]} do not commute")

    def element_from_poly(self, f: Polynomial) -> list:
        """Coordinates of f's class; ValueError if f is not in the module or
        the module has no polynomial model (from_actions, direct_sum)."""
        if self.space is None:
            raise ValueError("the module has no polynomial model")
        vec = normal_form(f, self.k_gb, self.order).terms
        if self.space.reduce(vec):
            raise ValueError(f"{f!r} does not lie in the module")
        return [vec.get(p, self.field.zero) for p in self.space.pivots()]

    def format_vector(self, v) -> str:
        parts = []
        F = self.field
        for c, lbl in zip(v, self.labels):
            if c == F.zero:
                continue
            parts.append(lbl if c == F.one else f"{F.format_factor(c)}*{lbl}")
        return " + ".join(parts) if parts else "0"

    @classmethod
    def from_actions(cls, ring, actions: dict, labels=None, k_gb=None) -> "VectorModule":
        """Module given directly by its action matrices (one per ring variable).

        Matrices are row-major over ring.field and must commute pairwise.  No
        polynomial model is attached, so element_from_poly raises ValueError;
        k_gb, when given, names the ideal the module is taken modulo and only
        feeds lower_length_ratio.
        """
        return cls(ring, actions, labels, k_gb)


def _times_var(ring, var_index: int, row: dict, k_gb, order) -> dict:
    """Terms of x_i * row reduced modulo k_gb."""
    shifted = {}
    for m, c in row.items():
        e = list(m)
        e[var_index] += 1
        shifted[tuple(e)] = c
    return normal_form(Polynomial(ring, shifted), k_gb, order).terms


def vector_module(J: IdealHandle, K: IdealHandle, degree_bound: int = 64,
                  order=grevlex) -> VectorModule:
    """The subquotient J/K as a VectorModule.  K must sit inside J; the spin
    aborts past degree_bound (the module is then infinite length, or the
    bound is too tight)."""
    ring = J.ring
    if K.ring != ring:
        raise ValueError("J and K live in different rings")
    k_gb = list(K.groebner_basis(order))
    for g in K.generators:
        if not J.contains_poly(g):
            raise ValueError("K is not contained in J")
    space = RowSpace(ring.field, colkey=order.key)
    queue = []
    for g in J.generators:
        nf = normal_form(g, k_gb, order)
        row = space.insert(nf.terms)
        if row is not None:
            queue.append(dict(row))
    while queue:
        row = queue.pop()
        if any(sum(m) > degree_bound for m in row):
            raise ValueError(f"module spin exceeded degree bound {degree_bound}")
        for vi in range(ring.nvars):
            new = space.insert(_times_var(ring, vi, row, k_gb, order))
            if new is not None:
                queue.append(dict(new))
    pivots = space.pivots()
    dim = len(pivots)
    zero = ring.field.zero
    actions = {}
    for vi, var in enumerate(ring.variables):
        cols = []
        for p in pivots:
            image = _times_var(ring, vi, space.rows[p], k_gb, order)
            if space.reduce(image):
                raise InternalError("module spin was not action-closed")
            cols.append([image.get(q, zero) for q in pivots])
        actions[var] = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    labels = [dsl._format_mono(ring, p) or "1" for p in pivots]
    return VectorModule(ring, actions, labels, k_gb, order, space)


def quotient_module(Q: IdealHandle, degree_bound: int = 64, order=grevlex) -> VectorModule:
    """R/Q as a VectorModule (J = (1))."""
    one = IdealHandle(Q.ring, [Q.ring.one()])
    return vector_module(one, Q, degree_bound, order)


def min_generators(M: VectorModule) -> int:
    """dim M/mM, m = (all variables): minimal generator count (graded local)."""
    mspace = RowSpace(M.field)
    for var in M.ring.variables:
        A = M.actions[var]
        for j in range(M.dim):
            col = {i: A[i][j] for i in range(M.dim) if A[i][j] != M.field.zero}
            mspace.insert(col)
    return M.dim - mspace.dim


def direct_sum(M: VectorModule, N: VectorModule) -> VectorModule:
    """Block sum; the two modules must share their ambient ring.  The sum has
    no single polynomial model (k_gb is None)."""
    if M.ring != N.ring:
        raise ValueError("direct sum across different rings")
    F = M.field
    actions = {}
    for var in M.ring.variables:
        top = [list(row) + [F.zero] * N.dim for row in M.actions[var]]
        bottom = [[F.zero] * M.dim + list(row) for row in N.actions[var]]
        actions[var] = top + bottom
    labels = [f"({l},0)" for l in M.labels] + [f"(0,{l})" for l in N.labels]
    return VectorModule(M.ring, actions, labels, order=M.order)
