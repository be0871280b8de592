"""Quotient rings, lengths, and finite-length subquotient modules.

An ideal in R = ambient/(relations) is handled by adjoining the relation
generators before any Groebner computation; QuotientPresentation carries the
convention.  A length counts the standard monomials, those outside LT(I).
vector_module realizes J/K, for K inside J, as an explicit vector space with
one commuting action matrix per variable, read off the reduced bases of J
and K (Macaulay's basis theorem; Cox, Little and O'Shea, "Ideals, Varieties,
and Algorithms", ch. 5 §3): the monomials of LT(J) outside LT(K) index its
basis, and J/K has finite length exactly when they are finitely many.
"""

from __future__ import annotations

from . import dsl
from .config import check_budget
from .groebner import IdealHandle, InternalError, normal_form
from .linalg import RowSpace, mat_mul
from .poly import Polynomial, PolyRing, grevlex, mono_divides, mono_mul


class NotZeroDimensional(ValueError):
    """Raised when a length is requested for an ideal of positive dimension."""


class QuotientPresentation:
    """A ring ambient/(relations); the zero ring is rejected at construction.

    relations is a sequence of polynomials or an IdealHandle.  A handle over
    ambient with no zero generator is kept as it is, with the basis it has
    computed; anything else is rebuilt from its nonzero generators.

    ideal() hands out one shared IdealHandle per generator tuple, kept in a
    table on the presentation: an ideal asked for twice costs one Groebner
    basis, and the handle lives exactly as long as the presentation.
    """

    def __init__(self, ambient: PolyRing, relations=()):
        self.ambient = ambient
        if (isinstance(relations, IdealHandle) and relations.ring == ambient
                and not any(g.is_zero() for g in relations.generators)):
            self.relations = relations
        else:
            if isinstance(relations, IdealHandle):
                relations = relations.generators
            self.relations = IdealHandle(ambient, [r for r in relations if not r.is_zero()])
        if self.relations.generators and self.relations.is_unit_ideal():
            raise ValueError("relations generate the unit ideal: the ring is zero")
        self._ideals = {}

    @staticmethod
    def parse(text: str) -> "QuotientPresentation":
        ring, rels = dsl.parse_ring(text)
        return QuotientPresentation(ring, rels)

    def describe(self) -> str:
        return dsl.format_ring(self.ambient, self.relations.generators)

    def ideal(self, gens) -> IdealHandle:
        """Ideal of the quotient ring: generators plus the relations.

        The handle for a given generator tuple (the relations' generators
        appended) is shared: the first call builds it, every later call with
        an equal tuple returns the same handle and so the basis it keeps.
        Another order of the same generators gets a handle of its own."""
        if isinstance(gens, IdealHandle):
            gens = gens.generators
        gens = tuple(gens) + self.relations.generators
        handle = self._ideals.get(gens)
        if handle is None:
            handle = self._ideals[gens] = IdealHandle(self.ambient, gens)
        return handle

    def __repr__(self):
        return self.describe()


def _leads(I: IdealHandle) -> list:
    """Leading monomials of I's reduced grevlex basis."""
    return [g.leading()[0] for g in I.groebner_basis()]


def _standard(lts: list, ring, what):
    """The monomials of ring outside the monomial ideal lts generate,
    lazily and in lex order: each exponent run in the box below the pure
    powers among lts stops at its first monomial in the ideal.  Raises
    NotZeroDimensional, naming what (the ideal lts lead), when some
    variable has no pure power."""
    if any(not any(lt) for lt in lts):
        return  # the unit ideal
    bounds = []
    for i, name in enumerate(ring.variables):
        pure = [lt[i] for lt in lts if lt[i] > 0 and sum(lt) == lt[i]]
        if not pure:
            raise NotZeroDimensional(f"no pure power of {name} leads {what}")
        bounds.append(min(pure))

    def walk(head):
        pad = (0,) * (len(bounds) - len(head) - 1)
        for e in range(bounds[len(head)]):
            check_budget()
            m = head + (e,) + pad
            if any(mono_divides(lt, m) for lt in lts):
                return  # so is every monomial that starts with head + (e',), e' >= e
            yield from walk(head + (e,)) if pad else (m,)

    yield from walk(())


def standard_monomials(I: IdealHandle) -> list[tuple]:
    """Monomials outside LT(I), sorted ascending under grevlex."""
    return sorted(_standard(_leads(I), I.ring, I), key=grevlex.key)


def length(I: IdealHandle) -> int:
    """Vector space dimension of R/I (0 for the unit ideal)."""
    return sum(1 for _ in _standard(_leads(I), I.ring, I))


class VectorModule:
    """Finite-length module as explicit data: basis labels, dimension, and one
    action matrix per ambient variable, row-major (A[i][j] is the coefficient
    of basis vector i in x * basis vector j).

    k_gb is the reduced GB of the ideal the module is taken modulo, or None.
    Modules are built under grevlex.
    """

    def __init__(self, ring, actions: dict, labels=None, k_gb=None):
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
        self.field = ring.field
        self.k_gb = k_gb
        self.dim = n
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(n)]
        self.actions = {v: [list(row) for row in actions[v]] for v in ring.variables}
        self._check_commuting()

    def _check_commuting(self):
        names = self.ring.variables
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = self.actions[names[i]], self.actions[names[j]]
                if mat_mul(self.field, a, b) != mat_mul(self.field, b, a):
                    raise ValueError(f"actions of {names[i]} and {names[j]} do not commute")

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

        Matrices are row-major over ring.field and must commute pairwise
        (ValueError otherwise).  k_gb, when given, names the ideal the module
        is taken modulo; it feeds the length-ratio lower bound and the exact
        search's pruning denominator (_factor_dim).
        """
        return cls(ring, actions, labels, k_gb)


def _times_var(ring, var_index: int, row: dict, K: IdealHandle) -> dict:
    """Terms of x_i * row reduced modulo K."""
    check_budget()  # a one-term normal form takes no budget check of its own
    shifted = {}
    for m, c in row.items():
        e = list(m)
        e[var_index] += 1
        shifted[tuple(e)] = c
    return normal_form(Polynomial(ring, shifted), K).terms


def vector_module(J: IdealHandle, K: IdealHandle) -> VectorModule:
    """The subquotient J/K as a VectorModule; K must sit inside J.

    The basis is labelled by the pivots, largest first: the monomials of
    LT(J) outside LT(K), that is a*u for a in LT(J) and u outside the
    monomial colon (LT(K) : a).  When they are infinitely many, so is the
    length of J/K: ValueError, before any basis row is built.  The row at m
    is m - NF_J(m): it lies in J, is reduced modulo K (inside J), and has
    coefficient 1 at m and 0 at every other pivot.  No degree limit.
    """
    ring = J.ring
    if K.ring != ring:
        raise ValueError("J and K live in different rings")
    if not J.contains_ideal(K):
        raise ValueError("K is not contained in J")
    k_lts = _leads(K)
    pivots = set()
    try:
        for a in _leads(J):
            colon = [tuple(max(b_i - a_i, 0) for a_i, b_i in zip(a, b)) for b in k_lts]
            what = "LT(K) : a, for a leading term a of J"
            pivots.update(mono_mul(a, u) for u in _standard(colon, ring, what))
    except NotZeroDimensional:
        raise ValueError("J/K has infinite length: R/(K : J) is not zero-dimensional") from None
    pivots = sorted(pivots, key=grevlex.key, reverse=True)
    space = RowSpace(ring.field)  # reduce alone reads rows keyed by monomials
    for m in pivots:
        mono = ring.monomial(m)
        space.rows[m] = (mono - normal_form(mono, J)).terms  # already reduced echelon
    index = {m: i for i, m in enumerate(pivots)}
    actions = {}
    for vi, var in enumerate(ring.variables):
        A = actions[var] = [[ring.field.zero] * len(pivots) for _ in pivots]
        for j, m in enumerate(pivots):
            image = _times_var(ring, vi, space.rows[m], K)
            if space.reduce(image):
                raise InternalError("J/K's basis is not action-closed")
            for q, c in image.items():
                if q in index:  # coordinates are the pivot coefficients
                    A[index[q]][j] = c
    labels = [dsl._format_mono(ring, p) or "1" for p in pivots]
    return VectorModule(ring, actions, labels, list(K.groebner_basis()))


def quotient_module(Q: IdealHandle) -> VectorModule:
    """R/Q as a VectorModule (J = (1), whose reduced basis is (1) itself)."""
    unit = IdealHandle(Q.ring, [Q.ring.one()])
    unit._keep(unit.generators)
    return vector_module(unit, Q)


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
    return VectorModule(M.ring, actions, labels)
