"""Buchberger engine and ideal operations.

IdealHandle is the one ideal object: its generators, plus the reduced
Groebner basis per order (canonical per ideal and order, so IdealHandle.key
is a hashable ideal identity) cached next to that basis's prepared reducers.
IdealHandle.plus grows an ideal one generator at a time, seeding Buchberger
with the cached basis.  Pair selection is by sugar degree; both classic pair
criteria (coprime leading terms, chain) are applied at pop time, which is
safe because a pair can only be chain-skipped after both partner pairs were
popped earlier.
"""

from __future__ import annotations

import heapq
from operator import add, ge, sub

from . import config
from .poly import (
    Block,
    Polynomial,
    PolyRing,
    RingMismatch,
    frobenius_power,
    grevlex,
    lex,
    mono_deg,
    mono_div,
    mono_divides,
    mono_gcd_is_one,
    mono_lcm,
)


class InternalError(AssertionError):
    """An invariant the engine relies on failed; always a bug, never user input."""


# ---------------------------------------------------------------------------
# reduction


def _heap_of(work: dict, order) -> list:
    """Max-heap of the monomials of work: (heap_key, monomial) entries."""
    heap = [(order.heap_key(m), m) for m in work]
    heapq.heapify(heap)
    return heap


def _add_multiple(work: dict, heap: list, heap_key, factor, q, tail, field) -> None:
    """work += factor * x^q * tail; a monomial new to work goes on the heap."""
    fmul, fadd, zero = field.mul, field.add, field.zero
    for tm, tc in tail:
        nm = tuple(map(add, tm, q))
        old = work.get(nm)
        if old is None:
            work[nm] = fmul(factor, tc)
            heapq.heappush(heap, (heap_key(nm), nm))
        else:
            s = fadd(old, fmul(factor, tc))
            if s == zero:
                del work[nm]
            else:
                work[nm] = s


def _reduce_terms(terms: dict, prepped, order, field) -> dict:
    """Full normal form of a term dict against prepared reducers (lt, lc, tail).

    The terms still to treat live in work, and a heap over them yields the
    biggest one next.  Each monomial's heap key is computed once, when it
    enters work; entries whose monomial cancelled out of work are skipped.
    """
    work = dict(terms)
    heap = _heap_of(work, order)
    heap_key = order.heap_key
    out: dict = {}
    one = field.one
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        config.check_budget()
        for lt, lc, tail in prepped:
            if all(map(ge, m, lt)):
                # work -= (c/lc) * x^q * g; the leading term cancels exactly
                factor = field.neg(c if lc == one else field.div(c, lc))
                _add_multiple(work, heap, heap_key, factor, tuple(map(sub, m, lt)), tail, field)
                break
        else:
            out[m] = c
    return out


def normal_form(f: Polynomial, basis, order=grevlex) -> Polynomial:
    """Reduce f against a polynomial list (unique NF when basis is a GB), or
    against an IdealHandle's reduced basis and its cached reducers.

    Each term is reduced by the first element of the list, in list order,
    whose leading term divides it.
    """
    if isinstance(basis, IdealHandle):
        prepped = basis._cached(order)[1]
    else:
        prepped = [g.prepared(order) for g in basis if g.terms]
    if not prepped or not f.terms:
        return f
    return Polynomial(f.ring, _reduce_terms(f.terms, prepped, order, f.ring.field))


def poly_divide_exact(f: Polynomial, g: Polynomial, order=grevlex) -> Polynomial:
    """Quotient f/g for f in (g); raises InternalError on nonzero remainder."""
    if g.is_zero():
        raise InternalError("division by the zero polynomial")
    field = f.ring.field
    ltg, lcg, tail = g.prepared(order)
    work = dict(f.terms)
    heap = _heap_of(work, order)
    quot: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        config.check_budget()
        d = mono_div(m, ltg)
        if d is None:
            raise InternalError(f"exact division failed: remainder has term {m}")
        quot[d] = coef = field.div(c, lcg)
        _add_multiple(work, heap, order.heap_key, field.neg(coef), d, tail, field)
    return f.ring.from_terms(quot)


# ---------------------------------------------------------------------------
# Buchberger


def _pair_entry(i, j, lts, sugars, order):
    L = mono_lcm(lts[i], lts[j])
    sugar = max(
        sugars[i] - mono_deg(lts[i]),
        sugars[j] - mono_deg(lts[j]),
    ) + mono_deg(L)
    return (sugar, mono_deg(L), order.key(L), i, j)


def buchberger(gens, order=grevlex, seed=()) -> list[Polynomial]:
    """Reduced Groebner basis of (gens) + (seed).

    seed, when given, must already be a Groebner basis for its own ideal
    under the same order (its internal S-pairs are skipped).  The result is
    the canonical reduced basis either way.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens and not seed:
        return []
    ring = (gens[0] if gens else seed[0]).ring
    field = ring.field

    basis: list[Polynomial] = []
    sugars: list[int] = []
    lts: list = []
    done: set = set()
    heap: list = []

    def push_pairs(k: int):
        for i in range(k):
            heapq.heappush(heap, _pair_entry(i, k, lts, sugars, order))

    def append(g: Polynomial, sugar: int):
        g = g.monic(order)
        basis.append(g)
        sugars.append(sugar)
        lts.append(g.leading(order)[0])
        push_pairs(len(basis) - 1)

    for g in seed:
        g = g.monic(order)
        basis.append(g)
        sugars.append(g.total_degree())
        lts.append(g.leading(order)[0])
    n0 = len(basis)
    for i in range(n0):
        for j in range(i + 1, n0):
            done.add((i, j))

    for g in gens:
        r = normal_form(g, basis, order)
        if not r.is_zero():
            append(r, g.total_degree())

    while heap:
        config.check_budget()
        _, _, _, i, j = heapq.heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        L = mono_lcm(lts[i], lts[j])
        if mono_gcd_is_one(lts[i], lts[j]):
            continue
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not mono_divides(lts[k], L):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        fi, fj = basis[i], basis[j]
        s = fi.mul_monomial(mono_div(L, lts[i])) - fj.mul_monomial(mono_div(L, lts[j]))
        r = normal_form(s, basis, order)
        if not r.is_zero():
            sugar = max(_pair_entry(i, j, lts, sugars, order)[0], r.total_degree())
            append(r, sugar)

    return _reduce_basis(basis, order)


def _reduce_basis(basis, order) -> list[Polynomial]:
    """Minimalize then inter-reduce; output sorted by leading term, monic."""
    items = sorted(
        ((g.leading(order)[0], g) for g in basis if not g.is_zero()),
        key=lambda p: order.key(p[0]),
    )
    minimal: list[Polynomial] = []
    kept_lts: list = []
    for lt, g in items:
        if any(mono_divides(h, lt) for h in kept_lts):
            continue
        kept_lts.append(lt)
        minimal.append(g)
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1 :]
        minimal[i] = normal_form(minimal[i], others, order).monic(order)
    return minimal


# ---------------------------------------------------------------------------
# ideal handles and derived operations


class IdealHandle:
    """An ideal given by generators, with the reduced GB per order cached
    next to its prepared reducers (lt, lc, tail)."""

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch(f"generator ring {g.ring!r} differs from {ring!r}")
        self.ring = ring
        self.generators = gens
        self._cache: dict = {}  # order.tag -> (reduced GB, its prepared reducers)

    def _store(self, basis, order) -> tuple:
        got = self._cache[order.tag] = (tuple(basis), [g.prepared(order) for g in basis])
        return got

    def _cached(self, order) -> tuple:
        got = self._cache.get(order.tag)
        if got is None:
            got = self._store(buchberger(self.generators, order), order)
        return got

    def groebner_basis(self, order=grevlex) -> tuple[Polynomial, ...]:
        return self._cached(order)[0]

    def normal_form(self, f: Polynomial, order=grevlex) -> Polynomial:
        return normal_form(f, self, order)

    def contains_poly(self, f: Polynomial, order=grevlex) -> bool:
        return normal_form(f, self, order).is_zero()

    def contains_ideal(self, other: "IdealHandle", order=grevlex) -> bool:
        return all(self.contains_poly(g, order) for g in other.generators)

    def is_unit_ideal(self, order=grevlex) -> bool:
        gb = self.groebner_basis(order)
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def key(self, order=grevlex) -> tuple:
        """Hashable canonical identity of the ideal (reduced GB snapshot):
        equal keys, equal ideals."""
        return tuple(tuple(sorted(g.terms.items())) for g in self.groebner_basis(order))

    def plus(self, f: Polynomial, order=grevlex) -> "IdealHandle":
        """The ideal (self, f); self when f already lies in it.

        The new handle's basis under order grows from this one's, which
        seeds Buchberger, so a chain of plus calls costs about one Buchberger
        run on the union.
        """
        r = self.normal_form(f, order)
        if r.is_zero():
            return self
        grown = IdealHandle(self.ring, self.generators + (f,))
        grown._store(buchberger([r], order, seed=self.groebner_basis(order)), order)
        return grown

    def __repr__(self):
        inside = "; ".join(repr(g) for g in self.generators) or "0"
        return f"ideal({inside})"


def ideal(ring: PolyRing, gens) -> IdealHandle:
    return IdealHandle(ring, gens)


def ideal_sum(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise RingMismatch("ideal sum across different rings")
    return IdealHandle(I.ring, I.generators + J.generators)


def ideal_product(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    if I.ring != J.ring:
        raise RingMismatch("ideal product across different rings")
    gens = []
    seen = set()
    for f in I.generators:
        for g in J.generators:
            h = f * g
            if h.is_zero() or h in seen:
                continue
            seen.add(h)
            gens.append(h)
    return IdealHandle(I.ring, gens)


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    if n < 0:
        raise ValueError("ideal power wants n >= 0")
    if n == 0:
        return IdealHandle(I.ring, [I.ring.one()])
    out = I
    for _ in range(n - 1):
        out = ideal_product(out, I)
    return out


def bracket_power(I: IdealHandle, q: int) -> IdealHandle:
    """Frobenius power (f^q for each generator); q must be a power of char p."""
    return IdealHandle(I.ring, [frobenius_power(g, q) for g in I.generators])


def ideal_compare(I: IdealHandle, J: IdealHandle, order=grevlex) -> str:
    """'equal' | 'left-in-right' | 'right-in-left' | 'incomparable' (strict containments)."""
    ij = J.contains_ideal(I, order)
    ji = I.contains_ideal(J, order)
    if ij and ji:
        return "equal"
    if ij:
        return "left-in-right"
    if ji:
        return "right-in-left"
    return "incomparable"


def _fresh_name(ring: PolyRing, base: str) -> str:
    name = base
    while name in ring.variables:
        name += "0"
    return name


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I ∩ J via a tag variable w and elimination: (wI + (1-w)J) ∩ base ring."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatch("intersection across different rings")
    tag = _fresh_name(ring, "w")
    ext = ring.extend([tag], prepend=True)
    order = Block(1, lex, grevlex)

    def lift(f):
        return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()})

    w = ext.var(tag)
    one = ext.one()
    gens = [w * lift(f) for f in I.generators if not f.is_zero()]
    gens += [(one - w) * lift(g) for g in J.generators if not g.is_zero()]
    gb = IdealHandle(ext, gens).groebner_basis(order)
    kept = []
    for g in gb:
        if all(m[0] == 0 for m in g.terms):
            kept.append(Polynomial(ring, {m[1:]: c for m, c in g.terms.items()}))
    return IdealHandle(ring, kept)


def colon(I: IdealHandle, J: IdealHandle, order=grevlex) -> IdealHandle:
    """(I : J).  J = (0) gives the unit ideal (callers flag that case)."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatch("colon across different rings")
    gens_j = [g for g in J.generators if not g.is_zero()]
    if not gens_j:
        return IdealHandle(ring, [ring.one()])
    result: IdealHandle | None = None
    for f in gens_j:
        K = intersect(I, IdealHandle(ring, [f]))
        part = IdealHandle(
            ring, [poly_divide_exact(h, f, order) for h in K.groebner_basis(order)]
        )
        result = part if result is None else intersect(result, part)
    return result
