"""Buchberger engine and ideal operations.

Reduced Groebner bases are canonical per (ideal, order) and cached on the
IdealHandle; basis_key turns one into a hashable ideal identity.  Pair
selection is by sugar degree; both classic pair criteria (coprime leading
terms, chain) are applied at pop time, which is safe because a pair can only
be chain-skipped after both partner pairs were popped earlier.
"""

from __future__ import annotations

import heapq

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
    mono_mul,
)


class InternalError(AssertionError):
    """An invariant the engine relies on failed; always a bug, never user input."""


# ---------------------------------------------------------------------------
# reduction


def _prep(basis, order):
    """[(lt, tail)] for monic basis elements, in the given list order."""
    prepped = []
    for g in basis:
        lt, lc = g.leading(order)
        tail = [(m, c) for m, c in g.terms.items() if m != lt]
        prepped.append((lt, tail, lc))
    return prepped


def _reduce_terms(terms: dict, prepped, order, field) -> dict:
    """Full normal form of a term dict against prepped reducers."""
    work = dict(terms)
    out: dict = {}
    key = order.key
    zero = field.zero
    while work:
        config.check_budget()
        m = max(work, key=key)
        c = work.pop(m)
        for lt, tail, lc in prepped:
            q = mono_div(m, lt)
            if q is None:
                continue
            # work -= (c/lc) * x^q * g; the leading term cancels exactly
            factor = c if lc == field.one else field.div(c, lc)
            for tm, tc in tail:
                nm = mono_mul(tm, q)
                s = field.sub(work.get(nm, zero), field.mul(factor, tc))
                if s == zero:
                    work.pop(nm, None)
                else:
                    work[nm] = s
            break
        else:
            out[m] = c
    return out


def normal_form(f: Polynomial, basis, order=grevlex) -> Polynomial:
    """Reduce f against a polynomial list (unique NF when basis is a GB)."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis or f.is_zero():
        return f
    return Polynomial(f.ring, _reduce_terms(f.terms, _prep(basis, order), order, f.ring.field))


def poly_divide_exact(f: Polynomial, g: Polynomial, order=grevlex) -> Polynomial:
    """Quotient f/g for f in (g); raises InternalError on nonzero remainder."""
    if g.is_zero():
        raise InternalError("division by the zero polynomial")
    field = f.ring.field
    ltg, lcg = g.leading(order)
    work = dict(f.terms)
    quot: dict = {}
    key = order.key
    while work:
        config.check_budget()
        m = max(work, key=key)
        c = work[m]
        d = mono_div(m, ltg)
        if d is None:
            raise InternalError(f"exact division failed: remainder has term {m}")
        coef = field.div(c, lcg)
        quot[d] = field.add(quot.get(d, field.zero), coef)
        for tm, tc in g.terms.items():
            nm = mono_mul(tm, d)
            s = field.sub(work.get(nm, field.zero), field.mul(coef, tc))
            if s == field.zero:
                work.pop(nm, None)
            else:
                work[nm] = s
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
        config.check_budget(every=16)
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


def basis_key(basis) -> tuple:
    """Hashable snapshot of a reduced Groebner basis: equal keys, equal ideals."""
    return tuple(tuple(sorted(g.terms.items())) for g in basis)


class IdealHandle:
    """An ideal given by generators, with cached reduced GBs per order."""

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch(f"generator ring {g.ring!r} differs from {ring!r}")
        self.ring = ring
        self.generators = gens
        self._cache: dict = {}

    def groebner_basis(self, order=grevlex) -> tuple[Polynomial, ...]:
        got = self._cache.get(order.tag)
        if got is None:
            got = tuple(buchberger(self.generators, order))
            self._cache[order.tag] = got
        return got

    def normal_form(self, f: Polynomial, order=grevlex) -> Polynomial:
        return normal_form(f, self.groebner_basis(order), order)

    def contains_poly(self, f: Polynomial, order=grevlex) -> bool:
        return self.normal_form(f, order).is_zero()

    def contains_ideal(self, other: "IdealHandle", order=grevlex) -> bool:
        return all(self.contains_poly(g, order) for g in other.generators)

    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def key(self, order=grevlex) -> tuple:
        """Hashable canonical identity of the ideal (reduced GB snapshot)."""
        return basis_key(self.groebner_basis(order))

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


class GrowingBasis:
    """A Groebner basis that absorbs new generators one at a time.

    Appending reuses the current basis as a seed, so a chain of adds costs
    about one Buchberger run on the union.  The basis is always the canonical
    reduced GB of everything added so far.
    """

    def __init__(self, ring: PolyRing, order=grevlex, start=()):  # start: polys
        self.ring = ring
        self.order = order
        self.basis = buchberger(list(start), order)

    def normal_form(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.basis, self.order)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_one(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant()

    def add(self, f: Polynomial) -> None:
        r = self.normal_form(f)
        if not r.is_zero():
            self.basis = buchberger([r], self.order, seed=self.basis)
