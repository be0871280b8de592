"""Buchberger engine and ideal operations.

The kernel (buchberger and the private reducers) runs under any monomial
order; the layers above work in grevlex, since nothing the engine reports
but a printed basis depends on the order, and reach another order only by
calling buchberger directly.
IdealHandle is the one ideal object: its generators and its reduced grevlex
Groebner basis, kept next to that basis's prepared reducers.  The reduced
basis is canonical, so IdealHandle.key is that basis itself.  The order of
the terms inside a polynomial is not canonical (a basis element may keep its
terms in input order); Polynomial equality and hashing ignore it, and
format_poly sorts the terms before printing.  IdealHandle.plus grows an
ideal one generator at a time, seeding Buchberger with the kept basis; a
monomial basis grown by a remainder of one term needs no Buchberger run,
since every S-pair of two monomials is zero, and plus writes down the
reduced basis that run would give.

Pair selection is by sugar degree, and the pair criteria are Gebauer and
Moeller's update, "On an installation of Buchberger's algorithm" (J.
Symbolic Comput. 6, 1988; Becker and Weispfenning, Groebner Bases, 1993,
section 5.5), applied once per new element h and never at pop time.  Pairs
(i, h) are formed only with the active elements, those whose leading term
no later leading term divides.  Among them criterion M keeps one pair per
minimal lcm, and criterion F drops every pair whose lcm a coprime pair's
lcm divides; a coprime pair never enters the heap, since its S-polynomial
reduces to zero by the pair itself.  Nor does a pair of two one-term
elements, whose S-polynomial is identically zero: it takes part in M and F
as a coprime pair does, F included, and counts as treated in the chain
argument below.  Criterion B_h drops a queued pair
(i, j) whose lcm L the leading term of h divides, unless lcm(lt_i, lt_h) or
lcm(lt_j, lt_h) equals L; it leaves the heap lazily, through the map of
live pairs that the pop loop checks.  A pair dropped by B_h is covered by
(i, h) and (j, h), whose lcms both divide L properly.  A pair (i, h)
dropped by M or F is covered by a pair (j, h) whose lcm divides L,
properly for M and equal to it for F, together with (i, j), whose lcm
divides L and may equal it.  Gebauer and Moeller's chain argument then
shows that the result stays a Groebner basis.

Every field's heap reduction runs fraction-free on its domain
(pseudo-division on primitive parts; Knuth, TAOCP 2, 4.6.1): on ints over Q
and F_p, and on F_p[t] polynomials, the packed ints of the field's _polys,
over F_p(t).  Polynomial.prepared keeps each reducer's primitive form
L x^lt + sum n_i x^(m_i) next to its canonical terms: the monic element
times L, the lcm of its denominators, with L > 0 over Q, L = 1 over F_p and
L monic over F_p(t), built once and freed with the polynomial.  The part of
f still to treat is W/s, W a dict of numerators and s > 0 or monic.  A step
on a term w x^m whose monomial lt divides takes g = gcd(w, L) and sets
W <- (L/g) W - (w/g) x^(m-lt) tail and s <- (L/g) s, scaling only when
L/g != 1; a term that no leading term divides leaves as the canonical pair
(w/g', s/g'), g' = gcd(w, s).  The content rule is fixed: once s has grown
by more than 64 bits over Q, or 16 slots over F_p(t), since the last
division (or the start), W and s are divided by gcd(s, W).  Over F_p, s
stays 1, and a term is taken mod p only when it leaves the heap (Monagan
and Pearce, J. Symbolic Comput. 46, 2011): skipped there when 0, as a
cancelled term is, and kept as its residue when no leading term divides
it.  W/s (W mod p over F_p) is exactly the work polynomial of the field
arithmetic at every step, so the same terms survive, the same reducer
meets each one, and every normal form and reduced basis is the one
canonical elements give.  The field sums and products stay in
poly_divide_exact and _s_polynomial.
"""

from __future__ import annotations

import heapq
import itertools
from math import gcd, lcm
from operator import add, ge, le, sub

from . import config
from .config import InternalError
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


# ---------------------------------------------------------------------------
# reduction


def _heap_of(work: dict, order) -> list:
    """Max-heap of the monomials of work: (heap_key, monomial) entries."""
    heap = [(order.heap_key(m), m) for m in work]
    heapq.heapify(heap)
    return heap


def _reduce_terms(terms: dict, prepped, order, field) -> dict:
    """Full normal form of a term dict against prepared reducers
    (lt, lc, tail, ints).

    The terms still to treat live in work, and a heap over them yields the
    biggest one next.  Each monomial's heap key is computed once, when it
    enters work; entries whose monomial cancelled out of work are skipped.
    Every field reduces fraction-free on its domain, as the module docstring
    says: Q and F_p on ints, F_p(t) on F_p[t] polynomials.
    """
    heap_key = order.heap_key
    out: dict = {}
    p = field.size   # the modulus over F_p, None over Q and F_p(t)
    if p or field.char == 0:
        # work / s is the part still to treat: work holds ints and s > 0;
        # over F_p, s = 1 and a term of work is taken mod p when it leaves
        # the heap
        if p:
            s = 1
            work = dict(terms)
        else:
            s = lcm(*[d for _n, d in terms.values()])
            work = {m: n if d == s else n * (s // d) for m, (n, d) in terms.items()}
        heap = _heap_of(work, order)
        bits = s.bit_length()   # at the last content division
        while heap:
            m = heapq.heappop(heap)[1]
            w = work.pop(m, None)
            if w is None:
                continue
            if p:
                w %= p
                if not w:
                    continue
            config.check_budget()
            for lt, _lc, _tail, ints in prepped:
                if all(map(ge, m, lt)):
                    # with g = gcd(w, L): work <- (L/g) work - (w/g) x^q tail
                    # and s <- (L/g) s; the leading term cancels exactly
                    L, tail = ints
                    if L != 1:
                        g = gcd(w, L)
                        w //= g
                        if g != L:
                            a = L // g
                            for k in work:
                                work[k] *= a
                            s *= a
                    q = tuple(map(sub, m, lt))
                    w = -w
                    for tm, tn in tail:
                        nm = tuple(map(add, tm, q))
                        old = work.get(nm)
                        if old is None:
                            work[nm] = w * tn
                            heapq.heappush(heap, (heap_key(nm), nm))
                        else:
                            old += w * tn
                            if old:
                                work[nm] = old
                            else:
                                del work[nm]
                    if s.bit_length() > bits + 64:   # the fixed content rule
                        c = gcd(s, *work.values())
                        if c != 1:
                            s //= c
                            for k in work:
                                work[k] //= c
                        bits = s.bit_length()
                    break
            else:
                if p:
                    out[m] = w
                else:
                    g = gcd(w, s)
                    out[m] = (w, s) if g == 1 else (w // g, s // g)
        return out
    # F_p(t) as Q above, on F_p[t] numerators and a monic s: the packed
    # polynomials of field._polys stand in for the ints
    P = field._polys
    pmul, padd, pneg, pgcd, pquo = P.mul, P.add, P.neg, P.gcd, P.quo
    s = P.lcm(*[d for _n, d in terms.values()])
    work = {m: n if d == s else pmul(n, pquo(s, d)) for m, (n, d) in terms.items()}
    heap = _heap_of(work, order)
    grow = 16 * P.w   # the fixed content rule: 16 slots of s
    bits = s.bit_length()   # at the last content division
    while heap:
        m = heapq.heappop(heap)[1]
        w = work.pop(m, None)
        if w is None:
            continue
        config.check_budget()
        for lt, _lc, _tail, ints in prepped:
            if all(map(ge, m, lt)):
                L, tail = ints
                if L != 1:
                    g = pgcd(w, L)
                    if g != 1:
                        w = pquo(w, g)
                    if g != L:
                        a = L if g == 1 else pquo(L, g)
                        for k in work:
                            work[k] = pmul(work[k], a)
                        s = pmul(s, a)
                q = tuple(map(sub, m, lt))
                w = pneg(w)
                for tm, tn in tail:
                    nm = tuple(map(add, tm, q))
                    old = work.get(nm)
                    if old is None:
                        work[nm] = pmul(w, tn)
                        heapq.heappush(heap, (heap_key(nm), nm))
                    else:
                        old = padd(old, pmul(w, tn))
                        if old:
                            work[nm] = old
                        else:
                            del work[nm]
                if s.bit_length() > bits + grow:
                    c = s
                    for v in work.values():
                        c = pgcd(v, c)
                        if c == 1:
                            break
                    if c != 1:
                        s = pquo(s, c)
                        for k in work:
                            work[k] = pquo(work[k], c)
                    bits = s.bit_length()
                break
        else:
            g = pgcd(w, s)
            out[m] = (w, s) if g == 1 else (pquo(w, g), pquo(s, g))
    return out


def _reduce(f: Polynomial, prepped, order) -> Polynomial:
    """Normal form of f against prepared reducers.

    Zero comes back as it is.  A one-term f is settled by one scan over the
    reducers: kept when none divides it, zero when the first that does has
    no tail.  Everything else goes through the heap in _reduce_terms.
    """
    terms = f.terms
    if len(terms) == 1:
        (m,) = terms
        for lt, _lc, tail, _ints in prepped:
            if all(map(ge, m, lt)):
                if not tail:
                    return f.ring.zero()
                break
        else:
            return f
    elif not terms:
        return f
    return Polynomial(f.ring, _reduce_terms(terms, prepped, order, f.ring.field))


def normal_form(f: Polynomial, I: IdealHandle) -> Polynomial:
    """The normal form of f modulo I, against I's reduced grevlex basis and
    its kept reducers.  A one-term f that no leading term divides comes
    back as f itself.  Raises RingMismatch when f lives in another ring."""
    if f.ring is not I.ring and f.ring != I.ring:
        raise RingMismatch(f"polynomial ring {f.ring!r} differs from {I.ring!r}")
    prepped = I._prepared()
    if not prepped:
        return f
    return _reduce(f, prepped, grevlex)


def poly_divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for f in (g); raises InternalError on nonzero remainder."""
    if g.is_zero():
        raise InternalError("division by the zero polynomial")
    field = f.ring.field
    fmul, fadd, zero, heap_key = field.mul, field.add, field.zero, grevlex.heap_key
    ltg, lcg, tail, _ints = g.prepared()
    work = dict(f.terms)
    heap = _heap_of(work, grevlex)
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
        factor = field.neg(coef)
        for tm, tc in tail:   # work -= coef * x^d * tail
            nm = tuple(map(add, tm, d))
            old = work.get(nm)
            if old is None:
                work[nm] = fmul(factor, tc)
                heapq.heappush(heap, (heap_key(nm), nm))
            else:
                old = fadd(old, fmul(factor, tc))
                if old == zero:
                    del work[nm]
                else:
                    work[nm] = old
    return f.ring.from_terms(quot)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens, order=grevlex, seed=()) -> list[Polynomial]:
    """Reduced Groebner basis of (gens) + (seed).

    seed, when given, must already be the *reduced* Groebner basis of its
    own ideal under the same order, and is taken as given: its elements are
    monic, its internal S-pairs are skipped, a seed element's sugar (its
    degree) is read only when a pair with it is queued, and a seed element
    is reduced again only where a new leading term divides one of its tail
    terms.  The result is the canonical reduced basis either way.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens and not seed:
        return []
    ring = (gens[0] if gens else seed[0]).ring

    basis = list(seed)
    prepped = [g.prepared(order) for g in basis]   # (lt, lc, tail, ints), kept with basis
    lts = [p[0] for p in prepped]
    n0 = len(basis)
    sugars = [None] * n0   # a seed element's sugar, read on first use
    active = list(range(n0))   # elements whose leading term no later one divides
    live: dict = {}   # queued pair (i, j), i < j -> lcm of lt_i and lt_j
    heap: list = []   # (sugar, deg L, order.key(L), i, j, L); stale unless in live

    def sugar_of(i: int) -> int:
        sugar = sugars[i]
        if sugar is None:
            sugar = sugars[i] = basis[i].total_degree()
        return sugar

    def append(g: Polynomial, sugar: int):
        g = g.monic(order)
        prep = g.prepared(order)
        lt = prep[0]
        one_term = not prep[2]
        k = len(basis)
        # criterion B_k on the queued pairs
        dropped = [p for p, L in live.items()
                   if all(map(le, lt, L)) and mono_lcm(lts[p[0]], lt) != L
                   and mono_lcm(lts[p[1]], lt) != L]
        for p in dropped:
            del live[p]
        # criteria M and F on the new pairs, of which a coprime pair and a
        # pair of one-term elements are treated already and never queued;
        # when every new pair is, there is nothing to select
        treated = [one_term and not prepped[i][2] or mono_gcd_is_one(lts[i], lt)
                   for i in active]
        if not all(treated):
            new = []
            for i, done in zip(active, treated):
                L = mono_lcm(lts[i], lt)
                new.append((mono_deg(L), L, not done, i))
            new.sort()   # by lcm degree, so a divisor comes first; treated pairs first per lcm
            shift = sugar - mono_deg(lt)
            minimal: list = []
            for dL, L, plain, i in new:
                if any(all(map(le, m, L)) for m in minimal):
                    continue
                minimal.append(L)
                if plain:
                    live[i, k] = L
                    heapq.heappush(heap, (max(sugar_of(i) - mono_deg(lts[i]), shift) + dL,
                                          dL, order.key(L), i, k, L))
        active[:] = [i for i in active if not all(map(le, lt, lts[i]))]
        active.append(k)
        basis.append(g)
        prepped.append(prep)
        lts.append(lt)
        sugars.append(sugar)

    for g in gens:
        r = _reduce(g, prepped, order) if prepped else g
        if r.terms:
            append(r, g.total_degree())

    while heap:
        config.check_budget()
        sugar, _, _, i, j, L = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        r = _reduce(_s_polynomial(prepped[i], prepped[j], L, ring), prepped, order)
        if r.terms:
            append(r, max(sugar, r.total_degree()))

    return _reduce_basis(basis, prepped, active, n0, order)


def _s_polynomial(pi, pj, L, ring) -> Polynomial:
    """S-polynomial of two monic elements given prepared, with L the lcm of
    their leading terms: x^(L-lt_i) tail_i - x^(L-lt_j) tail_j."""
    qi = tuple(map(sub, L, pi[0]))
    qj = tuple(map(sub, L, pj[0]))
    field = ring.field
    work = {tuple(map(add, m, qi)): c for m, c in pi[2]}
    fsub, zero = field.sub, field.zero
    for m, c in pj[2]:
        nm = tuple(map(add, m, qj))
        old = work.get(nm)
        if old is None:
            work[nm] = field.neg(c)
        else:
            s = fsub(old, c)
            if s == zero:
                del work[nm]
            else:
                work[nm] = s
    return Polynomial(ring, work)


def _reduce_basis(basis, prepped, kept, n0, order) -> list[Polynomial]:
    """Inter-reduce the minimal basis kept; output sorted by leading term, monic.

    kept lists, in index order, the elements whose leading term no later
    leading term divides.  basis[:n0] is a reduced basis (the seed), and
    each later element was appended in normal form against every element
    before it.  So a kept element can only be hit by a fresh leading term,
    one appended after both it and the seed, and only in its tail, since
    no later kept leading term divides its own: when such a term divides a
    tail term it is reduced again against the kept elements.  Every other
    element, a one-term one included, is already reduced and is kept as it
    is.
    """
    lts = [p[0] for p in prepped]
    fresh_lts = [lts[k] for k in kept if k >= n0]   # in index order, so kept ends with them
    n_seed = len(kept) - len(fresh_lts)
    for pos, i in enumerate(kept):
        tail = prepped[i][2]
        if not tail:
            continue
        later = fresh_lts if pos < n_seed else fresh_lts[pos - n_seed + 1:]
        if later and any(mono_divides(lt, m) for m, _c in tail for lt in later):
            others = [prepped[k] for k in kept if k != i]
            g = _reduce(basis[i], others, order).monic(order)
            basis[i] = g
            prepped[i] = g.prepared(order)
    # heap_key is the order reversed, and in grevlex it costs less than key
    kept.sort(key=lambda i: order.heap_key(lts[i]), reverse=True)
    return [basis[i] for i in kept]


# ---------------------------------------------------------------------------
# ideal handles and derived operations


class IdealHandle:
    """An ideal given by generators, with its reduced grevlex GB kept next to
    that basis's prepared reducers (lt, lc, tail, ints), both computed on first use."""

    __slots__ = ("ring", "generators", "_basis", "_reducers")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise RingMismatch(f"generator ring {g.ring!r} differs from {ring!r}")
        self.ring = ring
        self.generators = gens
        self._basis = self._reducers = None

    def _keep(self, basis) -> None:
        self._basis = tuple(basis)
        self._reducers = [g.prepared() for g in basis]

    def _prepared(self) -> list:
        if self._reducers is None:
            self._keep(buchberger(self.generators))
        return self._reducers

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        self._prepared()
        return self._basis

    def contains_poly(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains_poly(g) for g in other.generators)

    def is_unit_ideal(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant() and not gb[0].is_zero()

    def key(self) -> tuple:
        """Hashable canonical identity of the ideal, its reduced grevlex
        basis: equal keys, equal ideals (in equal rings)."""
        return self.groebner_basis()

    def plus(self, f: Polynomial) -> "IdealHandle":
        """The ideal (self, f); self when f already lies in it.

        The new handle's basis grows from this one's, which seeds
        Buchberger, so a chain of plus calls costs about one Buchberger run
        on the union.  Only the new pairs are reduced, and the
        interreduction at the end is incremental: a seed element whose
        leading term a new leading term divides is dropped, one with a tail
        term that a new leading term divides is reduced again, and every
        other seed element is carried over unchanged, prepared reducer
        included.

        When no element of the basis has a tail and the remainder r of f is
        one term, there is no run at all.  Every S-pair among monomials is
        zero and no tail can be hit, so the seeded run would only drop the
        elements r's monomial divides and sort monic(r) in among the rest;
        plus does just that, and the basis, its order and the key come out
        as the run gives them.
        """
        r = normal_form(f, self)
        if r.is_zero():
            return self
        # normal_form has refused an f from another ring and the inherited
        # generators were checked when self was built, so skip __init__
        grown = object.__new__(IdealHandle)
        grown.ring = self.ring
        grown.generators = self.generators + (f,)
        reducers = self._reducers   # built by normal_form
        if len(r.terms) == 1 and not any(p[2] for p in reducers):
            grown._grow_monomial(self._basis, reducers, r.monic())
        else:
            grown._keep(buchberger([r], seed=self._basis))
        return grown

    def _grow_monomial(self, basis, reducers, g: Polynomial) -> None:
        """Keep the reduced basis of (basis, g), basis monomial and g a monic
        monomial no element divides: basis less g's multiples, g sorted in
        as _reduce_basis sorts."""
        prep = g.prepared()
        m = prep[0]
        kept = [(h, p) for h, p in zip(basis, reducers) if not mono_divides(m, p[0])]
        key = grevlex.heap_key(m)
        at = next((i for i, (_h, p) in enumerate(kept) if grevlex.heap_key(p[0]) < key),
                  len(kept))
        kept.insert(at, (g, prep))
        self._basis = tuple(h for h, _p in kept)
        self._reducers = [p for _h, p in kept]

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


def ideal_powers(I: IdealHandle):
    """I^0, I^1, I^2, ... without end, each the product of the one before and I."""
    power = IdealHandle(I.ring, [I.ring.one()])
    while True:
        yield power
        power = ideal_product(power, I)


def ideal_power(I: IdealHandle, n: int) -> IdealHandle:
    if n < 0:
        raise ValueError("ideal power wants n >= 0")
    return next(itertools.islice(ideal_powers(I), n, None))


def bracket_power(I: IdealHandle, q: int) -> IdealHandle:
    """Frobenius power (f^q for each generator); q must be a power of char p."""
    return IdealHandle(I.ring, [frobenius_power(g, q) for g in I.generators])


def ideal_compare(I: IdealHandle, J: IdealHandle) -> str:
    """'equal' | 'left-in-right' | 'right-in-left' | 'incomparable' (strict containments)."""
    ij = J.contains_ideal(I)
    ji = I.contains_ideal(J)
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
    """I ∩ J via a tag variable w and elimination: (wI + (1-w)J) ∩ base ring.

    The w-free elements of the reduced Block(1, lex, grevlex) basis are the
    reduced grevlex basis of I ∩ J, in _reduce_basis's order (elimination
    theorem), and the returned handle keeps them as its basis."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatch("intersection across different rings")
    tag = _fresh_name(ring, "w")
    ext = ring.extend([tag], prepend=True)

    def lift(f):
        return Polynomial(ext, {(0,) + m: c for m, c in f.terms.items()})

    w = ext.var(tag)
    one = ext.one()
    gens = [w * lift(f) for f in I.generators if not f.is_zero()]
    gens += [(one - w) * lift(g) for g in J.generators if not g.is_zero()]
    gb = buchberger(gens, Block(1, lex, grevlex))
    kept = [Polynomial(ring, {m[1:]: c for m, c in g.terms.items()})
            for g in gb if all(m[0] == 0 for m in g.terms)]
    K = IdealHandle(ring, kept)
    K._keep(kept)
    return K


def colon(I: IdealHandle, J: IdealHandle) -> IdealHandle:
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
        part = IdealHandle(ring, [poly_divide_exact(h, f) for h in K.groebner_basis()])
        result = part if result is None else intersect(result, part)
    return result
