"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples at the boundary: a polynomial is an immutable
{exponents: coefficient} map tied to a PolyRing, and the DSL, the
formatters and every layer above the Groebner kernel read and write tuples.
Inside the kernel a monomial is one int, its Packing for the order and a
slot width (see Packing).  Monomial orders are sort keys that also give
that packing's layout; a polynomial caches its prepared form (leading term,
leading coefficient and tail) per order, and per packing the one packed
form the kernel reduces with, monomials and the field's domain included.
"""

from __future__ import annotations

from math import lcm, log
from operator import add, le, mul

from . import config


class RingMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomials

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b) -> bool:
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_gcd_is_one(a, b) -> bool:
    return not any(map(min, a, b))


def mono_deg(a) -> int:
    return sum(a)


class MonomialOrder:
    """Total order on exponent tuples via a sort key; bigger key = bigger
    monomial.  layout gives the same order as the linear rows of a Packing,
    whose ints the Groebner kernel's heaps pop biggest monomial first."""

    name = "?"
    tag: tuple = ()
    graded = False   # compares total degree first

    def key(self, exps):
        raise NotImplementedError

    def layout(self, nvars: int) -> tuple:
        """(rows, ties) for Packing: weight vectors compared first, biggest
        product first, then variables whose smaller exponent wins, the most
        significant first."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.name


class Lex(MonomialOrder):
    name = "lex"
    tag = ("lex",)

    def key(self, exps):
        return exps

    def layout(self, nvars):
        return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)], []


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: by total degree, ties broken by the
    *smallest* trailing exponent winning (classic grevlex)."""

    name = "grevlex"
    tag = ("grevlex",)
    graded = True

    def key(self, exps):
        return (sum(exps), tuple([-e for e in exps[::-1]]))

    def layout(self, nvars):
        return [(1,) * nvars], list(range(nvars - 1, -1, -1))


class Block(MonomialOrder):
    """Block (elimination) order: first `split` variables compared by `left`,
    ties by `right` on the rest.  With left graded or lex this eliminates the
    leading block."""

    def __init__(self, split: int, left: MonomialOrder, right: MonomialOrder):
        self.split = split
        self.left = left
        self.right = right
        self.name = f"block({split},{left.name},{right.name})"
        self.tag = ("block", split, left.tag, right.tag)

    def key(self, exps):
        return (self.left.key(exps[: self.split]), self.right.key(exps[self.split :]))

    def layout(self, nvars):
        # the left block's ties become rows of weight -1, so that the whole
        # left block is compared before any right row
        k = self.split
        rows, ties = self.left.layout(k)
        rows = [r + (0,) * (nvars - k) for r in rows]
        rows += [tuple(-int(i == j) for j in range(nvars)) for i in ties]
        right_rows, right_ties = self.right.layout(nvars - k)
        rows += [(0,) * k + r for r in right_rows]
        return rows, [k + i for i in right_ties]


lex = Lex()
grevlex = GrevLex()


class Packing:
    """The monomials of one ring as ints, for one order and one slot width w.

    Each variable has a slot of w bits holding its exponent, the top bit a
    guard that is 0 in every packed monomial, so exponents up to max_exp =
    2^(w-1) - 1 fit.  The variable slots sit in the low bits, tie variables
    most significant; above them each weight row r of the order's layout
    takes away r.e in a slot as wide as the row's span over exponents up
    to max_exp, the first row on top and unbounded.  A packed monomial is
    linear in its exponents, pack(a) + pack(b) = pack(ab), and a smaller int
    is a bigger monomial, so one int serves as the kernel's heap key, dict
    key and monomial.  In grevlex the layout is -deg on top and then the
    exponents with x_n most significant: GrevLex.key negated, linearised.

    b divides a when every exponent slot of a - pack(b) + guards keeps its
    guard bit (a borrow clears it); the kernel keeps div_key(b) = pack(b) -
    guards per reducer.  A product of two packed monomials overflows an
    exponent slot exactly when it sets that slot's guard, and no exponent
    slot carries into another, so `product & guards` detects every
    overflow.
    """

    __slots__ = ("order", "key", "max_exp", "guards", "coefs", "shifts")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        rows, ties = order.layout(nvars)
        self.order = order
        self.key = f"{order.name}/{width}"   # a str caches its hash
        self.max_exp = top = (1 << (width - 1)) - 1
        slots = ties + [i for i in range(nvars) if i not in ties]
        shifts = [0] * nvars
        for k, i in enumerate(reversed(slots)):
            shifts[i] = k * width
        self.shifts = shifts
        self.guards = sum(1 << (s + width - 1) for s in shifts)
        coefs = [1 << s for s in shifts]
        off = nvars * width
        for row in reversed(rows):
            coefs = [c - (r << off) for c, r in zip(coefs, row)]
            off += (sum(map(abs, row)) * top).bit_length()
        self.coefs = coefs

    def pack(self, exps) -> int:
        return sum(map(mul, exps, self.coefs))

    def unpack(self, packed: int) -> tuple:
        top = self.max_exp
        return tuple([packed >> s & top for s in self.shifts])


def packing_width(bound: int) -> int:
    """The narrowest slot width, 8 bits or a power of two above, whose
    max_exp is at least bound."""
    width = 8
    while bound >> (width - 1):
        width *= 2
    return width


class PolyRing:
    """Polynomial ring field[x1..xn]; value-equal by (field, variables)."""

    __slots__ = ("field", "variables", "_index", "_zero", "_packings")

    def __init__(self, field, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        if not variables:
            raise ValueError("need at least one variable")
        self.field = field
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        self._zero = Polynomial(self, {})  # one zero per ring: polynomials are immutable
        self._packings: dict = {}

    def packing(self, order, width: int) -> Packing:
        """The ring's Packing for order at width, built once per ring."""
        got = self._packings.get((order.tag, width))
        if got is None:
            got = self._packings[order.tag, width] = Packing(order, self.nvars, width)
        return got

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero_mono(self):
        return (0,) * self.nvars

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.zero_mono(): self.field.one})

    def constant(self, c) -> "Polynomial":
        if c == self.field.zero:
            return self.zero()
        return Polynomial(self, {self.zero_mono(): c})

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def var(self, name: str) -> "Polynomial":
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no variable {name!r} in {self!r}")
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def gens(self):
        return tuple(self.var(v) for v in self.variables)

    def monomial(self, exps) -> "Polynomial":
        return Polynomial(self, {tuple(exps): self.field.one})

    def from_terms(self, terms: dict) -> "Polynomial":
        zero = self.field.zero
        return Polynomial(self, {m: c for m, c in terms.items() if c != zero})

    def extend(self, new_vars, prepend: bool = False) -> "PolyRing":
        """Same field, extra variables appended (or prepended for elimination)."""
        new_vars = tuple(new_vars)
        clash = set(new_vars) & set(self.variables)
        if clash:
            raise ValueError(f"variable clash: {sorted(clash)}")
        vs = new_vars + self.variables if prepend else self.variables + new_vars
        return PolyRing(self.field, vs)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.variables)}]"


class Polynomial:
    """An element of a PolyRing: terms maps exponent tuples to nonzero coefficients.

    The terms dict is owned by the polynomial and must not be mutated once the
    polynomial is built: the hash, the prepared form per monomial order
    (leading term, its coefficient and the remaining terms, see prepared)
    and the packed form per Packing (see packed) are cached once built.
    Equality and the hash read the terms and the ring, never the order the
    terms are stored in.
    """

    __slots__ = ("ring", "terms", "_hash", "_prep")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._prep = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.zero_mono() in self.terms)

    def constant_value(self):
        """Coefficient of the constant term (the element of the field)."""
        return self.terms.get(self.ring.zero_mono(), self.ring.field.zero)

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def prepared(self, order=grevlex):
        """(lt, lc, tail) under order: the leading monomial, its coefficient
        and the other terms as (monomial, coefficient) pairs; cached per
        order."""
        cache = self._prep
        if cache is None:
            cache = self._prep = {}
        got = cache.get(order.tag)
        if got is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            lt = max(self.terms, key=order.key)
            lc = self.terms[lt]
            got = cache[order.tag] = (lt, lc, [(m, c) for m, c in self.terms.items() if m != lt])
        return got

    def packed(self, packing: Packing):
        """(div_key, lt, L, tail) at packing, the reducer the Groebner kernel
        reads: the packed leading monomial lt, its divisibility key lt -
        packing.guards, and the primitive form L x^lt + tail of the monic
        element (see _primitive_form), tail as (packed monomial, numerator)
        pairs; None when an exponent is above packing.max_exp.  Built once
        per packing (a one-term one straight from its monomial) and freed
        with the polynomial."""
        cache = self._prep
        if cache is None:
            cache = self._prep = {}
        got = cache.get(packing.key, False)
        if got is not False:
            return got
        if max(map(max, self.terms)) > packing.max_exp:
            got = None
        elif len(self.terms) == 1:   # x^lt, whatever its coefficient
            lt = packing.pack(next(iter(self.terms)))
            got = (lt - packing.guards, lt, 1, ())
        else:
            lt, lc, tail = self.prepared(packing.order)
            L, tail = _primitive_form(self.ring.field, lc, tail)
            pack = packing.pack
            lt = pack(lt)
            got = (lt - packing.guards, lt, L, [(pack(m), n) for m, n in tail])
        cache[packing.key] = got
        return got

    def leading(self, order=grevlex):
        """(monomial, coefficient) maximal under order; error on zero.  Reads
        the cached prepared form but never builds one, so monic on a
        remainder builds no primitive form that only its monic multiple
        needs."""
        got = self._prep and self._prep.get(order.tag)
        if got:
            return got[:2]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lt = max(self.terms, key=order.key)
        return lt, self.terms[lt]

    def _need(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.ring.from_int(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch(f"{other.ring!r} vs {self.ring!r}")
        return other

    def __add__(self, other):
        other = self._need(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = F.add(out.get(m, F.zero), c)
            if s == F.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._need(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._need(other)
        if other is NotImplemented:
            return NotImplemented
        F = self.ring.field
        if not self.terms or not other.terms:
            return self.ring.zero()
        out: dict = {}
        for ma, ca in self.terms.items():
            config.check_budget()
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                s = F.add(out.get(m, F.zero), F.mul(ca, cb))
                if s == F.zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        if c == F.zero:
            return self.ring.zero()
        return Polynomial(self.ring, {m: F.mul(c, v) for m, v in self.terms.items()})

    def mul_monomial(self, exps) -> "Polynomial":
        return Polynomial(self.ring, {mono_mul(m, exps): c for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative int, got {n!r}")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self, order=grevlex) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        F = self.ring.field
        if c == F.one:
            return self
        return self.scale(F.inv(c))

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.from_int(other)
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        from .dsl import format_poly

        return format_poly(self)


def _primitive_form(F, lc, tail) -> tuple:
    """(L, [(m, n)]): the monic element x^lt + sum (c/lc) x^m times L, the
    lcm of its denominators, is L x^lt + sum n x^m, with content 1 (each
    prime of L divides the denominator of some c/lc to its full power in L,
    so it leaves that n alone).  Over Q, L > 0 and the n are ints; over
    F_p, L = 1 and the n are the residues c/lc; over F_p(t), L is monic and
    L and the n are F_p[t] polynomials, packed ints in the field's slots."""
    if lc != F.one:
        tail = [(m, F.div(c, lc)) for m, c in tail]
    if F.size:
        return 1, tail
    if F.char == 0:
        L = lcm(*[d for _m, (_n, d) in tail])
        return L, [(m, n * (L // d)) for m, (n, d) in tail]
    P = F._polys
    L = P.lcm(*[d for _m, (_n, d) in tail])
    return L, [(m, n if d == L else P.mul(n, P.quo(L, d))) for m, (n, d) in tail]


def frobenius_power(f: Polynomial, q: int) -> Polynomial:
    """f^q computed termwise; valid only when q is a power of char p.

    q = p^k is decided by one power of p, with k read off log_p q, and over
    F_p the coefficients stay as they are (c^q = c there).  Over F_p(t) each
    coefficient goes to the q-th power by squaring.  Each term and each
    squaring checks the time budget.
    """
    F = f.ring.field
    p = F.char
    if p == 0:
        raise ValueError("frobenius_power needs positive characteristic")
    if q < 1 or p ** round(log(q, p)) != q:
        raise ValueError(f"{q} is not a power of the characteristic {p}")
    out = {}
    for m, c in f.terms.items():
        config.check_budget()
        out[tuple(e * q for e in m)] = c if F.size == p else _field_pow(F, c, q)
    return Polynomial(f.ring, out)


def _field_pow(F, c, n: int):
    r = F.one
    while n:
        config.check_budget()
        if n & 1:
            r = F.mul(r, c)
        n >>= 1
        if n:
            c = F.mul(c, c)
    return r
