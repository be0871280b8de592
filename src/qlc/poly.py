"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples; a polynomial is an immutable-by-convention
{exponents: coefficient} map tied to a PolyRing.  Monomial orders are small
key objects so Groebner bases can be cached per (ideal, order).
"""

from __future__ import annotations

from .fields import field_name


class RingMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# monomials

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = tuple(x - y for x, y in zip(a, b))
    return out if all(e >= 0 for e in out) else None


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd_is_one(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_deg(a) -> int:
    return sum(a)


class MonomialOrder:
    """Total order on exponent tuples via a sort key; bigger key = bigger monomial."""

    name = "?"
    tag: tuple = ()

    def key(self, exps):
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


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: by total degree, ties broken by the
    *smallest* trailing exponent winning (classic grevlex)."""

    name = "grevlex"
    tag = ("grevlex",)

    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))


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


lex = Lex()
grevlex = GrevLex()


class PolyRing:
    """Polynomial ring field[x1..xn]; value-equal by (field, variables)."""

    __slots__ = ("field", "variables", "_index")

    def __init__(self, field, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables}")
        if not variables:
            raise ValueError("need at least one variable")
        self.field = field
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero_mono(self):
        return (0,) * self.nvars

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

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

    def monomial(self, exps, coeff=None) -> "Polynomial":
        coeff = self.field.one if coeff is None else coeff
        if coeff == self.field.zero:
            return self.zero()
        return Polynomial(self, {tuple(exps): coeff})

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
        return f"{field_name(self.field)}[{','.join(self.variables)}]"


class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.zero_mono() in self.terms)

    def constant_value(self):
        """Coefficient of the constant term (the element of the field)."""
        return self.terms.get(self.ring.zero_mono(), self.ring.field.zero)

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def leading(self, order=grevlex):
        """(monomial, coefficient) maximal under order; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

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

    def mul_monomial(self, exps, coeff=None) -> "Polynomial":
        F = self.ring.field
        coeff = F.one if coeff is None else coeff
        if coeff == F.zero:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(m, exps): F.mul(c, coeff) for m, c in self.terms.items()}
        )

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


def frobenius_power(f: Polynomial, q: int) -> Polynomial:
    """f^q computed termwise; valid only when q is a power of char p."""
    p = f.ring.field.char
    if p == 0:
        raise ValueError("frobenius_power needs positive characteristic")
    qq = q
    while qq % p == 0:
        qq //= p
    if qq != 1:
        raise ValueError(f"{q} is not a power of the characteristic {p}")
    F = f.ring.field
    out = {}
    for m, c in f.terms.items():
        out[tuple(e * q for e in m)] = _field_pow(F, c, q)
    return Polynomial(f.ring, out)


def _field_pow(F, c, n: int):
    r = F.one
    b = c
    while n:
        if n & 1:
            r = F.mul(r, b)
        b = F.mul(b, b)
        n >>= 1
    return r
