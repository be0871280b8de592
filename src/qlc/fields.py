"""Exact coefficient fields: Q, F_p, and rational functions F_p(t).

Field elements are plain hashable Python values (int for F_p, Fraction for Q,
a normalized pair of coefficient tuples for F_p(t)); the field object carries
the arithmetic.  Everything is exact, nothing is mutated.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the first twelve prime bases is exact for every n below
# psi_12 (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)); larger n are rejected rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_BOUND; ValueError for larger n."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality of {n} is only decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Q with Fraction elements."""

    char = 0
    size = None  # infinite
    tag = ("Q",)

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return a / b

    def is_negative(self, a) -> bool:
        return a < 0

    def format(self, a) -> str:
        return str(a)

    format_factor = format

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p with int elements in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field size must be prime, got {p}")
        self.p = p
        self.char = p
        self.size = p
        self.tag = ("F", p)
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_negative(self, a) -> bool:
        return False

    def format(self, a) -> str:
        return str(a)

    format_factor = format

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"F{self.p}"


# ---------------------------------------------------------------------------
# univariate polynomial helpers over F_p, coefficient tuples, ascending degree


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _uadd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)

def _uneg(a, p):
    return tuple(-c % p for c in a)


def _umul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _udivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * binv % p
        q[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] = (a[shift + i] - c * cb) % p
        while a and a[-1] == 0:
            a.pop()
    return _trim(q), _trim(a)


def _ugcd(a, b, p):
    while b:
        _, a = a, _udivmod(a, b, p)[1]
        a, b = b, a
    if a:
        # monic gcd
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _uformat(a: tuple[int, ...]) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" if e == 1 else f"{head}t^{e}")
    return "+".join(parts)


class RationalFunctionField:
    """F_p(t); elements are (num, den) coefficient-tuple pairs, den monic,
    gcd(num, den) = 1, num = () for zero."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field size must be prime, got {p}")
        self.p = p
        self.char = p
        self.size = None
        self.tag = ("F(t)", p)
        self.zero = ((), (1,))
        self.one = ((1,), (1,))
        self.t = ((0, 1), (1,))

    def _norm(self, num, den):
        if not num:
            return self.zero
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _ugcd(num, den, self.p)
        if len(g) > 1 or (g and g[0] != 1):
            num = _udivmod(num, g, self.p)[0]
            den = _udivmod(den, g, self.p)[0]
        lc = den[-1]
        if lc != 1:
            inv = pow(lc, self.p - 2, self.p)
            num = tuple(c * inv % self.p for c in num)
            den = tuple(c * inv % self.p for c in den)
        return (num, den)

    def from_int(self, n: int) -> tuple:
        n %= self.p
        return self.zero if n == 0 else ((n,), (1,))

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        num = _uadd(_umul(an, bd, self.p), _umul(bn, ad, self.p), self.p)
        return self._norm(num, _umul(ad, bd, self.p))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (_uneg(a[0], self.p), a[1])

    def mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        if not an or not bn:
            return self.zero
        return self._norm(_umul(an, bn, self.p), _umul(ad, bd, self.p))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of 0")
        return self._norm(a[1], a[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_negative(self, a) -> bool:
        return False

    def format(self, a) -> str:
        """Text that parses back to a: t^2+1, t/(t+1), (t^2+1)/(t)."""
        if a[1] == (1,):
            return _uformat(a[0])
        return self.format_factor(a)

    def format_factor(self, a) -> str:
        """format(a) fit to stand as one factor of a product: the numerator
        goes in parentheses when it has more than one nonzero term."""
        num, den = a
        ns = _uformat(num)
        if sum(1 for c in num if c) > 1:
            ns = f"({ns})"
        return ns if den == (1,) else f"{ns}/({_uformat(den)})"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.p == self.p

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"F{self.p}(t)"


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
