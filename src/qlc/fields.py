"""Exact coefficient fields: Q, F_p, and rational functions F_p(t).

Field elements are plain hashable Python values; the field object carries
the arithmetic.  Everything is exact, nothing is mutated.

- Q: a canonical pair (num, den) of ints with den > 0 and
  gcd(num, den) = 1.
- F_p: int in [0, p).
- F_p(t): a canonical pair (num, den) of F_p[t] polynomials with den monic
  and gcd(num, den) = 1.  For p = 2 a polynomial is an int read as a bit
  vector (bit i is the coefficient of t^i): addition is XOR, products
  shift and XOR.  For odd p it is a tuple of coefficients in [0, p), lowest
  degree first, with no trailing zeros; products use Kronecker substitution
  (Harvey, "Faster polynomial multiplication via multipoint Kronecker
  substitution", JSC 2009): pack each factor into one int, multiply once,
  read the slots back mod p.

Q and F_p(t) sums and products split their gcds (Henrici, JACM 3, 1956;
Knuth, TAOCP 2, 4.5.1): a product cancels gcd(an, bd) and gcd(bn, ad) rather
than taking the gcd of the two products, and a sum takes gcd(ad, bd) and at
most one more gcd with that.  Every step of Euclid, of long division and of
a shift-and-XOR product checks the time budget.
"""

from __future__ import annotations

from math import gcd

from . import config


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


class Field:
    """What the three fields share: division as the product with the
    inverse, no sign to print, and identity by tag."""

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_negative(self, a) -> bool:
        return False

    def __eq__(self, other):
        return isinstance(other, Field) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


class RationalField(Field):
    """Q.  An element is a canonical pair (num, den) of ints: den > 0,
    gcd(num, den) = 1, 0 as (0, 1).  Equal values are equal pairs, so they
    hash equal.  Sums and products split their gcds as F_p(t) does (see the
    module docstring); a shared denominator, 1 included, skips the first gcd
    and an inverse takes none."""

    char = 0
    size = None  # infinite
    tag = ("Q",)

    zero = (0, 1)
    one = (1, 1)

    def from_int(self, n: int) -> tuple:
        return (n, 1)

    def add(self, a, b):
        """a + b with g = gcd(ad, bd) and at most gcd(num, g) more."""
        an, ad = a
        bn, bd = b
        if ad == bd:
            num = an + bn
            if ad == 1:
                return (num, 1)
            g = gcd(num, ad)  # ad when num is 0, which gives (0, 1)
            return (num, ad) if g == 1 else (num // g, ad // g)
        # from here on a != -b, so the numerator is never zero
        g = gcd(ad, bd)
        if g == 1:
            return (an * bd + bn * ad, ad * bd)
        ad //= g
        num = an * (bd // g) + bn * ad
        g = gcd(num, g)
        return (num, ad * bd) if g == 1 else (num // g, ad * (bd // g))

    def sub(self, a, b):
        return self.add(a, (-b[0], b[1]))

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        """a * b, cancelling gcd(an, bd) and gcd(bn, ad) first."""
        an, ad = a
        bn, bd = b
        if bd != 1:
            g = gcd(an, bd)  # bd when an is 0, which gives (0, 1)
            if g != 1:
                an //= g
                bd //= g
        if ad != 1:
            g = gcd(bn, ad)
            if g != 1:
                bn //= g
                ad //= g
        return (an * bn, ad * bd)

    def inv(self, a):
        n, d = a
        if not n:
            raise ZeroDivisionError("inverse of 0")
        # a canonical pair is already coprime: only the sign moves
        return (d, n) if n > 0 else (-d, -n)

    def is_negative(self, a) -> bool:
        return a[0] < 0

    def format(self, a) -> str:
        """n or n/d, as str(Fraction) prints it."""
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"

    format_factor = format

    def __repr__(self):
        return "Q"


class PrimeField(Field):
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

    def format(self, a) -> str:
        return str(a)

    format_factor = format

    def __repr__(self):
        return f"F{self.p}"


# ---------------------------------------------------------------------------
# F_p[t]: the numerators and denominators of F_p(t).  A loop that can run long
# reads config._deadline once; under a deadline it calls config.check_budget()
# on every step, without one it only tests a local flag.


class _BinaryPolys:
    """F_2[t] on ints read as bit vectors: bit i is the coefficient of t^i."""

    zero = 0
    one = 1
    t = 2

    def const(self, c: int) -> int:
        return c

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        """Shift-and-XOR over the set bits of the sparser factor."""
        timed = config._deadline is not None
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        while a:
            if timed:
                config.check_budget()
            low = a & -a
            out ^= b << (low.bit_length() - 1)
            a ^= low
        return out

    def quo(self, a: int, b: int) -> int:
        """a / b for b dividing a."""
        timed = config._deadline is not None
        q = 0
        db = b.bit_length()
        shift = a.bit_length() - db
        while shift >= 0:
            if timed:
                config.check_budget()
            q |= 1 << shift
            a ^= b << shift
            shift = a.bit_length() - db
        return q

    def gcd(self, a: int, b: int) -> int:
        timed = config._deadline is not None
        while b:
            if b == 1:
                return 1
            if timed:
                config.check_budget()
            db = b.bit_length()
            shift = a.bit_length() - db
            while shift >= 0:
                if timed:
                    config.check_budget()
                a ^= b << shift
                shift = a.bit_length() - db
            a, b = b, a
        return a

    def monic(self, num: int, den: int) -> tuple:
        return num, den

    def coeffs(self, a: int) -> tuple:
        return tuple((a >> i) & 1 for i in range(a.bit_length()))


class _OddPolys:
    """F_p[t] for odd p on coefficient tuples in [0, p), lowest degree first,
    no trailing zeros."""

    zero = ()
    one = (1,)
    t = (0, 1)

    def __init__(self, p: int):
        self.p = p
        self.square = (p - 1) ** 2

    def const(self, c: int) -> tuple:
        return (c,)

    def add(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        if len(a) > len(b):
            return tuple(out) + a[len(b):]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def neg(self, a: tuple) -> tuple:
        p = self.p
        return tuple(-c % p for c in a)

    def scale(self, a: tuple, c: int) -> tuple:
        p = self.p
        return tuple(x * c % p for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        """Kronecker substitution: each factor becomes one int with a slot of
        k bytes per coefficient, wide enough for any coefficient of the
        integer product; one big-int product, then each slot mod p."""
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            return b if a[0] == 1 else self.scale(b, a[0])
        p = self.p
        k = ((self.square * len(a)).bit_length() + 7) >> 3
        x = int.from_bytes(b"".join([c.to_bytes(k, "little") for c in a]), "little")
        y = int.from_bytes(b"".join([c.to_bytes(k, "little") for c in b]), "little")
        n = (len(a) + len(b) - 1) * k
        z = (x * y).to_bytes(n, "little")
        # the leading coefficient is a[-1] * b[-1], nonzero mod p: no trimming
        return tuple([int.from_bytes(z[i:i + k], "little") % p
                      for i in range(0, n, k)])

    def quo(self, a: tuple, b: tuple) -> tuple:
        """a / b for b dividing a."""
        p = self.p
        timed = config._deadline is not None
        inv = pow(b[-1], -1, p)
        a = list(a)
        q = [0] * (len(a) - len(b) + 1)
        for s in range(len(q) - 1, -1, -1):
            if timed:
                config.check_budget()
            c = a.pop() * inv % p
            if c:
                q[s] = c
                a[s:] = [(x - c * y) % p for x, y in zip(a[s:], b)]
        return tuple(q)

    def gcd(self, a: tuple, b: tuple) -> tuple:
        """Monic gcd by Euclid's algorithm; only remainders are formed."""
        p = self.p
        timed = config._deadline is not None
        a, b = list(a), list(b)
        while b:
            if len(b) == 1:
                return self.one
            if timed:
                config.check_budget()
            inv = pow(b[-1], -1, p)
            top = len(b) - 1
            while len(a) > top:          # a becomes a mod b, in place
                if timed:
                    config.check_budget()
                c = a.pop() * inv % p
                if c:
                    s = len(a) - top
                    a[s:] = [(x - c * y) % p for x, y in zip(a[s:], b)]
            while a and a[-1] == 0:
                a.pop()
            a, b = b, a
        inv = pow(a[-1], -1, p)
        return tuple(a) if inv == 1 else self.scale(a, inv)

    def monic(self, num: tuple, den: tuple) -> tuple:
        """(num, den) rescaled so that den is monic."""
        lc = den[-1]
        if lc == 1:
            return num, den
        inv = pow(lc, -1, self.p)
        return self.scale(num, inv), self.scale(den, inv)

    def coeffs(self, a: tuple) -> tuple:
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


class RationalFunctionField(Field):
    """F_p(t).  An element is a canonical pair (num, den) of F_p[t]
    polynomials, den monic and gcd(num, den) = 1, num zero for 0: ints read
    as bit vectors for p = 2, coefficient tuples for odd p (see the module
    docstring).  Equal elements are equal pairs, so they hash equal."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field size must be prime, got {p}")
        self.p = p
        self.char = p
        self.size = None
        self.tag = ("F(t)", p)
        self._polys = polys = _BinaryPolys() if p == 2 else _OddPolys(p)
        self.zero = (polys.zero, polys.one)
        self.one = (polys.one, polys.one)
        self.t = (polys.t, polys.one)

    def from_int(self, n: int) -> tuple:
        n %= self.p
        return self.zero if n == 0 else (self._polys.const(n), self._polys.one)

    def _sum(self, an, ad, bn, bd) -> tuple:
        """an/ad + bn/bd with g = gcd(ad, bd) and at most gcd(num, g) more."""
        if not an:
            return (bn, bd)
        if not bn:
            return (an, ad)
        P = self._polys
        one = P.one
        if ad == bd:
            num = P.add(an, bn)
            if not num:
                return self.zero
            if ad == one:
                return (num, one)
            g = P.gcd(num, ad)
            return (num, ad) if g == one else (P.quo(num, g), P.quo(ad, g))
        # from here on a != -b, so the numerator is never zero
        g = P.gcd(ad, bd)
        if g == one:
            return (P.add(P.mul(an, bd), P.mul(bn, ad)), P.mul(ad, bd))
        ad = P.quo(ad, g)
        num = P.add(P.mul(an, P.quo(bd, g)), P.mul(bn, ad))
        g = P.gcd(num, g)
        if g != one:
            num, bd = P.quo(num, g), P.quo(bd, g)
        return (num, P.mul(ad, bd))

    def _product(self, an, ad, bn, bd) -> tuple:
        """(an/ad) * (bn/bd), cancelling gcd(an, bd) and gcd(bn, ad) first."""
        if not an or not bn:
            return self.zero
        P = self._polys
        one = P.one
        if bd != one:
            g = P.gcd(an, bd)
            if g != one:
                an, bd = P.quo(an, g), P.quo(bd, g)
        if ad != one:
            g = P.gcd(bn, ad)
            if g != one:
                bn, ad = P.quo(bn, g), P.quo(ad, g)
        return (P.mul(an, bn), P.mul(ad, bd))

    def add(self, a, b):
        return self._sum(a[0], a[1], b[0], b[1])

    def sub(self, a, b):
        return self._sum(a[0], a[1], self._polys.neg(b[0]), b[1])

    def neg(self, a):
        return (self._polys.neg(a[0]), a[1])

    def mul(self, a, b):
        return self._product(a[0], a[1], b[0], b[1])

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of 0")
        # a canonical pair is already coprime: only the scale changes
        return self._polys.monic(a[1], a[0])

    def div(self, a, b):
        if not b[0]:
            raise ZeroDivisionError("inverse of 0")
        bn, bd = self._polys.monic(b[1], b[0])
        return self._product(a[0], a[1], bn, bd)

    def format(self, a) -> str:
        """Text that parses back to a: t^2+1, t/(t+1), (t^2+1)/(t)."""
        if a[1] == self._polys.one:
            return _uformat(self._polys.coeffs(a[0]))
        return self.format_factor(a)

    def format_factor(self, a) -> str:
        """format(a) fit to stand as one factor of a product: the numerator
        goes in parentheses when it has more than one nonzero term."""
        num, den = (self._polys.coeffs(x) for x in a)
        ns = _uformat(num)
        if sum(1 for c in num if c) > 1:
            ns = f"({ns})"
        return ns if den == (1,) else f"{ns}/({_uformat(den)})"

    def __repr__(self):
        return f"F{self.p}(t)"


QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)
