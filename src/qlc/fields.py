"""Exact coefficient fields: Q, F_p, and rational functions F_p(t).

Field elements are plain hashable Python values; the field object carries
the arithmetic.  Everything is exact, nothing is mutated.

- Q: a canonical pair (num, den) of ints with den > 0 and
  gcd(num, den) = 1.
- F_p: int in [0, p).
- F_p(t): a canonical pair (num, den) of F_p[t] polynomials with den monic
  and gcd(num, den) = 1.  A polynomial is one nonnegative int that holds
  its coefficients in w-bit slots, lowest degree first, each in [0, p): 0
  is 0, 1 is 1 and t is 1 << w.  For p = 2, w = 1: the int is a bit
  vector, addition is XOR and products shift and XOR.  For p = 3, w = 2:
  bit 2i marks a coefficient 1 and bit 2i+1 a 2, and Euclid, exact division
  and products run on the two bit planes these bits form (Harrison, Page
  and Smart, LMS J. Comput. Math. 5, 2002): a step adds a shifted divisor
  in seven bitwise operations, and a negation swaps the planes.  For
  p >= 5, w is 64 (whole bytes of at least 2*bits(p) + 32 bits once
  p >= 2^16):
  - a product is Kronecker substitution (Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", JSC 2009): one
    big-int product of the two stored ints, then every slot mod p;
  - a sum or a negation works on all slots at once inside one int (SWAR):
    adding 2^(w-1) - p to every slot sets the top bit of the slots that
    are at least p, and p is taken off those;
  - Euclid and exact division run on lazily reduced slots: a step adds
    (p - c) * b * t^s and drops the top slot, whose value mod p gave c, and
    the slots are reduced mod p only when the next step could carry.

The Groebner kernel's normal forms call no field method: every field
reduces on its domain (see the groebner module docstring), F_p on ints
taken mod p as they leave the heap, Q and F_p(t) fraction-free on the
numerators, ints or F_p[t] polynomials, with at most one gcd per step and
one per surviving term and a content division once the common denominator
has grown by 64 bits over Q or by 16 slots over F_p(t).

Q and F_p(t) sums and products split their gcds (Henrici, JACM 3, 1956;
Knuth, TAOCP 2, 4.5.1): a product cancels gcd(an, bd) and gcd(bn, ad) rather
than taking the gcd of the two products, and a sum takes gcd(ad, bd) and at
most one more gcd with that.  Every step of Euclid, of long division and of
a shift-and-XOR or shift-and-add product checks the time budget.
"""

from __future__ import annotations

import struct
import sys
from math import gcd

from . import config
from .config import InternalError

_BYTEORDER = sys.byteorder  # native "Q" slots of struct and memoryview


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


class _Polys:
    """What the three F_p[t] classes share."""

    def lcm(self, *polys) -> int:
        """The monic lcm of monic polynomials, 1 for none."""
        L = 1
        for d in polys:
            if d != 1 and d != L:
                g = self.gcd(L, d)
                if g != d:
                    L = self.mul(L, self.quo(d, g))
        return L


class _BinaryPolys(_Polys):
    """F_2[t] on ints read as bit vectors: bit i is the coefficient of t^i."""

    w = 1
    t = 2

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


class _TernaryPolys(_Polys):
    """F_3[t] on ints holding two bit planes: the coefficient of t^i is the
    2-bit slot i, bit 2i marking a 1 and bit 2i+1 a 2, so the int is the sum
    of c_i * 4^i.  gcd, quo and mul split their operands once into the plane
    of 1s, a & M, and the plane of 2s, a >> 1 & M (M = 0x55...), loop on the
    planes and merge them once at the end.  On planes a negation swaps them
    and a sum is seven bitwise operations (Harrison, Page and Smart, LMS J.
    Comput. Math. 5, 2002; see _add)."""

    w = 2
    t = 4

    def __init__(self):
        self._mask = 0x5555555555555555  # grown in _planes

    def _planes(self, n: int) -> int:
        """M: a 1 in the low bit of every slot, over at least n bits."""
        M = self._mask
        if n > M.bit_length():
            # (4^k - 1) / 3 is 0x55... on 2k bits
            self._mask = M = ((1 << 2 * max(n, M.bit_length())) - 1) // 3
        return M

    @staticmethod
    def _add(x1: int, x2: int, y1: int, y2: int) -> tuple:
        """(x1, x2) + (y1, y2) slotwise in GF(3), on the planes of 1s and 2s;
        t marks the slots where the two sides differ.  The six-operation sum
        of Kawahara, Aoki and Takagi (Pairing 2008) needs an and-not, which
        on Python ints goes through a negative complement: it ran 2.5 times
        slower on 6000-slot operands (Python 3.11)."""
        t = (x1 | y2) ^ (x2 | y1)
        return (x2 | y2) ^ t, (x1 | y1) ^ t

    def add(self, a: int, b: int) -> int:
        M = self._planes(max(a.bit_length(), b.bit_length()))
        s1, s2 = self._add(a & M, a >> 1 & M, b & M, b >> 1 & M)
        return s1 | s2 << 1

    def neg(self, a: int) -> int:
        M = self._planes(a.bit_length())
        return (a & M) << 1 | a >> 1 & M

    def mul(self, a: int, b: int) -> int:
        """Shift-and-add over the nonzero slots of the sparser factor: a
        nonzero slot sets one bit, so bit_count counts them.  Slot s of a
        adds b * t^s when it holds 1 and -b * t^s, b's planes swapped, when
        it holds 2."""
        if a == 1:
            return b
        if b == 1:
            return a
        timed = config._deadline is not None
        if a.bit_count() > b.bit_count():
            a, b = b, a
        M = self._planes(b.bit_length())
        b1, b2 = b & M, b >> 1 & M
        add = self._add
        o1 = o2 = 0
        while a:
            if timed:
                config.check_budget()
            low = a & -a
            a ^= low
            bit = low.bit_length() - 1
            if bit & 1:
                o1, o2 = add(o1, o2, b2 << bit - 1, b1 << bit - 1)
            else:
                o1, o2 = add(o1, o2, b1 << bit, b2 << bit)
        return o1 | o2 << 1

    def quo(self, a: int, b: int) -> int:
        """a / b for b dividing a, by long division on the planes.  b is
        made monic first (by negating it and the quotient when it leads with
        2), so the quotient's slot is the top slot c of the remainder, and
        the step subtracts c * b * t^s: it adds b's planes swapped when c is
        1 and as they are when c is 2."""
        timed = config._deadline is not None
        M = self._planes(a.bit_length())
        a1, a2 = a & M, a >> 1 & M
        b1, b2 = b & M, b >> 1 & M
        negated = b2 > b1
        if negated:
            b1, b2 = b2, b1
        db = b1.bit_length()
        q1 = q2 = 0
        while True:
            if timed:
                config.check_budget()
            n1, n2 = a1.bit_length(), a2.bit_length()
            if n1 > n2:
                s = n1 - db
                if s < 0:
                    break
                q1 |= 1 << s
                y1, y2 = b2 << s, b1 << s
            else:
                s = n2 - db
                if s < 0:
                    break
                q2 |= 1 << s
                y1, y2 = b1 << s, b2 << s
            t = (a1 | y2) ^ (a2 | y1)           # _add, inlined
            a1, a2 = (a2 | y2) ^ t, (a1 | y1) ^ t
        return q2 | q1 << 1 if negated else q1 | q2 << 1

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd, b nonzero, by Euclid's algorithm on the planes.  Each
        round makes the divisor monic by swapping its planes when it leads
        with 2, and reduces the other side by it as quo does; the monic
        divisor that leaves remainder 0 is the gcd."""
        timed = config._deadline is not None
        M = self._planes(max(a.bit_length(), b.bit_length()))
        a1, a2 = a & M, a >> 1 & M
        b1, b2 = b & M, b >> 1 & M
        while True:
            if b2 > b1:
                b1, b2 = b2, b1
            db = b1.bit_length()
            if db == 1:
                return 1
            while True:
                if timed:
                    config.check_budget()
                n1, n2 = a1.bit_length(), a2.bit_length()
                if n1 > n2:
                    s = n1 - db
                    if s < 0:
                        break
                    y1, y2 = b2 << s, b1 << s
                else:
                    s = n2 - db
                    if s < 0:
                        break
                    y1, y2 = b1 << s, b2 << s
                t = (a1 | y2) ^ (a2 | y1)       # _add, inlined
                a1, a2 = (a2 | y2) ^ t, (a1 | y1) ^ t
            if not (a1 or a2):
                return b1 | b2 << 1
            a1, a2, b1, b2 = b1, b2, a1, a2

    def monic(self, num: int, den: int) -> tuple:
        """(num, den) negated when den leads with 2, in an odd bit."""
        if den.bit_length() & 1:
            return num, den
        return self.neg(num), self.neg(den)

    def coeffs(self, a: int) -> tuple:
        return tuple(a >> i & 3 for i in range(0, a.bit_length(), 2))


class _OddPolys(_Polys):
    """F_p[t] for p >= 5 on nonnegative ints: the coefficient of t^i is the
    w-bit slot i, canonical in [0, p).  w is 64 when 2*bits(p) + 32 <= 64,
    else the whole bytes that hold 2*bits(p) + 32 bits: the 32 spare bits
    keep every slot of a product below 2^w (see mul)."""

    def __init__(self, p: int):
        self.p = p
        bits = 2 * p.bit_length() + 32
        self.w = w = 64 if bits <= 64 else (bits + 7) & ~7
        self.t = 1 << w
        self._cap = self._ones = self._lift = 0  # see _spread

    def _spread(self, n: int) -> tuple:
        """(ones, lift) over n slots: 1 and 2^(w-1) - p in every slot."""
        w = self.w
        if n > self._cap:
            self._cap = cap = max(n, 2 * self._cap, 64)
            self._ones = ((1 << w * cap) - 1) // ((1 << w) - 1)
            self._lift = self._ones * ((1 << w - 1) - self.p)
        cut = w * (self._cap - n)
        return self._ones >> cut, self._lift >> cut

    def _fold(self, s: int) -> int:
        """s with every slot in [0, 2p) brought into [0, p), all at once: a
        slot plus 2^(w-1) - p sets the slot's top bit exactly when it is at
        least p, and p is taken off the slots so marked."""
        w = self.w
        ones, lift = self._spread(-(-s.bit_length() // w))
        return s - self.p * ((s + lift) >> w - 1 & ones)

    def _slots(self, a: int):
        """The w-bit slots of a, lowest first, as ints."""
        w = self.w
        n = -(-a.bit_length() // w)
        if w == 64:
            return memoryview(a.to_bytes(8 * n, _BYTEORDER)).cast("Q")
        k = w >> 3
        raw = a.to_bytes(k * n, "little")
        return [int.from_bytes(raw[i:i + k], "little") for i in range(0, k * n, k)]

    def _pack(self, slots: list) -> int:
        """The int whose w-bit slots are slots, each below 2^w."""
        if self.w == 64:
            return int.from_bytes(struct.pack(f"{len(slots)}Q", *slots), _BYTEORDER)
        k = self.w >> 3
        return int.from_bytes(b"".join([c.to_bytes(k, "little") for c in slots]), "little")

    def _scaled(self, a: int, c: int) -> int:
        """c * a with every slot reduced mod p; the slots of a may hold any
        value below 2^w."""
        p = self.p
        return self._pack([x * c % p for x in self._slots(a)])

    def add(self, a: int, b: int) -> int:
        return self._fold(a + b)

    def neg(self, a: int) -> int:
        # p - a_i lies in [1, p]; the fold takes the slots equal to p to 0
        ones, _ = self._spread(-(-a.bit_length() // self.w))
        return self._fold(self.p * ones - a)

    def mul(self, a: int, b: int) -> int:
        """Kronecker substitution: one big-int product of the two packed
        factors, then every slot mod p.  A slot of the product sums at most
        min(len a, len b) terms below (p-1)^2, so it stays below 2^w while
        the shorter factor has at most 2^32 coefficients."""
        if a == 1:
            return b
        if b == 1:
            return a
        if min(a.bit_length(), b.bit_length()) > self.w << 32:
            raise InternalError("an F_p[t] product would carry between slots")
        return self._scaled(a * b, 1)

    def quo(self, a: int, b: int) -> int:
        """a / b for b dividing a, by long division on lazily reduced slots:
        each step drops the top slot v of a and adds (p - c) * low * t^s,
        c = v / lead mod p, with b split as in gcd.  A slot gains less than
        (p-1)^2 per step, so while b has at most 2^32 coefficients no slot
        carries and none is reduced; the remainder is zero."""
        p, w = self.p, self.w
        timed = config._deadline is not None
        dbw = (b.bit_length() - 1) // w * w
        lead = b >> dbw
        inv = pow(lead, -1, p)
        low = b - (lead << dbw)
        q = [0] * ((a.bit_length() - 1 - dbw) // w + 1)
        for s in range(len(q) - 1, -1, -1):
            if timed:
                config.check_budget()
            sw = s * w
            v = a >> sw + dbw
            if v:
                a -= v << sw + dbw
                c = v * inv % p
                if c:
                    q[s] = c
                    a += (p - c) * low << sw
        return self._pack(q)

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd, b nonzero, by Euclid's algorithm on lazily reduced
        slots; only remainders are formed.  The divisor is held as its top
        slot lead, at bit dbw, and the slots below it, low.  A remainder step
        drops the top slot v of a and adds (p - c) * low * t^s, c = v / lead
        mod p.  bound_a and bound_b bound the slots of a and b; both are
        reduced mod p only when the next division could carry out of a slot.
        The gcd is reduced and made monic once, at the end."""
        p, w = self.p, self.w
        timed = config._deadline is not None
        limit = 1 << w
        bound_a = bound_b = p - 1
        dbw = (b.bit_length() - 1) // w * w
        lead = b >> dbw
        low = b - (lead << dbw)
        while dbw:
            if timed:
                config.check_budget()
            daw = (a.bit_length() - 1) // w * w
            if daw >= dbw:                     # a becomes a mod b
                grow = ((daw - dbw) // w + 1) * (p - 1)
                if bound_a + grow * bound_b >= limit:
                    a, low, lead = self._scaled(a, 1), self._scaled(low, 1), lead % p
                    bound_a = bound_b = p - 1
                bound_a += grow * bound_b
                inv = pow(lead, -1, p)
                for top in range(daw, dbw - 1, -w):
                    if timed:
                        config.check_budget()
                    v = a >> top
                    if v:
                        a -= v << top
                        c = v * inv % p
                        if c:
                            a += (p - c) * low << top - dbw
            while a:                    # drop top slots that are 0 mod p
                if timed:
                    config.check_budget()
                top = (a.bit_length() - 1) // w * w
                v = a >> top
                a -= v << top
                if v % p:
                    break
            else:
                return self._scaled(low, pow(lead, -1, p)) + (1 << dbw)
            a, low, lead, dbw = low + (lead << dbw), a, v, top
            bound_a, bound_b = bound_b, bound_a
        return 1

    def monic(self, num: int, den: int) -> tuple:
        """(num, den) rescaled so that den is monic."""
        lc = den >> (den.bit_length() - 1) // self.w * self.w
        if lc == 1:
            return num, den
        inv = pow(lc, -1, self.p)
        return self._scaled(num, inv), self._scaled(den, inv)

    def coeffs(self, a: int) -> tuple:
        return tuple(self._slots(a))


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
    polynomials, den monic and gcd(num, den) = 1, num zero for 0.  Each
    polynomial is an int with one coefficient per w-bit slot: bit vectors
    for p = 2, two bit planes in 2-bit slots for p = 3, 64-bit slots for
    5 <= p < 2^16 and wider byte slots above.  F_3[t] works on the planes
    with bitwise operations; for p >= 5 sums are SWAR on the packed int,
    products one big-int product, and Euclid and exact division reduce their
    slots mod p only when a slot could overflow (see the module docstring).
    Equal elements are equal pairs, so they hash equal."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field size must be prime, got {p}")
        self.p = p
        self.char = p
        self.size = None
        self.tag = ("F(t)", p)
        self._polys = polys = (_BinaryPolys() if p == 2 else _TernaryPolys() if p == 3
                               else _OddPolys(p))
        self.zero = (0, 1)
        self.one = (1, 1)
        self.t = (polys.t, 1)

    def from_int(self, n: int) -> tuple:
        n %= self.p
        return self.zero if n == 0 else (n, 1)

    def _sum(self, an, ad, bn, bd) -> tuple:
        """an/ad + bn/bd with g = gcd(ad, bd) and at most gcd(num, g) more."""
        if not an:
            return (bn, bd)
        if not bn:
            return (an, ad)
        P = self._polys
        if ad == bd:
            num = P.add(an, bn)
            if not num:
                return self.zero
            if ad == 1:
                return (num, 1)
            g = P.gcd(num, ad)
            return (num, ad) if g == 1 else (P.quo(num, g), P.quo(ad, g))
        # from here on a != -b, so the numerator is never zero
        g = P.gcd(ad, bd)
        if g == 1:
            return (P.add(P.mul(an, bd), P.mul(bn, ad)), P.mul(ad, bd))
        ad = P.quo(ad, g)
        num = P.add(P.mul(an, P.quo(bd, g)), P.mul(bn, ad))
        g = P.gcd(num, g)
        if g != 1:
            num, bd = P.quo(num, g), P.quo(bd, g)
        return (num, P.mul(ad, bd))

    def _product(self, an, ad, bn, bd) -> tuple:
        """(an/ad) * (bn/bd), cancelling gcd(an, bd) and gcd(bn, ad) first."""
        if not an or not bn:
            return self.zero
        P = self._polys
        if bd != 1:
            g = P.gcd(an, bd)
            if g != 1:
                an, bd = P.quo(an, g), P.quo(bd, g)
        if ad != 1:
            g = P.gcd(bn, ad)
            if g != 1:
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
        if a[1] == 1:
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
