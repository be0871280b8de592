import random
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlc.dsl import parse_ring
from qlc.fields import (GF2, GF3, PRIME_BOUND, QQ, PrimeField, RationalField,
                        RationalFunctionField, is_prime)


def _axioms(F, elements):
    for a in elements:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        assert F.sub(a, a) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
            assert F.div(a, a) == F.one
    for a in elements:
        for b in elements:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)


def test_prime_field_axioms():
    for p in (2, 3, 7):
        F = PrimeField(p)
        _axioms(F, [F.from_int(i) for i in range(p)])
        assert F.char == p and F.size == p


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def _pair(x: Fraction) -> tuple:
    """Fraction -> the field's Q element."""
    return (x.numerator, x.denominator)


def _fraction(c: tuple) -> Fraction:
    """The field's Q element -> Fraction."""
    return Fraction(*c)


def test_rationals():
    _axioms(QQ, [_pair(Fraction(n, d)) for n in (-2, 0, 1, 3) for d in (1, 2, 5)])
    assert QQ.char == 0 and QQ.size is None
    assert QQ.from_int(-7) == _pair(Fraction(-7))


def test_rational_functions():
    F = RationalFunctionField(2)
    t = F.t
    els = [F.zero, F.one, t, F.add(t, F.one), F.mul(t, t)]
    _axioms(F, els)
    assert F.char == 2 and F.size is None
    # arithmetic normalizes: t/t collapses to 1
    assert F.div(t, t) == F.one
    assert F.format(F.add(F.mul(t, t), F.one)) in ("t^2+1", "1+t^2")


def test_field_names():
    assert repr(GF2) == "F2"
    assert repr(GF3) == "F3"
    assert repr(QQ) == "Q"
    assert repr(RationalFunctionField(5)) == "F5(t)"
    assert repr(RationalField()) == "Q"


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


def test_large_prime_field_parses_fast():
    start = time.monotonic()
    ring, _ = parse_ring("F1000000000000000003[x]")
    assert time.monotonic() - start < 1
    assert ring.field.p == 10 ** 18 + 3


def test_primality_bound_is_enforced():
    assert is_prime(2 ** 61 - 1)
    # a strong pseudoprime to the first eleven prime bases; base 37 catches it
    assert not is_prime(149491 * 747451 * 34233211)
    # the bound itself passes all twelve bases, so it must be refused
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)
    with pytest.raises(ValueError):
        PrimeField(PRIME_BOUND + 2)


# ---------------------------------------------------------------------------
# F_p(t) against a plain reference: polynomials are tuples of coefficients in
# [0, p), lowest degree first, no trailing zeros; products are schoolbook and
# every operation normalises through one gcd of the full numerator and
# denominator, with no packing and no gcd splitting.


def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _uadd(a, b, p):
    out = [0] * max(len(a), len(b))
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
        a, b = b, _udivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _uformat(a) -> str:
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


class ReferenceFunctionField:
    """F_p(t) on (num, den) coefficient-tuple pairs, den monic, coprime."""

    def __init__(self, p):
        self.p = p
        self.zero = ((), (1,))
        self.one = ((1,), (1,))

    def norm(self, num, den):
        if not num:
            return self.zero
        g = _ugcd(num, den, self.p)
        if g != (1,):
            num = _udivmod(num, g, self.p)[0]
            den = _udivmod(den, g, self.p)[0]
        inv = pow(den[-1], self.p - 2, self.p)
        return (tuple(c * inv % self.p for c in num),
                tuple(c * inv % self.p for c in den))

    def add(self, a, b):
        (an, ad), (bn, bd) = a, b
        p = self.p
        return self.norm(_uadd(_umul(an, bd, p), _umul(bn, ad, p), p),
                         _umul(ad, bd, p))

    def neg(self, a):
        return (_uneg(a[0], self.p), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        return self.norm(_umul(an, bn, self.p), _umul(ad, bd, self.p))

    def inv(self, a):
        return self.norm(a[1], a[0])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a):
        return _uformat(a[0]) if a[1] == (1,) else self.format_factor(a)

    def format_factor(self, a):
        num, den = a
        ns = _uformat(num)
        if sum(1 for c in num if c) > 1:
            ns = f"({ns})"
        return ns if den == (1,) else f"{ns}/({_uformat(den)})"


# p = 2 packs one bit per coefficient and p = 3 two bit planes in 2-bit
# slots; 5, 7 and 32003 use 64-bit slots; 2^61 - 1 needs slots of 160 bits,
# which the byte path of the layout reads
PRIMES = (2, 3, 5, 7, 32003, 2 ** 61 - 1)
MAX_DEGREE = 64
SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def _width(p):
    """Bits per coefficient slot in the field's packed layout."""
    return RationalFunctionField(p)._polys.w


def _packed(p, a):
    """Reference polynomial -> the field's polynomial."""
    w = _width(p)
    return sum(c << (w * i) for i, c in enumerate(a))


def _unpacked(p, a):
    """The field's polynomial -> reference polynomial; every slot must be
    canonical, in [0, p)."""
    w = _width(p)
    slots = tuple((a >> (w * i)) & ((1 << w) - 1)
                  for i in range(-(-a.bit_length() // w)))
    assert all(c < p for c in slots)
    return slots


def _element(p, pair):
    return tuple(_packed(p, x) for x in pair)


def _reference(p, element):
    return tuple(_unpacked(p, x) for x in element)


def _poly(rnd, p, nonzero=False):
    """A random polynomial of degree below MAX_DEGREE + 1; a third of its
    coefficients are 0, 1 or p - 1, the extremes of a Kronecker slot."""
    n = rnd.randint(1 if nonzero else 0, MAX_DEGREE + 1)
    c = [rnd.choice((0, 1, p - 1)) if rnd.random() < 1 / 3 else rnd.randrange(p)
         for _ in range(n)]
    if nonzero:
        c[-1] = c[-1] or 1
    return _trim(c)


@st.composite
def _fields_and_elements(draw, count):
    """(p, field, reference field, [reference elements])"""
    p = draw(st.sampled_from(PRIMES))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    ref = ReferenceFunctionField(p)
    # denominators 1 and shared ones take the gcd-free paths of add and mul
    shared = _poly(rnd, p, nonzero=True)
    dens = ((1,), shared, _poly(rnd, p, nonzero=True))
    elements = [ref.norm(_poly(rnd, p), rnd.choice(dens)) for _ in range(count)]
    return p, RationalFunctionField(p), ref, elements


@SUITE
@given(_fields_and_elements(2))
def test_fpt_arithmetic_matches_reference(case):
    p, F, ref, (a, b) = case
    x, y = _element(p, a), _element(p, b)
    for op in ("add", "sub", "mul"):
        assert _reference(p, getattr(F, op)(x, y)) == getattr(ref, op)(a, b), op
    assert _reference(p, F.neg(x)) == ref.neg(a)
    if b[0]:
        assert _reference(p, F.div(x, y)) == ref.div(a, b)
        assert _reference(p, F.inv(y)) == ref.inv(b)
    else:
        for fails in (lambda: F.div(x, y), lambda: F.inv(y)):
            with pytest.raises(ZeroDivisionError):
                fails()


@SUITE
@given(_fields_and_elements(3))
def test_fpt_values_built_differently_are_equal(case):
    p, F, ref, (a, b, c) = case
    assume(b[0] and c[0])
    x, y, z = (_element(p, e) for e in (a, b, c))
    # (x*z) / (y*z) and x / y: the same value through different gcds
    left = F.div(F.mul(x, z), F.mul(y, z))
    right = F.div(x, y)
    assert left == right and hash(left) == hash(right)
    # a fraction rebuilt from its polynomial numerator and denominator
    num, den = ((_packed(p, part), F.one[1]) for part in a)
    assert F.div(num, den) == x
    assert F.sub(F.add(x, y), y) == x
    assert F.sub(x, x) == F.add(x, F.neg(x)) == F.zero
    assert F.mul(F.div(x, y), y) == x


@SUITE
@given(_fields_and_elements(1))
def test_fpt_format_matches_reference(case):
    p, F, ref, (a,) = case
    for e in (a, ref.norm(a[0], (1,))):
        x = _element(p, e)
        assert F.format(x) == ref.format(e)
        assert F.format_factor(x) == ref.format_factor(e)


@SUITE
@given(st.sampled_from(PRIMES), st.integers(0, 2 ** 32))
def test_fpt_gcd_matches_sympy(p, seed):
    rnd = random.Random(seed)
    a, b = _poly(rnd, p), _poly(rnd, p, nonzero=True)
    polys = RationalFunctionField(p)._polys
    got = _unpacked(p, polys.gcd(_packed(p, a), _packed(p, b)))
    t = sympy.Symbol("t")
    as_sympy = lambda c: sympy.Poly(list(reversed(c)) or [0], t, modulus=p)
    want = as_sympy(a).gcd(as_sympy(b))
    assert got == tuple(int(c) % p for c in reversed(want.all_coeffs()))
    assert got == _ugcd(a, b, p)


def _counting_reductions(polys):
    """Wrap the field's slot reduction; the list counts its calls."""
    calls = []
    scaled = polys._scaled
    polys._scaled = lambda a, c: calls.append(c) or scaled(a, c)
    return calls


def _remainder_chain(rnd, p, g, rounds):
    """(a, b) whose Euclid runs rounds rounds above g, every quotient of
    degree 1, so that gcd(a, b) is g made monic."""
    a, b = g, ()
    for _ in range(rounds):
        q = (rnd.randrange(p), rnd.randrange(1, p))
        a, b = _uadd(_umul(q, a, p), b, p), a
    return a, b


@pytest.mark.parametrize("p, renormalised", [(5, 9), (2 ** 61 - 1, 199)])
def test_fpt_gcd_renormalises_long_remainder_chains(p, renormalised):
    # degree-1 quotients grow the lazy slots fastest relative to the work
    # done: over F5 the slot bound crosses 2^64 every two dozen or so of the
    # 200 rounds, over F_(2^61-1) on every round after the first
    rnd = random.Random(p)
    g = _trim([rnd.randrange(p) for _ in range(3)] + [1])
    a, b = _remainder_chain(rnd, p, g, 200)
    assert len(a) >= 200
    polys = RationalFunctionField(p)._polys
    calls = _counting_reductions(polys)
    got = _unpacked(p, polys.gcd(_packed(p, a), _packed(p, b)))
    assert got == _ugcd(a, b, p) == _ugcd(g, (), p)
    # each renormalisation reduces both operands; the last call makes the
    # gcd monic
    assert (len(calls) - 1) // 2 >= renormalised


@pytest.mark.parametrize("p", PRIMES[1:])
def test_fpt_quo_of_products_needs_no_reduction(p):
    # every coefficient p - 1: each division step adds the most it can to a
    # slot, and still no slot carries before the quotient is read.  F3 has
    # no lazy slots (its bit planes stay canonical), so there only the
    # values are checked
    for n, m in ((1, 300), (150, 150), (300, 2), (40, 7)):
        x, y = (p - 1,) * n, (p - 1,) * m
        polys = RationalFunctionField(p)._polys
        product = polys.mul(_packed(p, x), _packed(p, y))
        assert _unpacked(p, product) == _umul(x, y, p)
        calls = _counting_reductions(polys) if p > 3 else []
        assert _unpacked(p, polys.quo(product, _packed(p, y))) == x
        assert _unpacked(p, polys.quo(product, _packed(p, x))) == y
        assert not calls


def test_f3_planes_stay_canonical_on_dense_long_inputs():
    # F3[t] keeps two bit planes in 2-bit slots, t = 4; after long runs of
    # Euclid, long division and shift-and-add products no slot may hold 3
    # (_unpacked checks every slot) and the gcd must be monic
    p = 3
    rnd = random.Random(3)
    dense = lambda n: tuple(rnd.randrange(3) for _ in range(n - 1)) + (rnd.randrange(1, 3),)
    g, x, y = dense(300), dense(800), dense(750)
    a, b = _umul(g, x, p), _umul(g, y, p)
    assert len(a) >= 1000 and len(b) >= 1000
    F = RationalFunctionField(p)
    assert F.t == (4, 1)
    polys = F._polys
    got = _unpacked(p, polys.gcd(_packed(p, a), _packed(p, b)))
    assert got == _ugcd(a, b, p) and got[-1] == 1
    assert _unpacked(p, polys.quo(_packed(p, a), _packed(p, g))) == x
    assert _unpacked(p, polys.mul(_packed(p, x), _packed(p, y))) == _umul(x, y, p)
    assert _unpacked(p, polys.add(_packed(p, a), _packed(p, b))) == _uadd(a, b, p)
    assert _unpacked(p, polys.neg(_packed(p, a))) == _uneg(a, p)


# ---------------------------------------------------------------------------
# Q against fractions.Fraction


BIG = 10 ** 30


def _rational(rnd, shared) -> Fraction:
    """A third are 0, +-1 or integers; the rest have a denominator that is
    1, shared by the whole case, or random, and numerators up to BIG."""
    if rnd.random() < 1 / 3:
        return Fraction(rnd.choice((0, 1, -1, rnd.randint(-BIG, BIG))))
    den = rnd.choice((1, shared, shared, rnd.randint(1, BIG)))
    num = rnd.randint(-BIG, BIG)
    while gcd(num, den) != 1:  # keep the shared denominator as it is
        num += 1
    return Fraction(num, den)


@st.composite
def _rationals(draw, count):
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    # small factors make gcd(ad, bd) and the second gcd of a sum nontrivial
    shared = rnd.randint(1, BIG) * rnd.choice((2, 6, 30, 210))
    values = [_rational(rnd, shared) for _ in range(count)]
    if rnd.random() < 1 / 4:
        values[-1] = -values[0]  # a sum that cancels to 0
    return values


def _is_canonical(c) -> bool:
    return (type(c) is tuple and len(c) == 2 and type(c[0]) is int
            and type(c[1]) is int and c[1] > 0 and gcd(*c) == 1)


@SUITE
@given(_rationals(2))
def test_q_arithmetic_matches_fraction(case):
    a, b = case
    x, y = _pair(a), _pair(b)
    results = [(QQ.add(x, y), a + b), (QQ.sub(x, y), a - b),
               (QQ.mul(x, y), a * b), (QQ.neg(x), -a)]
    if b:
        results += [(QQ.div(x, y), a / b), (QQ.inv(y), 1 / b)]
    else:
        for fails in (lambda: QQ.div(x, y), lambda: QQ.inv(y)):
            with pytest.raises(ZeroDivisionError):
                fails()
    for got, want in results:
        assert _is_canonical(got) and got == _pair(want)
    assert (QQ.add(x, y) == QQ.zero) == (a + b == 0)


@SUITE
@given(_rationals(3))
def test_q_values_built_differently_are_equal(case):
    a, b, c = case
    assume(b and c)
    x, y, z = _pair(a), _pair(b), _pair(c)
    # (x*z) / (y*z) and x / y: the same value through different gcds
    left = QQ.div(QQ.mul(x, z), QQ.mul(y, z))
    right = QQ.div(x, y)
    assert left == right and hash(left) == hash(right)
    # a fraction rebuilt from its integer numerator and denominator
    assert QQ.div(QQ.from_int(a.numerator), QQ.from_int(a.denominator)) == x
    assert QQ.sub(QQ.add(x, y), y) == x
    assert QQ.sub(x, x) == QQ.add(x, QQ.neg(x)) == QQ.zero == (0, 1)
    assert QQ.mul(QQ.div(x, y), y) == x
    if a:
        assert QQ.mul(x, QQ.inv(x)) == QQ.one == (1, 1)


@SUITE
@given(_rationals(1))
def test_q_format_matches_fraction(case):
    a, = case
    x = _pair(a)
    assert QQ.format(x) == QQ.format_factor(x) == str(a)
    assert QQ.is_negative(x) == (a < 0)
    assert _fraction(x) == a
