import time
from fractions import Fraction

import pytest

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


def test_rationals():
    _axioms(QQ, [Fraction(n, d) for n in (-2, 0, 1, 3) for d in (1, 2, 5)])
    assert QQ.char == 0 and QQ.size is None
    assert QQ.from_int(-7) == Fraction(-7)


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
