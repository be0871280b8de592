import time

import pytest

from qlc.config import BudgetExhausted, budget
from qlc.fields import GF2, GF3, QQ, RationalFunctionField
from qlc.poly import PolyRing, frobenius_power, grevlex, lex


def ring2(field=QQ):
    return PolyRing(field, ["x", "y"])


def test_ring_value_equality():
    assert ring2() == PolyRing(QQ, ["x", "y"])
    assert ring2() != PolyRing(GF2, ["x", "y"])
    assert ring2() != PolyRing(QQ, ["y", "x"])


def test_arith_identities():
    R = ring2()
    x, y = R.var("x"), R.var("y")
    f = x ** 2 + 2 * y - 1
    g = x * y + y ** 2
    assert f + g - g == f
    assert f * R.one() == f
    assert f * R.zero() == R.zero()
    assert (f + g) * (f - g) == f * f - g * g
    assert (x + y) ** 3 == x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3


def test_char2_binomial():
    R = ring2(GF2)
    x, y = R.var("x"), R.var("y")
    assert (x + y) ** 2 == x ** 2 + y ** 2
    assert (x + y) ** 4 == x ** 4 + y ** 4


def test_no_zero_coefficients_stored():
    R = ring2(GF3)
    x = R.var("x")
    f = x + x + x  # 3x = 0
    assert f.is_zero() and f.terms == {}


def test_leading_terms():
    R = ring2()
    x, y = R.var("x"), R.var("y")
    f = x ** 2 * y + x * y ** 2 + x ** 3
    assert f.leading(lex)[0] == (3, 0)
    # grevlex at equal total degree prefers the smaller last exponent
    assert f.leading(grevlex)[0] == (3, 0)
    g = x * y ** 2 + x ** 2 * y
    assert g.leading(grevlex)[0] == (2, 1)


def test_order_properties():
    # multiplicative and 1-minimal on a sample of monomials
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)]
    for order in (lex, grevlex):
        key = order.key
        for a in monos:
            if a != (0, 0):
                assert key(a) > key((0, 0))
            for b in monos:
                for c in monos:
                    shifted = tuple(u + w for u, w in zip(a, c))
                    shifted_b = tuple(u + w for u, w in zip(b, c))
                    if key(a) > key(b):
                        assert key(shifted) > key(shifted_b)


def test_extend_appends_variables():
    R = ring2(GF2)
    x = R.var("x")
    big = R.extend(["z1", "z2"])
    assert big.variables == ("x", "y", "z1", "z2")
    with pytest.raises(ValueError):
        R.extend(["x"])  # name clash


def test_total_degree_and_constants():
    R = ring2()
    x, y = R.var("x"), R.var("y")
    assert (x ** 2 * y + y).total_degree() == 3
    assert R.from_int(5).is_constant()
    assert R.from_int(5).constant_value() == QQ.from_int(5)
    assert R.zero().total_degree() == -1


def test_frobenius_power_is_ring_map_in_char_p():
    R = ring2(GF3)
    x, y = R.var("x"), R.var("y")
    f = x ** 2 + 2 * x * y + y
    g = x + y ** 2
    q = 9
    assert frobenius_power(f + g, q) == frobenius_power(f, q) + frobenius_power(g, q)
    assert frobenius_power(f * g, q) == frobenius_power(f, q) * frobenius_power(g, q)
    assert frobenius_power(f, q) == f ** q


def test_frobenius_power_over_f3_t_powers_coefficients():
    F = RationalFunctionField(3)
    R = PolyRing(F, ["x", "y"])
    c = F.div(F.add(F.t, F.one), F.add(F.mul(F.t, F.t), F.from_int(2)))
    f = R.from_terms({(1, 0): c, (0, 2): F.t})
    for q in (1, 3, 27, 81):
        assert frobenius_power(f, q) == f ** q


def test_frobenius_power_over_f3_t_checks_the_budget():
    # c^q over F_3(t) has degree q: its squarings check the budget
    F = RationalFunctionField(3)
    f = PolyRing(F, ["x"]).from_terms({(1,): F.add(F.t, F.one)})
    start = time.monotonic()
    with pytest.raises(BudgetExhausted):
        with budget(1):
            frobenius_power(f, 3 ** 40)
    assert time.monotonic() - start < 2


@pytest.mark.parametrize("field, q", [(GF3, 6), (GF3, 0), (GF3, -3), (GF3, 3 ** 500 + 1),
                                      (GF2, 2 ** 64 * 3), (QQ, 1)])
def test_frobenius_power_refuses_anything_but_a_power_of_p(field, q):
    with pytest.raises(ValueError):
        frobenius_power(ring2(field).var("x"), q)


def test_frobenius_power_of_a_huge_q_costs_little():
    # one power of 3 decides that q is a power of 3, and over F_3 the
    # coefficients are left as they are
    x, y = ring2(GF3).gens()
    q = 3 ** 200000
    assert frobenius_power(2 * x * y + y, q).terms == {(q, q): 2, (0, q): 1}
