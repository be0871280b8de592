"""Ideal arithmetic against independent oracles: sympy Groebner bases over Q,
a Buchberger that reduces every S-pair, the lcm rule for monomial-ideal
intersections, and membership scans for colon ideals."""

import functools
import hashlib
import itertools
import operator
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlc import config, dsl, groebner, quotient
from qlc.fields import GF2, GF3, QQ, PrimeField, RationalFunctionField
from qlc.groebner import (InternalError, _reduce, _Reducers, bracket_power,
                          buchberger, colon, ideal, ideal_compare,
                          ideal_power, ideal_powers, ideal_product, ideal_sum,
                          intersect, normal_form, poly_divide_exact)
from qlc.poly import Block, Polynomial, PolyRing, RingMismatch, grevlex, lex


def qring(names="xy"):
    return PolyRing(QQ, list(names))


def kernel_nf(f, basis, order):  # the kernel against a list, under any order
    return _reduce(f, _Reducers(f.ring, order, [g for g in basis if g.terms]))


def random_poly(rng, ring, max_deg=3, max_terms=4):
    n = ring.nvars
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = [0] * n
        for _ in range(rng.randrange(0, max_deg + 1)):
            e[rng.randrange(n)] += 1
        c = ring.field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms[tuple(e)] = c
    return ring.from_terms(terms)


# ---------------------------------------------------------------------------
# sympy cross-check


def _fraction(c) -> Fraction:
    """A Q coefficient, a canonical (num, den) pair -> Fraction."""
    return Fraction(*c)


def _pair(x: Fraction) -> tuple:
    """Fraction -> a Q coefficient."""
    return (x.numerator, x.denominator)


def _to_sympy(f, syms):
    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        term = sympy.Rational(_fraction(c))
        for s, e in zip(syms, m):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def _canonical_from_sympy(gb, syms, order):
    # normalize by the leading coefficient under OUR order, not sympy's
    out = set()
    for expr in gb.exprs:
        poly = sympy.Poly(expr, *syms, domain="QQ")
        terms = [(tuple(int(e) for e in m), Fraction(str(c)))
                 for m, c in poly.terms()]
        lead = max(terms, key=lambda t: order.key(t[0]))[1]
        out.add(frozenset((m, _pair(c / lead)) for m, c in terms))
    return out


def _canonical_from_ours(basis):
    return {frozenset(g.terms.items()) for g in basis}


def test_groebner_matches_sympy_over_q():
    rng = random.Random(2024)
    ring = qring("xy")
    syms = sympy.symbols("x y")
    for _ in range(30):
        gens = [random_poly(rng, ring) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = buchberger(gens, grevlex)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                                order="grevlex")
        assert _canonical_from_ours(ours) == _canonical_from_sympy(theirs, syms, grevlex)


def test_groebner_matches_sympy_lex_three_vars():
    rng = random.Random(99)
    ring = qring("xyz")
    syms = sympy.symbols("x y z")
    for _ in range(10):
        gens = [random_poly(rng, ring, max_deg=2, max_terms=3)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = buchberger(gens, lex)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                                order="lex")
        assert _canonical_from_ours(ours) == _canonical_from_sympy(theirs, syms, lex)


def _gf_p_from_sympy(gb, syms, p):
    """sympy's basis over GF(p), printed with symmetric residues, as sets of
    (monomial, residue in [0, p)) made monic under our grevlex."""
    out = set()
    for expr in gb.exprs:
        terms = [(tuple(int(e) for e in m), int(c) % p)
                 for m, c in sympy.Poly(expr, *syms, modulus=p).terms()]
        inverse = pow(max(terms, key=lambda t: grevlex.key(t[0]))[1], -1, p)
        out.add(frozenset((m, c * inverse % p) for m, c in terms))
    return out


@pytest.mark.parametrize("p", [2, 3, 32003, 2**61 - 1], ids=["F2", "F3", "F32003", "F2^61-1"])
def test_groebner_matches_sympy_over_gf_p(p):
    # over 2^61 - 1 the kernel's lazy products pass 64 bits
    rng = random.Random(p)
    ring = PolyRing(PrimeField(p), ["x", "y", "z"])
    syms = sympy.symbols("x y z")
    for _ in range(12):
        gens = [ring.from_terms({tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, p)
                                 for _ in range(rng.randrange(1, 4))})
                for _ in range(rng.randrange(1, 4))]
        theirs = sympy.groebner([sum(c * sympy.prod(s ** e for s, e in zip(syms, m))
                                     for m, c in g.terms.items()) for g in gens],
                                *syms, order="grevlex", modulus=p)
        assert _canonical_from_ours(buchberger(gens, grevlex)) \
            == _gf_p_from_sympy(theirs, syms, p)


_CYCLIC4 = ("abcd", "a+b+c+d; a*b+b*c+c*d+d*a; a*b*c+b*c*d+c*d*a+d*a*b; a*b*c*d-1")
_KATSURA4 = (["u0", "u1", "u2", "u3", "u4"],
             "u0^2+2*u1^2+2*u2^2+2*u3^2+2*u4^2-u0; 2*u0*u1+2*u1*u2+2*u2*u3+2*u3*u4-u1;"
             "u1^2+2*u0*u2+2*u1*u3+2*u2*u4-u2; 2*u1*u2+2*u0*u3+2*u1*u4-u3;"
             "u0+2*u1+2*u2+2*u3+2*u4-1")


@pytest.mark.parametrize("system", [_CYCLIC4, _KATSURA4], ids=["cyclic4", "katsura4"])
def test_reduced_bases_over_q_have_canonical_pair_coefficients(system):
    names, text = system
    basis = buchberger(dsl.parse_polys(qring(names), text), grevlex)
    coeffs = [c for g in basis for c in g.terms.values()]
    for c in coeffs:
        assert type(c) is tuple and len(c) == 2
        num, den = c
        assert type(num) is int and type(den) is int
        assert den > 0 and gcd(num, den) == 1 and num != 0
    # the basis is monic: every leading coefficient is the pair (1, 1)
    assert all(g.leading(grevlex)[1] == (1, 1) for g in basis)
    if system is _KATSURA4:
        assert any(den != 1 for _num, den in coeffs)


# ---------------------------------------------------------------------------
# reduced-basis shape and membership


def test_basis_is_canonical_under_generator_permutation():
    ring = qring("xy")
    x, y = ring.gens()
    gens = [x ** 2 - y, x * y - 1, y ** 3 + x]
    bases = set()
    for p in itertools.permutations(gens):
        basis = buchberger(list(p), grevlex)
        bases.add(tuple(sorted((frozenset(g.terms.items()) for g in basis),
                               key=repr)))
    assert len(bases) == 1


def test_buchberger_idempotent():
    ring = qring("xy")
    x, y = ring.gens()
    basis = buchberger([x ** 3 - y ** 2, x * y - x], grevlex)
    assert buchberger(basis, grevlex) == basis


def test_membership_of_combinations():
    rng = random.Random(5)
    ring = qring("xy")
    for _ in range(20):
        gens = [random_poly(rng, ring) for _ in range(2)]
        I = ideal(ring, gens)
        comb = ring.zero()
        for g in gens:
            comb = comb + random_poly(rng, ring, max_deg=2) * g
        assert I.contains_poly(comb)
        assert kernel_nf(comb, I.groebner_basis(), grevlex).is_zero()


def test_normal_form_is_idempotent_and_additive():
    ring = qring("xy")
    x, y = ring.gens()
    I = ideal(ring, [x ** 2 + y, y ** 2 - 1])
    f = x ** 3 + x * y + 2
    g = y ** 3 - x
    nf = lambda h: normal_form(h, I)
    assert nf(nf(f)) == nf(f)
    assert nf(f + g) == nf(nf(f) + nf(g))
    assert nf(f - nf(f)).is_zero()


def test_unit_ideal_detection():
    ring = qring("xy")
    x, y = ring.gens()
    assert ideal(ring, [x, x + 1]).is_unit_ideal()
    assert not ideal(ring, [x, y]).is_unit_ideal()


def test_poly_divide_exact():
    ring = qring("xy")
    x, y = ring.gens()
    f = x ** 2 - y + 1
    g = x * y + 3
    assert poly_divide_exact(f * g, g) == f
    with pytest.raises(InternalError):
        poly_divide_exact(f * g + 1, g)


# ---------------------------------------------------------------------------
# colon: membership-scan oracle


def test_colon_against_membership_scan():
    rng = random.Random(17)
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    probes = [ring.one(), x, y, x * y, x ** 2, y ** 2, x ** 2 * y,
              x + y, x * y + 1]
    for _ in range(15):
        I = ideal(ring, [random_poly(rng, ring, max_deg=3),
                         x ** 4, y ** 4])
        g = random_poly(rng, ring, max_deg=2)
        if g.is_zero():
            continue
        Q = colon(I, ideal(ring, [g]))
        for f in probes:
            assert Q.contains_poly(f) == I.contains_poly(f * g)


def test_colon_product_lands_inside():
    ring = qring("xy")
    x, y = ring.gens()
    I = ideal(ring, [x ** 2, x * y ** 2])
    J = ideal(ring, [y])
    Q = colon(I, J)
    for q in Q.generators:
        for j in J.generators:
            assert I.contains_poly(q * j)


# ---------------------------------------------------------------------------
# intersection: monomial lcm oracle


def random_monomial_ideal(rng, ring, count=3, max_deg=4):
    gens = []
    for _ in range(count):
        e = tuple(rng.randrange(0, max_deg + 1) for _ in range(ring.nvars))
        gens.append(ring.monomial(e))
    return gens


def test_intersect_monomial_lcm_oracle():
    rng = random.Random(23)
    ring = qring("xy")
    for _ in range(25):
        A = random_monomial_ideal(rng, ring)
        B = random_monomial_ideal(rng, ring)
        I, J = ideal(ring, A), ideal(ring, B)
        lcms = []
        for a in A:
            (ma, _), = a.terms.items()
            for b in B:
                (mb, _), = b.terms.items()
                lcms.append(ring.monomial(tuple(max(i, j)
                                                for i, j in zip(ma, mb))))
        assert ideal_compare(intersect(I, J), ideal(ring, lcms)) == "equal"


def test_intersect_membership_both_sides():
    ring = qring("xy")
    x, y = ring.gens()
    I = ideal(ring, [x ** 2 - y])
    J = ideal(ring, [y ** 2])
    M = intersect(I, J)
    for f in M.generators:
        assert I.contains_poly(f) and J.contains_poly(f)
    # the product ideal always sits inside the intersection
    assert M.contains_ideal(ideal_product(I, J))


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(5), RationalFunctionField(2)],
                         ids=["Q", "F2", "F5", "F2(t)"])
def test_intersect_keeps_the_reduced_basis_it_extracts(field):
    # the w-free part of the elimination basis is the reduced grevlex basis
    # of I ∩ J, element for element: one Buchberger run per intersect
    rng = random.Random(619)
    ring = PolyRing(field, ["x", "y"])
    for _ in range(10):
        I, J = (ideal(ring, [random_poly(rng, ring, max_deg=2, max_terms=3)
                             for _ in range(rng.randrange(1, 3))]) for _ in "IJ")
        with mock.patch.object(groebner, "buchberger", wraps=groebner.buchberger) as runs:
            K = intersect(I, J)
            basis = K.groebner_basis()
        assert runs.call_count == 1
        assert list(basis) == buchberger(list(K.generators))
        assert all(I.contains_poly(g) and J.contains_poly(g) for g in basis)


# ---------------------------------------------------------------------------
# sums, powers, comparisons


def test_ideal_compare_cases():
    ring = qring("xy")
    x, y = ring.gens()
    I = ideal(ring, [x])
    J = ideal(ring, [x, y])
    assert ideal_compare(I, J) == "left-in-right"
    assert ideal_compare(J, I) == "right-in-left"
    assert ideal_compare(I, ideal(ring, [x, x ** 2])) == "equal"
    assert ideal_compare(I, ideal(ring, [y])) == "incomparable"


def test_ideal_key_is_the_reduced_basis_in_its_ring():
    F3x, F5x = PolyRing(PrimeField(3), ["x"]), PolyRing(PrimeField(5), ["x"])
    assert ideal(F3x, [F3x.var("x")]).key() != ideal(F5x, [F5x.var("x")]).key()
    ring = qring("xy")
    x, y = ring.gens()
    # the key ignores the generators and the order of the terms inside them
    I = ideal(ring, [y + x ** 2, x * y - 1])
    J = ideal(ring, [x * y - 1, x ** 2 + y + x * (x * y - 1)])
    assert hash(I.key()) == hash(J.key()) and I.key() == J.key()
    assert I.key() == I.groebner_basis()
    assert ideal(ring, [x]).key() != ideal(ring, [y]).key()


def test_ideal_power_true_power():
    ring = qring("xy")
    x, y = ring.gens()
    I = ideal(ring, [x, y])
    I2 = ideal_power(I, 2)
    assert ideal_compare(I2, ideal(ring, [x ** 2, x * y, y ** 2])) == "equal"
    assert ideal_compare(ideal_power(I, 1), I) == "equal"
    assert ideal_power(I, 0).is_unit_ideal()


@pytest.mark.parametrize("ring_text, params, t", [
    (ring_text, params, t)
    for ring_text, params, ts in [("F2[x,y]", "x;y", (1, 2, 3, 4)),
                                  ("F3[x,y]", "x+y;x*y^2", (2, 3, 4)),
                                  ("Q[x,y,z]", "x;y;z", (2,))]
    for t in ts])
def test_power_table_matches_products_of_generators(ring_text, params, t):
    # the disproof search's table of I^r for r < t^d, one product per step:
    # I^r is generated by the r-fold products of the generators of I
    ring, _ = dsl.parse_ring(ring_text)
    I = ideal(ring, dsl.parse_polys(ring, params))
    table = list(itertools.islice(ideal_powers(I), t ** len(I.generators)))
    for r, P in enumerate(table):
        products = {functools.reduce(operator.mul, c, ring.one())
                    for c in itertools.combinations_with_replacement(I.generators, r)}
        assert set(P.generators) == products


def test_bracket_power_vs_power_gap():
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    I = ideal(ring, [x, y])
    br = bracket_power(I, 2)
    assert ideal_compare(br, ideal(ring, [x ** 2, y ** 2])) == "equal"
    # x*y separates the bracket power from the true square
    assert ideal_power(I, 2).contains_poly(x * y)
    assert not br.contains_poly(x * y)


def test_ideal_sum():
    ring = qring("xy")
    x, y = ring.gens()
    S = ideal_sum(ideal(ring, [x]), ideal(ring, [y]))
    assert ideal_compare(S, ideal(ring, [x, y])) == "equal"


def test_growing_basis_tracks_buchberger():
    ring = qring("xy")
    x, y = ring.gens()
    gens = [x ** 2 - y, y ** 2 - x, x * y - 1]
    grow = ideal(ring, [])
    for g in gens:
        grow = grow.plus(g)
    assert set(map(repr, grow.groebner_basis())) == set(map(repr, buchberger(gens, grevlex)))
    assert grow.contains_poly(x ** 3 - 1)  # x is a unit here, so x^3 = 1
    assert not grow.is_unit_ideal()
    grow = grow.plus(x - 2)  # now 8 = 1, so the ideal collapses
    assert grow.is_unit_ideal()


# ---------------------------------------------------------------------------
# plus on a monomial basis: no Buchberger run, the seeded run's basis


def plus_checked(stage, f):
    """stage.plus(f), checked against the seeded Buchberger run on the
    remainder and against a fresh handle on the same generators; returns
    the grown stage and the number of Buchberger runs plus made."""
    r = normal_form(f, stage)   # builds stage's basis before the count starts
    with mock.patch.object(groebner, "buchberger", wraps=groebner.buchberger) as runs:
        grown = stage.plus(f)
    if r.is_zero():
        assert grown is stage
    else:
        # tuple equality: the same elements in the same order
        assert grown.groebner_basis() == tuple(buchberger([r], seed=stage.groebner_basis()))
    assert grown.key() == groebner.IdealHandle(grown.ring, grown.generators).key()
    return grown, runs.call_count


def monomial_steps(field):
    """(start monomials, then (monomial, coefficient, absorbed) steps) in
    x, y, z: absorbed adds a multiple of an earlier generator, which the
    remainder drops, so a two-term step can still grow by one monomial."""
    mono = st.tuples(*[st.integers(0, 3)] * 3)
    coefficient = st.integers(1, 6).filter(lambda c: c % field.char if field.char else True)
    step = st.tuples(mono, coefficient, st.booleans())
    return st.tuples(st.lists(mono, max_size=4), st.lists(step, min_size=1, max_size=8))


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F2", "F3", "Q"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_monomial_plus_matches_seeded_buchberger(field, data):
    ring = PolyRing(field, ["x", "y", "z"])
    start, steps = data.draw(monomial_steps(field))
    stage = ideal(ring, [ring.monomial(m) for m in start])
    for m, c, absorbed in steps:
        f = ring.monomial(m) * ring.from_int(c)
        if absorbed and stage.generators:
            f = f + stage.generators[0] * ring.monomial((1, 0, 1))
        stage, runs = plus_checked(stage, f)
        assert runs == 0
        assert all(len(g.terms) == 1 for g in stage.groebner_basis())


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F2", "F3", "Q"])
def test_monomial_plus_edge_cases(field):
    ring = PolyRing(field, ["x", "y", "z"])
    x, y, z = ring.gens()
    two = ring.from_int(2) if field.char != 2 else ring.one()
    stage = ideal(ring, [x ** 3, x ** 2 * y, x * y ** 2, y ** 3, z ** 4])
    # r = x*y divides x^2*y and x*y^2: both leave, x*y sorts in among the rest
    grown, runs = plus_checked(stage, two * x * y)
    assert runs == 0
    assert [g.leading()[0] for g in grown.groebner_basis()] == [
        (1, 1, 0), (0, 3, 0), (3, 0, 0), (0, 0, 4)]
    # r = 1 divides everything
    unit, runs = plus_checked(grown, two * ring.one())
    assert runs == 0 and unit.is_unit_ideal()
    assert unit.groebner_basis() == (ring.one(),)
    # a member changes nothing
    same, runs = plus_checked(grown, x ** 3 * z + y * x * two)
    assert same is grown and runs == 0


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F2", "F3", "Q"])
def test_plus_with_a_tail_takes_the_seeded_run(field):
    ring = PolyRing(field, ["x", "y", "z"])
    x, y, z = ring.gens()
    # a basis element with a tail, grown by a monomial
    stage = ideal(ring, [x ** 2 - y * z, y ** 3])
    grown, runs = plus_checked(stage, x * y)
    assert runs == 1
    assert any(len(g.terms) > 1 for g in grown.groebner_basis())
    # a monomial basis, grown by a remainder of two terms
    stage = ideal(ring, [x ** 2, y ** 3])
    grown, runs = plus_checked(stage, x * z - y * z + x ** 2 * y)
    assert runs == 1
    assert any(len(g.terms) > 1 for g in grown.groebner_basis())


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["F2", "F3", "Q"])
def test_every_construction_path_stores_one_tuple_basis(field, monkeypatch):
    # a handle keeps its basis once, as its reducers' polys; a list left on
    # any path would not hash, and the disproof walk's dead sets key by key()
    ring = PolyRing(field, ["x", "y", "z"])
    x, y, z = ring.gens()
    units = []
    monkeypatch.setattr(quotient, "vector_module", lambda J, K: units.append(J))
    quotient.quotient_module(ideal(ring, [x ** 2, y ** 2, z ** 2]))
    handles = {
        "fresh": ideal(ring, [x ** 2 - y * z, y ** 3]),
        "zero": ideal(ring, []),
        "plus, seeded run": ideal(ring, [x ** 2 - y * z, y ** 3]).plus(x * y),
        "plus, monomial basis": ideal(ring, [x ** 2, y ** 3]).plus(x * y),
        "intersect": intersect(ideal(ring, [x ** 2, y]), ideal(ring, [x * y, z])),
        "quotient_module's unit": units[0],
        "presentation": quotient.QuotientPresentation(ring, [x ** 3, y ** 3]).ideal([x * y]),
    }
    for name, H in handles.items():
        basis = H.groebner_basis()
        assert type(basis) is tuple and basis is H._prepared().polys, name
        hash(H.key())
        assert H.key() == ideal(ring, H.generators).key(), name


# ---------------------------------------------------------------------------
# the heap-driven reducer against a plain reference division

F5 = PrimeField(5)
F_MERSENNE61 = PrimeField(2**61 - 1)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def reference_normal_form(f, basis, order, steps=None):
    """Textbook division: take the biggest remaining term, reduce it by the
    first element of basis (in list order) whose leading term divides it.
    Each term taken is appended to steps when a list is given."""
    F = f.ring.field
    basis = [g for g in basis if g.terms]
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        if steps is not None:
            steps.append(m)
        for g in basis:
            lt = max(g.terms, key=order.key)
            if all(a >= b for a, b in zip(m, lt)):
                q = tuple(a - b for a, b in zip(m, lt))
                factor = F.div(c, g.terms[lt])
                for tm, tc in g.terms.items():
                    if tm == lt:
                        continue
                    nm = tuple(a + b for a, b in zip(tm, q))
                    s = F.sub(work.get(nm, F.zero), F.mul(factor, tc))
                    if s == F.zero:
                        work.pop(nm, None)
                    else:
                        work[nm] = s
                break
        else:
            out[m] = c
    return out


def poly3(field):
    ring = PolyRing(field, ["x", "y", "z"])
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-4, 4))
    return st.lists(term, max_size=5).map(
        lambda ts: ring.from_terms({m: field.from_int(c) for m, c in ts}))


def assert_matches_reference(f, basis, order):
    assert kernel_nf(f, basis, order).terms == reference_normal_form(f, basis, order)


@pytest.mark.parametrize("field", [F5, F_MERSENNE61, QQ], ids=["F5", "F2^61-1", "Q"])
@pytest.mark.parametrize("order", [grevlex, lex, Block(1, lex, grevlex)],
                         ids=["grevlex", "lex", "block"])
@PROPERTY
@given(data=st.data())
def test_normal_form_matches_reference_division(field, order, data):
    f = data.draw(poly3(field))
    basis = data.draw(st.lists(poly3(field), min_size=0, max_size=4))
    assert_matches_reference(f, basis, order)


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
@PROPERTY
@given(data=st.data())
def test_prepared_form_never_leaks_across_orders(field, data):
    f = data.draw(poly3(field))
    basis = data.draw(st.lists(poly3(field), min_size=1, max_size=4))
    for order in (lex, grevlex, lex):
        assert_matches_reference(f, basis, order)
        for g in basis:
            if g.terms:
                lt = max(g.terms, key=order.key)
                assert g.leading(order) == (lt, g.terms[lt])


@PROPERTY
@given(data=st.data())
def test_exact_division_recovers_the_cofactor(data):
    f = data.draw(poly3(QQ))
    g = data.draw(poly3(QQ))
    assume(not g.is_zero())
    assert poly_divide_exact(f * g, g) == f


# ---------------------------------------------------------------------------
# the F_p kernel, which reduces on ints and takes each term mod p as it
# leaves the heap

def test_fp_normal_form_calls_no_field_method(monkeypatch):
    ring = PolyRing(PrimeField(32003), ["x", "y", "z"])
    I = ideal(ring, dsl.parse_polys(ring, "x^2+3*y*z-1; y^2-5*x*z+2; z^3+x*y"))
    basis = list(I.groebner_basis())
    f = dsl.parse_poly(ring, "(x+2*y+3*z+4)^5")
    expected = reference_normal_form(f, basis, grevlex)
    calls = []
    for name in ("add", "sub", "neg", "mul", "inv", "div"):
        monkeypatch.setattr(PrimeField, name, lambda *args, _name=name: calls.append(_name))
    got = normal_form(f, I)
    monkeypatch.undo()
    assert len(got.terms) > 1 and got.terms == expected
    assert calls == []


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F_MERSENNE61],
                         ids=["F2", "F3", "F2^61-1"])
def test_fp_kernel_checks_the_budget_once_per_term_taken(field, monkeypatch):
    # a term that is 0 mod p is skipped before its budget check, as a term
    # that cancelled out of work is: one check per term the division takes
    ring = PolyRing(field, ["x", "y", "z"])
    f = dsl.parse_poly(ring, "(x+y+z+1)^6 + (x*y-z)^3")
    basis = buchberger(dsl.parse_polys(ring, "x^2-y*z-1; y^2-x*z"))
    steps = []
    expected = reference_normal_form(f, basis, grevlex, steps)
    checks = []
    monkeypatch.setattr(config, "check_budget", lambda: checks.append(1))
    assert kernel_nf(f, basis, grevlex).terms == expected != {}
    assert len(checks) == len(steps)


# ---------------------------------------------------------------------------
# the Q kernel, which reduces fraction-free on primitive integer reducers

QXYZ = PolyRing(QQ, ["x", "y", "z"])
BIG_DENOMINATORS = (2**64 + 13, 2**70 + 1, 3**45)


def qparse(text):
    return dsl.parse_poly(QXYZ, text)


def qpoly3():
    """Polynomials in x, y, z with fractional coefficients, denominators
    above 2^64 among them."""
    coefficient = st.tuples(st.integers(-4, 4).filter(bool),
                            st.sampled_from((1, 2, 3, 7, 2**40 + 15) + BIG_DENOMINATORS))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coefficient)
    return st.lists(term, max_size=5).map(lambda ts: QXYZ.from_terms(
        {m: QQ.div(QQ.from_int(n), QQ.from_int(d)) for m, (n, d) in ts}))


@pytest.mark.parametrize("order", [grevlex, lex, Block(1, lex, grevlex)],
                         ids=["grevlex", "lex", "block"])
@PROPERTY
@given(f=qpoly3(), basis=st.lists(qpoly3(), max_size=4))
# non-monic reducers: a negative lead, and a -3/7 lead with a fractional tail
@example(f=qparse("z+1"), basis=[qparse("-z")])
@example(f=qparse("x^3+x*y-2/5*y^2"), basis=[qparse("-3/7*x^2+y"), qparse("-y^2+1/3*x")])
# denominators above 2^64, in the reducers and in f
@example(f=qparse(f"x^2/{2**64 + 13}+y"),
         basis=[qparse(f"x/{2**70 + 1}-y/{2**64 + 13}"), qparse(f"3*y-z/{3**45}")])
# s grows past 64 bits and gcd(s, W) is a 42-bit content: the fixed content
# division runs
@example(f=qparse(f"3/{2**41 + 21}*x^3*y^2*z^2"),
         basis=[qparse(f"1/{2**41 + 21}*x*z+2/{2**40 + 15}*y*z")])
def test_q_kernel_matches_reference_division(order, f, basis):
    assert_matches_reference(f, basis, order)


def test_q_kernel_checks_the_budget():
    f = qparse("(x+y+z+1/2)^6")
    basis = [qparse("x-1/3*y"), qparse("y^2-2/7*z")]
    assert kernel_nf(f, basis, grevlex).terms  # a reduction with terms left over
    with config.budget(0):
        with pytest.raises(config.BudgetExhausted):
            kernel_nf(f, basis, grevlex)


# ---------------------------------------------------------------------------
# the F_p(t) kernel, which reduces fraction-free on primitive F_p[t] reducers

# 65537 takes the wide byte slots of F_p[t]
FPT_RINGS = {p: PolyRing(RationalFunctionField(p), ["x", "y", "z"])
             for p in (2, 3, 5, 65537)}
# lowest coefficient first: 1, t, t+1, 2t+1 (leads with 2 over F_3), t^2+t+1,
# t^3+2, (t+1)^2 and t^5+t^2+1
FPT_DENOMINATORS = ((1,), (0, 1), (1, 1), (1, 2), (1, 1, 1), (2, 0, 0, 1), (1, 2, 1),
                    (1, 0, 1, 0, 0, 1))


def fparse(p, text):
    return dsl.parse_poly(FPT_RINGS[p], text)


def tpoly(F, coeffs):
    """sum c_i t^i, lowest first, as an element of F."""
    out, power = F.zero, F.one
    for c in coeffs:
        out = F.add(out, F.mul(F.from_int(c), power))
        power = F.mul(power, F.t)
    return out


@st.composite
def fpt_case(draw):
    """f and up to four reducers in x, y, z over F_p(t), p drawn from
    FPT_RINGS, with rational-function coefficients."""
    ring = FPT_RINGS[draw(st.sampled_from(sorted(FPT_RINGS)))]
    F = ring.field
    numerator = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
        lambda cs: tpoly(F, cs))
    denominator = st.sampled_from(FPT_DENOMINATORS).map(lambda cs: tpoly(F, cs))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), numerator, denominator)
    poly = st.lists(term, max_size=5).map(
        lambda ts: ring.from_terms({m: F.div(n, d) for m, n, d in ts}))
    return draw(poly), draw(st.lists(poly, max_size=4))


@pytest.mark.parametrize("order", [grevlex, lex, Block(1, lex, grevlex)],
                         ids=["grevlex", "lex", "block"])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=fpt_case())
# non-monic reducer leads, one with a fractional tail
@example(case=(fparse(5, "x^2*y+t*y^2"), [fparse(5, "(2*t+3)/(t^2+1)*x*y-y^2/(t+1)")]))
@example(case=(fparse(65537, "x*z+y"), [fparse(65537, "(t^2+7)*z-1/t")]))
# an F_3(t) denominator that leads with 2: the canonical pair is 2/(t+2)
@example(case=(fparse(3, "x^2/(2*t+1)+y"), [fparse(3, "x/(2*t^2+1)-y/(t+2)")]))
# shared and coprime denominators in f
@example(case=(fparse(2, "x^2/(t+1)+x*y/(t+1)+y^2/t+z/(t^2+t)"),
               [fparse(2, "x-y/(t^2+t+1)"), fparse(2, "y^2+z/t")]))
# s grows by more than 16 slots and gcd(s, W) is t^5+t^2+1: the fixed content
# division runs
@example(case=(fparse(2, "x^3*y^2*z^2/(t^5+t^2+1)"),
               [fparse(2, "x*z/(t^5+t^2+1)+y*z/(t^17+t^3+1)")]))
def test_fpt_kernel_matches_reference_division(order, case):
    f, basis = case
    assert_matches_reference(f, basis, order)


def test_fpt_kernel_checks_the_budget():
    f = fparse(5, "(x+y+z+1/t)^6")
    basis = [fparse(5, "x-y/(t+1)"), fparse(5, "y^2-2/(t^2+3)*z")]
    assert kernel_nf(f, basis, grevlex).terms  # a reduction with terms left over
    with config.budget(0):
        with pytest.raises(config.BudgetExhausted):
            kernel_nf(f, basis, grevlex)


def poly2(field):
    """Polynomials in x, y of degree at most 2 in each: a few of them keep
    Buchberger cheap under lex over Q."""
    ring = PolyRing(field, ["x", "y"])
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * 2), st.integers(-4, 4))
    return st.lists(term, max_size=3).map(
        lambda ts: ring.from_terms({m: field.from_int(c) for m, c in ts}))


ORDERS = [grevlex, lex, Block(1, lex, grevlex)]
ORDER_IDS = ["grevlex", "lex", "block"]


def seeded_chain(gens, order):
    """The bases a chain of seeded Buchberger runs passes through, one per
    generator, each run seeded with the basis before it."""
    basis, bases = [], []
    for g in gens:
        basis = buchberger([g], order, seed=basis)
        bases.append(basis)
    return bases


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "Q"])
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@PROPERTY
@given(data=st.data())
def test_plus_folds_to_buchberger(field, order, data):
    gens = data.draw(st.lists(poly2(field), max_size=3))
    bases = seeded_chain(gens, order)
    basis = bases[-1] if bases else []
    assert basis == buchberger(gens, order)
    h = data.draw(poly2(field))
    for g in gens:
        assert buchberger([g], order, seed=basis) == basis
        assert buchberger([h * g], order, seed=basis) == basis
    if order == grevlex:
        stage = ideal(PolyRing(field, ["x", "y"]), [])
        for g in gens:
            stage = stage.plus(g)
        assert list(stage.groebner_basis()) == basis
        for g in gens:
            assert stage.plus(g) is stage
            assert stage.plus(h * g) is stage


def test_reduction_refuses_a_polynomial_from_another_ring():
    R = PolyRing(GF2, ["x", "y"])
    I = ideal(R, R.gens())
    xyz = PolyRing(GF2, ["x", "y", "z"])
    x, _y, z = xyz.gens()
    for f in (x * z, z, PolyRing(GF3, ["x", "y"]).var("x") + 1):
        with pytest.raises(RingMismatch):
            normal_form(f, I)
        with pytest.raises(RingMismatch):
            I.contains_poly(f)
        # a handle refuses a foreign generator, given directly or through plus
        with pytest.raises(RingMismatch):
            ideal(R, [R.var("x"), f])
        with pytest.raises(RingMismatch):
            I.plus(f)
    # an equal ring built separately is the same ring
    assert normal_form(PolyRing(GF2, ["x", "y"]).var("x") + 1, I) == R.one()


def test_a_one_term_reduced_to_zero_is_a_real_zero():
    # a one-term f that a tail-free reducer divides comes back as the ring's
    # one kept zero, which must behave as any other zero polynomial
    R = PolyRing(GF3, ["x", "y"])
    x, y = R.gens()
    I = ideal(R, [x, y ** 2 + x])
    for f in (x * y, x, 2 * x ** 3):
        r = normal_form(f, I)
        assert r.is_zero() and r == R.zero() == x - x
        assert hash(r) == hash(R.zero()) == hash(x - x)
        assert {r: 1}[R.zero()] == 1
        assert r + y == y and I.contains_poly(f)


# ---------------------------------------------------------------------------
# packed monomials: the layout, slot widths past the first, and overflow

@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("width", [8, 16, 64])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_packing_is_linear_and_orders_like_the_order(order, width, data):
    packing = PolyRing(QQ, ["x", "y", "z", "w"]).packing(order, width)
    top = packing.max_exp
    exps = st.tuples(*[st.sampled_from([0, 1, 2, top // 2 - 1, top // 2])] * 4)
    a, b = data.draw(exps), data.draw(exps)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and not pa & packing.guards
    assert (pa < pb) == (order.key(a) > order.key(b))   # smaller int, bigger monomial
    assert pa + pb == packing.pack(tuple(map(operator.add, a, b)))
    divides = ((pa - (pb - packing.guards)) & packing.guards) == packing.guards
    assert divides == all(x >= y for x, y in zip(a, b))


@pytest.mark.parametrize("width", [8, 16])
def test_a_product_past_max_exp_sets_its_guard(width):
    packing = PolyRing(QQ, ["x", "y", "z"]).packing(lex, width)
    top = packing.max_exp
    assert not (packing.pack((top, 0, 1)) + packing.pack((0, top, 1))) & packing.guards
    for a, b in [((top, 0, 0), (1, 0, 0)), ((0, 3, top), (0, 2, top)),
                 ((top, top, top), (top, top, top))]:
        assert (packing.pack(a) + packing.pack(b)) & packing.guards


F2T = RationalFunctionField(2)
WIDE_FIELDS = [F5, F_MERSENNE61, QQ, F2T, RationalFunctionField(3)]
WIDE_FIELD_IDS = ["F5", "F2^61-1", "Q", "F2(t)", "F3(t)"]


def _stretched(g, k, shift=(0, 0, 0)):
    """g(x^k, y^k, z^k) times x^shift: the same division, wider exponents."""
    return g.ring.from_terms({tuple(e * k + s for e, s in zip(m, shift)): c
                              for m, c in g.terms.items()})


@st.composite
def wide_case(draw, field):
    """f and up to four reducers in x, y, z whose exponents reach past the
    8-bit slots, the 16-bit slots or 32 bits."""
    ring = PolyRing(field, ["x", "y", "z"])
    if field.char and field.size is None:
        coefficient = st.tuples(st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                                st.sampled_from(FPT_DENOMINATORS)).map(
            lambda nd: field.div(tpoly(field, nd[0]), tpoly(field, nd[1])))
    else:
        coefficient = st.integers(-4, 4).map(field.from_int)
    term = st.tuples(exps3, coefficient)
    poly = st.lists(term, max_size=4).map(lambda ts: ring.from_terms(dict(ts)))
    k = draw(st.sampled_from([1, 45, 2**15 + 1, 2**31 + 3]))
    shift = draw(st.tuples(*[st.sampled_from([0, 1, 130])] * 3))
    return (_stretched(draw(poly), k, shift),
            [_stretched(g, k) for g in draw(st.lists(poly, max_size=4))])


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=WIDE_FIELD_IDS)
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_kernel_matches_reference_past_the_slot_width(field, order, data):
    f, basis = data.draw(wide_case(field))
    assert_matches_reference(f, basis, order)


@pytest.mark.parametrize("field", WIDE_FIELDS, ids=WIDE_FIELD_IDS)
@pytest.mark.parametrize("order", [lex, Block(1, lex, grevlex)], ids=["lex", "block"])
def test_an_overflowing_reduction_reruns_wider(field, order):
    # x^100 and x - y^2 fit 8-bit slots, but the division meets y^128 and
    # ends at y^200
    ring = PolyRing(field, ["x", "y", "z"])
    f = dsl.parse_poly(ring, "x^100+x*z")
    basis = [dsl.parse_poly(ring, "x-y^2")]
    got = kernel_nf(f, basis, order)
    assert got.terms == reference_normal_form(f, basis, order)
    assert (0, 200, 0) in got.terms


FIELDS_BY_DOMAIN = [QQ, GF2, F_MERSENNE61, F2T]
FIELD_BY_DOMAIN_IDS = ["Q", "F2", "F2^61-1", "F2(t)"]


@pytest.mark.parametrize("field", FIELDS_BY_DOMAIN, ids=FIELD_BY_DOMAIN_IDS)
def test_normal_form_checks_the_budget_once_per_term_taken(field, monkeypatch):
    # the count config.budget_checks traces: one check per term the division
    # takes, none for a term that cancelled or, over F_p, is 0 mod p
    ring = PolyRing(field, ["x", "y", "z"])
    I = ideal(ring, dsl.parse_polys(ring, "x^2-y*z-1; y^2-x*z; x*y*z-z"))
    basis = list(I.groebner_basis())
    f = dsl.parse_poly(ring, "(x+y+z+1)^6 + (x*y-z)^3 + 2*x^7")
    steps = []
    expected = reference_normal_form(f, basis, grevlex, steps)
    checks = []
    monkeypatch.setattr(config, "check_budget", lambda: checks.append(1))
    assert normal_form(f, I).terms == expected != {}
    assert len(checks) == len(steps)


@pytest.mark.parametrize("field", FIELDS_BY_DOMAIN, ids=FIELD_BY_DOMAIN_IDS)
def test_a_handle_packs_its_reducers_once(field, monkeypatch):
    ring = PolyRing(field, ["x", "y", "z"])
    I = ideal(ring, dsl.parse_polys(ring, "x^2-y*z-1; y^2-x*z; z^3"))
    basis = I.groebner_basis()
    calls = []
    for name in ("prepared", "packed"):
        original = getattr(Polynomial, name)

        def wrapped(self, *args, _original=original, _name=name):
            if any(self is g for g in basis):
                calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(Polynomial, name, wrapped)
    fs = dsl.parse_polys(ring, "(x+y+z)^4; x^3*y; x*y+z^2; x^7; y^2*z^2")
    # the first normal form asks each element for its packed form once (the
    # Buchberger run that found the basis may have built it already)
    normal_form(fs[0], I)
    tailed = sum(len(g.terms) > 1 for g in basis)
    assert calls.count("packed") == len(basis) and calls.count("prepared") <= tailed
    calls.clear()
    for _ in range(3):
        for f in fs:
            normal_form(f, I)
    assert calls == []


# ---------------------------------------------------------------------------
# incremental interreduction and the one-term fast path

FIELDS = [GF2, F5, QQ]
FIELD_IDS = ["F2", "F5", "Q"]
exps3 = st.tuples(*[st.integers(0, 3)] * 3)


def coefficient(field):
    return st.sampled_from([c for c in map(field.from_int, (1, 2, 3, 4)) if c != field.zero])


def below(m):
    """A divisor of the monomial m."""
    return st.tuples(*[st.integers(0, e) for e in m])


@st.composite
def plus_chain(draw, field):
    """Up to six monomials and binomials.  A step may take a divisor of a
    term of an earlier generator, so that its leading term drops a seed
    element or hits a seed element's tail."""
    ring = PolyRing(field, ["x", "y", "z"])
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        earlier = [m for g in gens for m in g.terms]
        if earlier and draw(st.booleans()):
            lead = draw(below(draw(st.sampled_from(earlier))))
        else:
            lead = draw(exps3)
        terms = {lead: draw(coefficient(field))}
        if draw(st.booleans()):
            terms[draw(exps3)] = draw(coefficient(field))
        gens.append(ring.from_terms(terms))
    return gens


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_plus_chain_interreduces_like_a_fresh_run(field, order, data):
    gens = data.draw(plus_chain(field))
    bases = seeded_chain(gens, order)
    for k, basis in enumerate(bases, 1):
        assert basis == buchberger(gens[:k], order)
    if order == grevlex:
        stage = ideal(gens[0].ring, [])
        for g, basis in zip(gens, bases):
            stage = stage.plus(g)
            assert list(stage.groebner_basis()) == basis


def test_plus_drops_and_re_reduces_seed_elements():
    ring = PolyRing(GF2, ["x", "y", "z"])
    seed = ideal(ring, dsl.parse_polys(ring, "x^2+y*z; y^3+z"))
    assert [dsl.format_poly(g) for g in seed.groebner_basis()] == ["x^2+y*z", "y^3+z"]
    # y divides the leading term y^3 (that element is dropped) and the tail
    # term y*z of x^2+y*z (that element is reduced again, to x^2)
    grown = seed.plus(ring.var("y"))
    assert [dsl.format_poly(g) for g in grown.groebner_basis()] == ["z", "y", "x^2"]
    assert list(grown.groebner_basis()) == buchberger(grown.generators)


def one_term(field):
    return st.tuples(exps3, coefficient(field)).map(
        lambda mc: PolyRing(field, ["x", "y", "z"]).from_terms({mc[0]: mc[1]}))


def reducer(field):
    """A monomial or a binomial; over F5 and Q its leading coefficient is
    often not 1."""
    ring = PolyRing(field, ["x", "y", "z"])
    monomial = st.tuples(exps3, coefficient(field)).map(lambda mc: ring.from_terms({mc[0]: mc[1]}))
    binomial = st.tuples(exps3, coefficient(field), exps3, coefficient(field)).map(
        lambda t: ring.from_terms({t[0]: t[1], t[2]: t[3]}))
    return st.one_of(monomial, binomial)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@PROPERTY
@given(data=st.data())
def test_one_term_normal_form_matches_reference_division(field, order, data):
    f = data.draw(one_term(field))
    basis = data.draw(st.lists(reducer(field), max_size=4))
    assert_matches_reference(f, basis, order)
    (m,) = f.terms
    if not any(all(a >= b for a, b in zip(m, g.leading(order)[0])) for g in basis):
        assert kernel_nf(f, basis, order) is f


# ---------------------------------------------------------------------------
# the pair criteria against a Buchberger that reduces every S-pair

F3T = RationalFunctionField(3)
CRITERIA_FIELDS = [GF2, GF3, QQ, F3T]
CRITERIA_FIELD_IDS = ["F2", "F3", "Q", "F3(t)"]


def _lead(g, order):
    lt = max(g.terms, key=order.key)
    return lt, g.terms[lt]


def _monic(g, order):
    F = g.ring.field
    return g.scale(F.div(F.one, _lead(g, order)[1]))


def reference_buchberger(gens, order):
    """Reduced basis, sorted by leading term: every S-pair is reduced by
    textbook division, smallest lcm first, then the basis is minimalized
    and inter-reduced."""
    basis = [_monic(g, order) for g in gens if g.terms]
    lts = [_lead(g, order)[0] for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def lcm(pair):
        return tuple(map(max, *(lts[k] for k in pair)))

    while pairs:
        pair = min(pairs, key=lambda p: (sum(lcm(p)), order.key(lcm(p))))
        pairs.remove(pair)
        i, j = pair
        L = lcm(pair)
        ring = basis[i].ring
        s = (ring.monomial(tuple(a - b for a, b in zip(L, lts[i]))) * basis[i]
             - ring.monomial(tuple(a - b for a, b in zip(L, lts[j]))) * basis[j])
        r = ring.from_terms(reference_normal_form(s, basis, order))
        if r.terms:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_monic(r, order))
            lts.append(_lead(r, order)[0])
    minimal = [g for k, g in enumerate(basis)
               if not any(all(a >= b for a, b in zip(lts[k], lt)) and (lt != lts[k] or h < k)
                          for h, lt in enumerate(lts) if h != k)]
    reduced = [_monic(g.ring.from_terms(reference_normal_form(
        g, [h for h in minimal if h is not g], order)), order) for g in minimal]
    return sorted(reduced, key=lambda g: order.key(_lead(g, order)[0]))


def criteria_coefficient(field):
    values = [field.one, field.from_int(2)]
    if field is F3T:
        t = field.t
        values += [t, field.add(t, field.one)]
    return st.sampled_from([c for c in values if c != field.zero])


# Leading terms from this pool meet coprime ones (x^2 and y*z) and equal
# lcms (x*y, x*z and y*z pairwise share the lcm x*y*z), where criteria F and
# M fire.  A tail term is a proper divisor of the leading term, which keeps
# that term leading under every monomial order.
LEADS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2),
         (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 1, 0), (0, 1, 2), (1, 1, 1)]


@st.composite
def criteria_poly(draw, field):
    ring = PolyRing(field, ["x", "y", "z"])
    if draw(st.booleans()):
        lead = draw(st.sampled_from(LEADS))
        tails = st.lists(below(lead).filter(lambda m: m != lead), max_size=2)
    else:
        lead = draw(st.tuples(*[st.integers(0, 2)] * 3))
        tails = st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=2)
    terms = {m: draw(criteria_coefficient(field)) for m in draw(tails)}
    terms[lead] = draw(criteria_coefficient(field))
    return ring.from_terms(terms)


@pytest.mark.parametrize("field", CRITERIA_FIELDS, ids=CRITERIA_FIELD_IDS)
@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_criteria_match_a_criterion_free_buchberger(field, order, data):
    gens = data.draw(st.lists(criteria_poly(field), min_size=1, max_size=3))
    want = reference_buchberger(gens, order)
    assert buchberger(gens, order) == want
    # a seeded run and a chain of seeded runs reach the same basis
    cut = data.draw(st.integers(0, len(gens)))
    assert buchberger(gens[cut:], order,
                      seed=reference_buchberger(gens[:cut], order)) == want
    assert seeded_chain(gens, order)[-1] == want
    if order == grevlex:
        stage = ideal(gens[0].ring, [])
        for k, g in enumerate(gens, 1):
            stage = stage.plus(g)
            assert list(stage.groebner_basis()) == reference_buchberger(gens[:k], order)


def test_criteria_f_and_m_cases_by_hand():
    # x*y, x*z and y*z share the lcm x*y*z pairwise, and x^2 is coprime to y*z
    ring = PolyRing(GF3, ["x", "y", "z"])
    for text in ("x*y+x; x*z+z+1; y*z+y", "x^2+x; y*z+1; x*y+y; x*z"):
        gens = dsl.parse_polys(ring, text)
        for order in ORDERS:
            assert buchberger(gens, order) == reference_buchberger(gens, order)


def _count_s_polynomials(monkeypatch) -> list:
    calls = []
    original = groebner._s_polynomial
    monkeypatch.setattr(groebner, "_s_polynomial",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def test_one_term_pairs_form_no_s_polynomial(monkeypatch):
    # the S-polynomial of two one-term elements is identically zero
    ring = PolyRing(GF2, ["x", "y", "z"])
    gens = dsl.parse_polys(ring, "x^2*y; x*y^2; x*z; y*z^3")
    calls = _count_s_polynomials(monkeypatch)
    for order in ORDERS:
        assert buchberger(gens, order) == reference_buchberger(gens, order)
        assert seeded_chain(gens, order)[-1] == reference_buchberger(gens, order)
    assert calls == []


@pytest.mark.parametrize("text, binomial_lt", [
    ("y*z+1; x*y; x*z", (0, 1, 1)),            # F: lcm(x*y, x*z) = lcm(y*z, x*z)
    ("y^2*z^2+y*z; x*y^2; x*z", (0, 2, 2)),    # M: lcm(x*y^2, x*z) | lcm(y^2*z^2, x*z)
], ids=["F", "M"])
@pytest.mark.parametrize("field", CRITERIA_FIELDS, ids=CRITERIA_FIELD_IDS)
def test_one_term_pair_covers_a_binomial_pair(text, binomial_lt, field, monkeypatch):
    # appending x*z forms a one-term pair with the second generator, never
    # queued, whose lcm covers the pair of x*z with the binomial
    ring = PolyRing(field, ["x", "y", "z"])
    gens = dsl.parse_polys(ring, text)
    calls = _count_s_polynomials(monkeypatch)
    for order in ORDERS:
        calls.clear()
        assert buchberger(gens, order) == reference_buchberger(gens, order)
        assert calls  # the binomial still pairs with the second generator
        assert {binomial_lt, (1, 0, 1)} not in [{pi[0], pj[0]} for pi, pj, _L, _r in calls]


def test_plus_chain_of_one_term_generators_onto_a_binomial_seed():
    # the shape of a disproof-search stage: a seed with binomials, grown by
    # one monomial at a time
    ring = PolyRing(GF2, ["x", "y", "z"])
    stage = ideal(ring, dsl.parse_polys(ring, "x^2+y*z; y^3+z; x*z^2+y"))
    for text in ("x*y^2", "z^3", "x*y*z", "y^2*z", "x*y", "z^2", "y^2", "x"):
        stage = stage.plus(dsl.parse_poly(ring, text))
        gens = list(stage.generators)
        assert list(stage.groebner_basis()) == buchberger(gens) \
            == reference_buchberger(gens, grevlex)


# ---------------------------------------------------------------------------
# the benchmark's Groebner probes, pinned to their reduced bases

_CYCLIC5 = ("x0+x1+x2+x3+x4; x0*x1+x1*x2+x2*x3+x3*x4+x4*x0;"
            "x0*x1*x2+x1*x2*x3+x2*x3*x4+x3*x4*x0+x4*x0*x1;"
            "x0*x1*x2*x3+x1*x2*x3*x4+x2*x3*x4*x0+x3*x4*x0*x1+x4*x0*x1*x2;"
            "x0*x1*x2*x3*x4-1")
_KATSURA5 = ("u0^2+2*u1^2+2*u2^2+2*u3^2+2*u4^2+2*u5^2-u0;"
             "2*u0*u1+2*u1*u2+2*u2*u3+2*u3*u4+2*u4*u5-u1;"
             "u1^2+2*u0*u2+2*u1*u3+2*u2*u4+2*u3*u5-u2;"
             "2*u0*u3+2*u1*u2+2*u1*u4+2*u2*u5-u3;"
             "u2^2+2*u0*u4+2*u1*u3+2*u1*u5-u4;"
             "u0+2*u1+2*u2+2*u3+2*u4+2*u5-1")


@pytest.mark.parametrize("ring_text, gens, size, digest", [
    ("Q[x0,x1,x2,x3,x4]", _CYCLIC5, 20,
     "57d29d7eb38de49eb3040740284b720c5b13c5d2a8ffc401d0f27502792e3f8d"),
    ("F32003[x0,x1,x2,x3,x4]", _CYCLIC5, 20,
     "233f6b930a144ae379385e3e00defb2472291cfd7b89e930888cc1422b7eab82"),
    ("Q[u0,u1,u2,u3,u4,u5]", _KATSURA5, 22,
     "298632ae9674e04c1548054f0e1470aa5662ef9f66f945b1ffc72880a8671458"),
], ids=["cyclic5-Q", "cyclic5-F32003", "katsura5-Q"])
def test_probe_bases_are_pinned(ring_text, gens, size, digest):
    ring, _ = dsl.parse_ring(ring_text)
    basis = ideal(ring, dsl.parse_polys(ring, gens)).groebner_basis()
    text = "\n".join(dsl.format_poly(g) for g in basis)
    assert len(basis) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest
