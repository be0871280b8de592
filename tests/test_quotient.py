"""Lengths against a direct lattice-point oracle, plus module spins."""

import itertools
import random

import pytest

from qlc import dsl
from qlc.fields import GF2, GF3, QQ, RationalFunctionField
from qlc.groebner import InternalError, ideal
from qlc.poly import PolyRing
from qlc.quotient import (NotZeroDimensional, QuotientPresentation,
                          VectorModule, direct_sum, is_zero_dimensional,
                          length, min_generators, quotient_module,
                          standard_monomials, vector_module)


def count_outside_monomial_ideal(gens_exps, bounds):
    """Lattice points in prod [0, bound_i) divisible by no generator: the
    length of a monomial-ideal quotient, counted directly."""
    total = 0
    for pt in itertools.product(*[range(b) for b in bounds]):
        if not any(all(p >= g for p, g in zip(pt, gexp))
                   for gexp in gens_exps):
            total += 1
    return total


def test_length_monomial_oracle_randomized():
    rng = random.Random(31)
    ring = PolyRing(QQ, ["x", "y", "z"])
    for _ in range(30):
        cap = rng.randrange(1, 5)
        exps = [tuple(rng.randrange(0, cap + 1) for _ in range(3))
                for _ in range(rng.randrange(1, 5))]
        # force zero-dimensionality with pure powers
        exps += [(cap, 0, 0), (0, cap, 0), (0, 0, cap)]
        exps = [e for e in exps if any(e)]
        I = ideal(ring, [ring.monomial(e) for e in exps])
        expected = count_outside_monomial_ideal(exps, (cap, cap, cap))
        assert length(I) == expected


def test_length_examples():
    ring3 = PolyRing(GF3, ["x", "y"])
    x, y = ring3.gens()
    I = ideal(ring3, [x ** 2, x * y, y ** 3])
    assert length(I) == 4
    std = {dsl._format_mono(ring3, m) or "1" for m in standard_monomials(I)}
    assert std == {"1", "x", "y", "y^2"}

    ringq = PolyRing(QQ, ["x", "y"])
    xq, yq = ringq.gens()
    for t in (1, 2, 3):
        assert length(ideal(ringq, [xq ** t, yq ** t])) == t * t

    ring3v = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = ring3v.gens()
    assert length(ideal(ring3v, [x, y, x ** 3 + y ** 3 + z ** 3])) == 3


def test_zero_dimensionality():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    assert is_zero_dimensional(ideal(ring, [x ** 2, y ** 3]))
    assert not is_zero_dimensional(ideal(ring, [x * y]))
    with pytest.raises(NotZeroDimensional):
        length(ideal(ring, [x * y]))
    assert length(ideal(ring, [x, x + 1])) == 0  # unit ideal, zero module
    ring3 = PolyRing(QQ, ["x", "y", "z"])
    a, b, c = ring3.gens()
    assert is_zero_dimensional(ideal(ring3, [a, b, a ** 3 + b ** 3 + c ** 3]))


def test_presentation_rejects_zero_ring():
    with pytest.raises(ValueError):
        QuotientPresentation.parse("Q[x]/(x;x+1)")


def test_presentation_nf_and_membership():
    pres = QuotientPresentation.parse("Q[x,y,z]/(x^3+y^3+z^3)")
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    assert pres.is_zero_element(x ** 3 + y ** 3 + z ** 3)
    assert pres.nf(z ** 3) == pres.nf(-(x ** 3) - y ** 3)
    assert not pres.ideal([x, y]).contains_poly(z ** 2)


def test_vector_module_dvr_shape():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 4]))
    assert M.dim == 3
    assert set(M.labels) == {"x", "x^2", "x^3"}
    # x acts as a nilpotent shift
    A = M.actions["x"]
    idx = {lbl: i for i, lbl in enumerate(M.labels)}
    col_x = [A[i][idx["x"]] for i in range(3)]
    assert col_x[idx["x^2"]] == 1 and sum(col_x) == 1


def test_vector_module_requires_containment():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    with pytest.raises(ValueError):
        vector_module(ideal(ring, [x ** 2]), ideal(ring, [x]))


def test_quotient_module_matches_length():
    rng = random.Random(41)
    ring = PolyRing(GF2, ["x", "y"])
    for _ in range(10):
        cap = rng.randrange(1, 4)
        exps = [tuple(rng.randrange(0, cap + 1) for _ in range(2))
                for _ in range(2)] + [(cap, 0), (0, cap)]
        exps = [e for e in exps if any(e)]
        I = ideal(ring, [ring.monomial(e) for e in exps])
        assert quotient_module(I).dim == length(I)


def test_infinite_length_spin_aborts():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    with pytest.raises(ValueError):
        vector_module(ideal(ring, [ring.one()]), ideal(ring, [x * y]),
                      degree_bound=8)


def test_element_from_poly_and_format():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 3]))
    v = M.element_from_poly(x + x ** 2)
    assert M.format_vector(v) in ("x + x^2", "x^2 + x")
    with pytest.raises(ValueError):
        M.element_from_poly(ring.one())  # 1 is not in (x)/(x^3)
    # modules without a polynomial model refuse with the documented error
    bare = VectorModule.from_actions(ring, M.actions, k_gb=M.k_gb)
    for N in (bare, direct_sum(M, M)):
        with pytest.raises(ValueError, match="no polynomial model"):
            N.element_from_poly(x)


def test_fpt_coefficients_round_trip():
    ring = PolyRing(RationalFunctionField(2), ["x"])
    x = ring.var("x")
    F = ring.field
    t1 = F.add(F.t, F.one)
    M = quotient_module(ideal(ring, [x ** 2]))
    assert M.format_vector([t1, F.one]) == "(t+1)*x + 1"
    M = vector_module(ideal(ring, [ring.one()]),
                      ideal(ring, [dsl.parse_poly(ring, "(t+1)*x^2+t*x")]))
    assert F.format(M.actions["x"][0][0]) == "t/(t+1)"

    for text, bottom in (("F2(t)[x]", "(t+1)*x^2+t*x"),
                         ("F5(t)[x,y]", "x^2-t*y; y^2; x*y"),
                         ("F5(t)[x,y]", "(t+2)*x^2-(t^2+1)*y; x*y; y^2")):
        ring, _ = dsl.parse_ring(text)
        F = ring.field
        M = vector_module(ideal(ring, [ring.one()]),
                          ideal(ring, dsl.parse_polys(ring, bottom)))
        t, one = F.t, F.one
        t1 = F.add(t, one)
        extra = [t, t1, F.mul(t, t1), F.div(t, t1), F.div(t1, t),
                 F.div(F.add(F.mul(t, t), one), F.mul(t1, t1)), F.neg(t1)]
        coeffs = [c for A in M.actions.values() for row in A for c in row] + extra
        for c in coeffs:
            assert dsl.parse_poly(ring, F.format(c)) == ring.constant(c)
        vectors = [list(col) for A in M.actions.values() for col in zip(*A)]
        vectors += [[c] * M.dim for c in extra]
        for v in vectors:
            nonzero = [(c, lbl) for c, lbl in zip(v, M.labels) if c != F.zero]
            terms = M.format_vector(v).split(" + ")
            assert len(terms) == len(nonzero) or not nonzero
            for term, (c, lbl) in zip(terms, nonzero):
                want = ring.constant(c) * dsl.parse_poly(ring, lbl)
                assert dsl.parse_poly(ring, term) == want


def test_direct_sum_blocks():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 3]))
    N = vector_module(ideal(ring, [x]), ideal(ring, [x ** 2]))
    D = direct_sum(M, N)
    assert D.dim == M.dim + N.dim
    A = D.actions["x"]
    for i in range(M.dim):
        for j in range(N.dim):
            assert A[i][M.dim + j] == 0 and A[M.dim + j][i] == 0


def test_min_generators_nakayama():
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    # R/(x,y)^2 needs one generator; (x,y)/(x,y)^2 needs two
    Q = quotient_module(ideal(ring, [x ** 2, x * y, y ** 2]))
    assert min_generators(Q) == 1
    M = vector_module(ideal(ring, [x, y]),
                      ideal(ring, [x ** 2, x * y, y ** 2]))
    assert min_generators(M) == 2


def test_from_actions_checks_shape_and_commutation():
    ring = PolyRing(GF2, ["x", "y"])
    shift = [[0, 0], [1, 0]]
    ident = [[1, 0], [0, 1]]
    M = VectorModule.from_actions(ring, {"x": shift, "y": ident})
    assert M.dim == 2 and M.labels == ["e0", "e1"]
    with pytest.raises(ValueError):
        VectorModule.from_actions(ring, {"x": shift})
    with pytest.raises(ValueError):
        VectorModule.from_actions(ring, {"x": shift, "y": [[0, 1], [0, 0], [0, 0]]})
    other = [[0, 1], [0, 0]]
    with pytest.raises(InternalError):
        VectorModule.from_actions(ring, {"x": shift, "y": other})
