"""Lengths against a direct lattice-point oracle, plus J/K modules read off
the reduced bases of J and K, checked against the colon (K : J)."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlc import dsl, groebner, quotient
from qlc.fields import GF2, GF3, QQ, RationalFunctionField
from qlc.groebner import colon, ideal, normal_form
from qlc.linalg import RowSpace
from qlc.poly import PolyRing, mono_divides
from qlc.quasilength import _coordinates, _lower_bound
from qlc.quotient import (NotZeroDimensional, QuotientPresentation,
                          VectorModule, direct_sum, length, quotient_module,
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
        assert length(I) == expected == len(standard_monomials(I))


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
    assert length(ideal(ring, [x ** 2, y ** 3])) == 6
    with pytest.raises(NotZeroDimensional, match=r"no pure power of x leads ideal\(x\*y\)$"):
        length(ideal(ring, [x * y]))
    assert length(ideal(ring, [x, x + 1])) == 0  # unit ideal, zero module
    ring3 = PolyRing(QQ, ["x", "y", "z"])
    a, b, c = ring3.gens()
    assert length(ideal(ring3, [a, b, a ** 3 + b ** 3 + c ** 3])) == 3


def test_presentation_rejects_zero_ring():
    with pytest.raises(ValueError):
        QuotientPresentation.parse("Q[x]/(x;x+1)")


def test_presentation_keeps_a_passed_handle():
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    K = ideal(ring, [x ** 2, y ** 3])
    basis = K.groebner_basis()
    pres = QuotientPresentation(ring, K)
    assert pres.relations is K  # with the basis it has cached
    assert pres.relations.groebner_basis() is basis
    # rebuilt from the nonzero generators otherwise
    with_zero = QuotientPresentation(ring, ideal(ring, [x ** 2, ring.zero()]))
    assert with_zero.relations.generators == (x ** 2,)
    listed = QuotientPresentation(ring, [x ** 2, y ** 3])
    assert listed.relations is not K and listed.relations.key() == K.key()
    other = PolyRing(GF3, ["x", "y"])
    with pytest.raises(ValueError):
        QuotientPresentation(other, K)
    with pytest.raises(ValueError):
        QuotientPresentation(ring, ideal(ring, [x + 1, x]))


def test_presentation_shares_one_handle_per_generator_tuple():
    pres = QuotientPresentation.parse("F2[x,y]/(x^3)")
    x, y = pres.ambient.gens()
    I = pres.ideal([x * y, y ** 2])
    assert pres.ideal((x * y, y ** 2)) is I
    assert pres.ideal(g for g in (x * y, y ** 2)) is I
    assert pres.ideal(ideal(pres.ambient, [x * y, y ** 2])) is I
    basis = I.groebner_basis()
    assert pres.ideal([x * y, y ** 2]).groebner_basis() is basis
    # another presentation of the same ring, or another order of the same
    # generators, gets a handle of its own for the same ideal
    twin = QuotientPresentation.parse("F2[x,y]/(x^3)")
    tx, ty = twin.ambient.gens()
    assert twin.ideal([tx * ty, ty ** 2]) is not I
    assert twin.ideal([tx * ty, ty ** 2]).key() == I.key()
    swapped = pres.ideal([y ** 2, x * y])
    assert swapped is not I and swapped.key() == I.key()
    assert pres.ideal([x * y]) is not I


def test_presentation_nf_and_membership():
    pres = QuotientPresentation.parse("Q[x,y,z]/(x^3+y^3+z^3)")
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    rel = pres.relations
    assert rel.contains_poly(x ** 3 + y ** 3 + z ** 3)
    assert normal_form(z ** 3, rel) == normal_form(-(x ** 3) - y ** 3, rel)
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


def test_quotient_module_runs_buchberger_on_the_relations_only():
    # J = (1) is handed its reduced basis (1): no Buchberger run on it
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    with mock.patch.object(groebner, "buchberger", wraps=groebner.buchberger) as runs:
        M = quotient_module(ideal(ring, [x ** 2, y ** 2]))
    assert M.dim == 4 and M.labels == ["x*y", "x", "y", "1"]
    assert runs.call_count == 1


def test_infinite_length_is_refused_before_any_spin(monkeypatch):
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()

    def no_spin(*args):
        raise AssertionError("an infinite-length module was spun")

    monkeypatch.setattr(quotient, "_times_var", no_spin)
    monkeypatch.setattr(quotient, "normal_form", no_spin)
    for top in (ring.one(), x):  # R/(xy) and (x)/(xy)
        with pytest.raises(ValueError, match="infinite length"):
            vector_module(ideal(ring, [top]), ideal(ring, [x * y]))


def test_finite_length_decided_through_the_colon():
    # R/(x^3, xy) is not zero-dimensional, but (x)/(x^3, xy) is killed by
    # (x^3, xy) : (x) = (x^2, y)
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 3, x * y]))
    assert M.dim == 2 and sorted(M.labels) == ["x", "x^2"]


# -- J/K read off the reduced bases, against the colon ----------------------

_RINGS = [PolyRing(F, ["x", "y"]) for F in (GF2, GF3, QQ)]


@st.composite
def _nested_ideals(draw):
    """A ring over F2, F3 or Q and ideals K inside J of monomials and
    binomials: each K generator is a J generator times a monomial, a
    binomial or a pure power.  Half the time J holds x^a and y^b and K
    their multiples x^(a+c) and y^(b+d), so that R/K is finite."""
    ring = draw(st.sampled_from(_RINGS))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeff = st.sampled_from([1, -1, 2]).map(ring.field.from_int)

    def term_sum(max_terms):
        def build(parts):
            return sum((ring.monomial(e) * ring.constant(c) for e, c in parts),
                       ring.zero())
        return st.lists(st.tuples(exps, coeff), min_size=1, max_size=max_terms).map(build)

    x, y = ring.gens()
    top = [f for f in draw(st.lists(term_sum(2), min_size=1, max_size=2)) if not f.is_zero()]
    powers = st.sampled_from([x ** 3, y ** 3, x ** 2])
    bottom = [g * draw(st.one_of(term_sum(2), powers))
              for g in top for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        a, b, c, d = (draw(st.integers(lo, 3)) for lo in (1, 1, 0, 0))
        top += [x ** a, y ** b]
        bottom += [x ** (a + c), y ** (b + d)]
    return ring, ideal(ring, top), ideal(ring, [f for f in bottom if not f.is_zero()])


def _leads(I):
    return [g.leading()[0] for g in I.groebner_basis()]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_nested_ideals())
def test_vector_module_against_the_colon(case):
    ring, J, K = case
    try:
        length(colon(K, J))
        finite = True
    except NotZeroDimensional:
        finite = False
    spaces = []

    class Recorded(RowSpace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spaces.append(self)

    quotient.RowSpace, original = Recorded, quotient.RowSpace
    try:
        if not finite:
            with pytest.raises(ValueError, match="infinite length"):
                vector_module(J, K)
            return
        M = vector_module(J, K)
    finally:
        quotient.RowSpace = original
    try:
        assert M.dim == length(K) - length(J)
    except NotZeroDimensional:
        pass  # R/K has infinite length: J/K is finite inside it
    # the labels are the monomials of LT(J) outside LT(K), read in a box
    # that holds every such monomial of a finite J/K
    lj, lk = _leads(J), _leads(K)
    box = [max((lt[i] for lt in lj), default=0) + max((lt[i] for lt in lk), default=0) + 1
           for i in range(2)]
    expected = {m for m in itertools.product(*map(range, box))
                if any(mono_divides(a, m) for a in lj)
                and not any(mono_divides(b, m) for b in lk)}
    assert len(M.labels) == len(expected)
    assert set(M.labels) == {dsl._format_mono(ring, m) or "1" for m in expected}
    # every basis row lies in J, is reduced modulo K, and is 1 at its pivot
    # and 0 at every other one
    (space,) = spaces
    for pivot, row in space.rows.items():
        f = ring.from_terms(row)
        assert J.contains_poly(f) and normal_form(f, K) == f
        assert {m: row.get(m) for m in space.rows} == {
            m: ring.field.one if m == pivot else None for m in space.rows}


def test_finite_module_spins_past_degree_64():
    ring = PolyRing(GF2, ["x"])
    M = quotient_module(ideal(ring, [ring.var("x") ** 66]))
    assert M.dim == 66 and "x^65" in M.labels


def test_format_vector():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 3]))
    one, zero = M.field.one, M.field.zero
    assert sorted(M.labels) == ["x", "x^2"]
    assert M.format_vector([one, one]) == " + ".join(M.labels)
    assert M.format_vector([zero, one]) == M.labels[1]
    assert M.format_vector([zero, zero]) == "0"


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
    # R/(x,y)^2 needs one generator; (x,y)/(x,y)^2 needs two.  A pruning
    # denominator of dim M keeps the length ratio at 1, so the count shows.
    Q = quotient_module(ideal(ring, [x ** 2, x * y, y ** 2]))
    assert _lower_bound(Q, _coordinates(Q, ()), Q.dim) == (1, "trivial")
    M = vector_module(ideal(ring, [x, y]),
                      ideal(ring, [x ** 2, x * y, y ** 2]))
    assert _lower_bound(M, _coordinates(M, ()), M.dim) == (2, "min-generators")


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
    with pytest.raises(ValueError, match="do not commute"):
        VectorModule.from_actions(ring, {"x": shift, "y": other})
