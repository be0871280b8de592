"""Randomized algebraic laws, 200 cases each, derandomized for CI.

Each suite checks an identity that holds for structural reasons, so any
counterexample is an implementation bug, never noise.  Sizes are kept small
enough that the whole file stays in the tens of seconds.
"""

import itertools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlc import dsl
from qlc.closure import lc_class_vanishing, tight_membership_table
from qlc.closure import test_element_search as element_search
from qlc.fields import GF2, GF3, QQ
from qlc.groebner import (buchberger, bracket_power, colon, ideal,
                          ideal_compare, ideal_power, ideal_sum, intersect,
                          normal_form)
from qlc.linalg import RowSpace
from qlc.poly import PolyRing, frobenius_power, grevlex
from qlc.quasilength import (frobenius_transport, quasilength,
                             staircase_filtration, validate_filtration)
from qlc.quotient import (QuotientPresentation, VectorModule, length,
                          quotient_module)

SUITE = settings(max_examples=200, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])

RQ = PolyRing(QQ, ["x", "y"])
R2 = PolyRing(GF2, ["x", "y"])
R3 = PolyRing(GF3, ["x", "y"])


def poly_strategy(ring, coeff_pool, max_exp=2, max_terms=3):
    def build(terms):
        f = ring.zero()
        for exps, c in terms:
            f = f + ring.monomial(exps) * c
        return f
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * ring.nvars),
        st.sampled_from(coeff_pool))
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def monomial_strategy(ring, max_exp=3):
    return st.tuples(*[st.integers(0, max_exp)] * ring.nvars).map(ring.monomial)


qq_polys = poly_strategy(RQ, (-2, -1, 1, 2))
f2_polys = poly_strategy(R2, (1,))


# -- 1. Groebner bases are canonical and idempotent -------------------------

@SUITE
@given(st.lists(qq_polys, min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_gb_canonical_and_idempotent(gens, rnd):
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    basis = buchberger(gens, grevlex)
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert buchberger(shuffled, grevlex) == basis
    # rescaling a generator changes nothing over the rationals
    scaled = [g * 3 for g in gens]
    assert buchberger(scaled, grevlex) == basis
    # a reduced basis is its own basis
    assert buchberger(list(basis), grevlex) == basis


# -- 2. membership agrees with normal-form vanishing ------------------------

@SUITE
@given(st.lists(qq_polys, min_size=1, max_size=2),
       st.lists(qq_polys, min_size=1, max_size=2), qq_polys)
def test_member_iff_normal_form_zero(gens, mults, probe):
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    I = ideal(RQ, gens)
    combo = RQ.zero()
    for g, a in zip(gens, mults):
        combo = combo + a * g
    assert I.contains_poly(combo)
    assert normal_form(combo, I).is_zero()
    assert I.contains_poly(probe) == normal_form(probe, I).is_zero()


# -- 3. colon and intersection laws ------------------------------------------

@SUITE
@given(st.lists(monomial_strategy(R2), min_size=1, max_size=3),
       st.lists(monomial_strategy(R2), min_size=1, max_size=3),
       monomial_strategy(R2, 2), monomial_strategy(R2, 2))
def test_colon_and_intersection_laws(gi, gj, f, g):
    assume(not f.is_zero() and not g.is_zero())
    I, J = ideal(R2, gi), ideal(R2, gj)
    meet = intersect(I, J)
    assert I.contains_ideal(meet) and J.contains_ideal(meet)
    product = ideal(R2, [a * b for a in gi for b in gj])
    assert meet.contains_ideal(product)
    Q = colon(I, ideal(R2, [f]))
    assert Q.contains_ideal(I)
    assert I.contains_ideal(ideal(R2, [h * f for h in Q.generators]))
    twice = colon(colon(I, ideal(R2, [f])), ideal(R2, [g]))
    at_once = colon(I, ideal(R2, [f * g]))
    assert ideal_compare(twice, at_once) == "equal"


# -- 4. length is inclusion-exclusive over ideal lattice operations ---------

@SUITE
@given(st.lists(monomial_strategy(R2), max_size=2),
       st.lists(monomial_strategy(R2), max_size=2),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_length_inclusion_exclusion(gi, gj, a, b, c, d):
    x, y = R2.gens()
    I = ideal(R2, gi + [x ** a, y ** b])
    J = ideal(R2, gj + [x ** c, y ** d])
    lhs = length(intersect(I, J)) + length(ideal_sum(I, J))
    assert lhs == length(I) + length(J)


# -- 5. bracket powers scale monomial colength by p^d ------------------------

@SUITE
@given(st.booleans(), st.lists(monomial_strategy(R2), max_size=2),
       st.integers(1, 3), st.integers(1, 3))
def test_bracket_power_scales_length(use_f3, extra, a, b):
    ring = R3 if use_f3 else R2
    p = ring.field.char
    x, y = ring.gens()
    gens = [x ** a, y ** b] + [ring.monomial(m.leading(grevlex)[0])
                               for m in extra if not m.is_zero()]
    I = ideal(ring, gens)
    assert length(bracket_power(I, p)) == p ** 2 * length(I)


# -- 6. reported bounds sandwich the exact value -----------------------------

@SUITE
@given(st.integers(1, 3), st.integers(1, 3),
       st.lists(monomial_strategy(R2, 2), max_size=1),
       st.integers(1, 2), st.integers(1, 2))
def test_bounds_sandwich_exact(a, b, extra, c, d):
    x, y = R2.gens()
    K = ideal(R2, [x ** a, y ** b] + [m for m in extra if not m.is_zero()])
    assume(not K.is_unit_ideal())
    M = quotient_module(K)
    assume(M.dim >= 1)
    I = ideal(R2, [x ** c, y ** d])
    bounds = quasilength(M, I)
    assert bounds.exact is not None
    assert bounds.lower <= bounds.exact <= bounds.upper
    assert len(bounds.certificate) == bounds.upper
    assert bounds.certificate.validated.ok


# -- 7. Frobenius transport preserves validity -------------------------------

@SUITE
@given(st.booleans(), st.sampled_from(["xy", "uy", "xu"]),
       st.integers(1, 2), st.integers(1, 2))
def test_transport_preserves_validity(use_f3, which, t, e):
    pres = QuotientPresentation.parse("F3[x,y]" if use_f3 else "F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    params = {"xy": (x, y), "uy": (x + y, y), "xu": (x, x + y)}[which]
    cert = staircase_filtration(pres, params, t)
    assert cert.validated.ok
    moved = frobenius_transport(cert, e)
    assert validate_filtration(moved).ok
    q = pres.ambient.field.char ** e
    assert moved.generators == tuple(frobenius_power(g, q)
                                     for g in cert.generators)
    assert moved.killing == tuple(frobenius_power(f, q) for f in cert.killing)


# -- 8. parameter-product vanishing is monotone in the exponent --------------

@SUITE
@given(poly_strategy(R2, (1,), max_exp=3, max_terms=2))
def test_vanishing_monotone(rel):
    assume(not rel.is_zero() and not rel.is_constant())
    pres = QuotientPresentation(R2, [rel])
    x, y = R2.gens()
    try:
        table = lc_class_vanishing(pres, (x, y), 3)
    except ValueError:
        assume(False)
    flags = [r.vanished for r in table.rows]
    assert flags == sorted(flags)  # False... then True..., never back


# -- 9. filtration length is subadditive over submodule and quotient ---------


def _apply_dense(F, A, vec):
    n = len(vec)
    out = [F.zero] * n
    for j, c in enumerate(vec):
        if c == F.zero:
            continue
        for i in range(n):
            a = A[i][j]
            if a != F.zero:
                out[i] = F.add(out[i], F.mul(a, c))
    return out


def _sparse(F, dense):
    return {i: c for i, c in enumerate(dense) if c != F.zero}


def _spin_subspace(M, seed_vecs):
    """Row space of the smallest submodule containing the seeds."""
    F = M.field
    space = RowSpace(F)
    work = [_sparse(F, v) for v in seed_vecs]
    while work:
        vec = work.pop()
        if space.insert(vec) is None:
            continue
        dense = [vec.get(i, F.zero) for i in range(M.dim)]
        for v in M.ring.variables:
            work.append(_sparse(F, _apply_dense(F, M.actions[v], dense)))
    return space


def _restrict_and_quotient(M, space):
    """Action matrices of the submodule spanned by `space` and of M/space."""
    F = M.field
    pivots = sorted(space.rows)
    others = [i for i in range(M.dim) if i not in space.rows]
    sub = {}
    quo = {}
    for v in M.ring.variables:
        A = M.actions[v]
        # submodule: rows are reduced, so coordinates read off at the pivots
        cols = []
        for p in pivots:
            dense = [space.rows[p].get(i, F.zero) for i in range(M.dim)]
            image = _apply_dense(F, A, dense)
            resid = space.reduce(_sparse(F, image))
            assert not resid  # invariance is the construction's contract
            cols.append([image[q] for q in pivots])
        sub[v] = [[cols[j][i] for j in range(len(pivots))]
                  for i in range(len(pivots))]
        # quotient: push each leftover basis vector through and reduce
        qcols = []
        for o in others:
            image = [F.zero] * M.dim
            for i in range(M.dim):
                if A[i][o] != F.zero:
                    image[i] = A[i][o]
            resid = space.reduce(_sparse(F, image))
            qcols.append([resid.get(q, F.zero) for q in others])
        quo[v] = [[qcols[j][i] for j in range(len(others))]
                  for i in range(len(others))]
    return sub, quo


@SUITE
@given(st.integers(1, 3), st.integers(1, 4),
       st.lists(st.booleans(), min_size=12, max_size=12),
       st.integers(1, 2), st.integers(1, 2))
def test_subadditivity(a, b, seed_bits, c, d):
    x, y = R2.gens()
    K = ideal(R2, [x ** a, y ** b])
    M = quotient_module(K)
    assume(1 <= M.dim <= 10)
    seed = [GF2.one if bit else GF2.zero for bit in seed_bits[:M.dim]]
    space = _spin_subspace(M, [seed])
    sub_actions, quo_actions = _restrict_and_quotient(M, space)
    L = VectorModule.from_actions(R2, sub_actions)
    Q = VectorModule.from_actions(R2, quo_actions)
    assert L.dim + Q.dim == M.dim
    I = ideal(R2, [x ** c, y ** d])
    whole = quasilength(M, I).exact
    left = quasilength(L, I).exact if L.dim else 0
    right = quasilength(Q, I).exact if Q.dim else 0
    assert whole is not None and left is not None and right is not None
    assert whole <= left + right


# -- 10. the char-p tables agree with plain powering -------------------------

# (ring, coefficient pool, exponents e with p^e <= 9)
CHAR_P = []
for _spec, _coeffs, _es in (("F2[x,y]", "1", (0, 1, 2, 3)),
                            ("F3[x,y]", "1;2", (0, 1, 2)),
                            ("F3(t)[x,y]", "1;2;t;t+1", (0, 1, 2))):
    _ring, _ = dsl.parse_ring(_spec)
    CHAR_P.append((_ring, tuple(dsl.parse_polys(_ring, _coeffs)), _es))


def _powered_rows(pres, u, gens, c, es):
    p = pres.ambient.field.char
    return [(e, p ** e, pres.ideal([g ** (p ** e) for g in gens])
             .contains_poly(c * u ** (p ** e))) for e in sorted(set(es))]


def _powered_search(pres, u, gens, es, degree_bound):
    p = pres.ambient.field.char
    qs = [p ** e for e in sorted(set(es))]
    brackets = [pres.ideal([g ** q for g in gens]) for q in qs]
    ring = pres.ambient
    for deg in range(degree_bound + 1):
        for combo in itertools.combinations_with_replacement(range(ring.nvars), deg):
            c = ring.monomial(tuple(combo.count(i) for i in range(ring.nvars)))
            if pres.relations.contains_poly(c) or any(b.contains_poly(c) for b in brackets):
                continue
            if all(b.contains_poly(c * u ** q) for b, q in zip(brackets, qs)):
                return c
    return None


@SUITE
@given(st.data())
def test_char_p_tables_match_plain_powering(data):
    # u^q and the bracket (g^q) are formed term by term; the table and the
    # multiplier search must read exactly as they do with u ** q and g ** q
    ring, coeffs, es_range = data.draw(st.sampled_from(CHAR_P))
    polys = poly_strategy(ring, coeffs, max_exp=2, max_terms=3)
    u = data.draw(polys)
    gens = data.draw(st.lists(polys, min_size=1, max_size=2))
    rels = data.draw(st.lists(poly_strategy(ring, coeffs, max_exp=3, max_terms=2),
                              max_size=1))
    es = data.draw(st.lists(st.sampled_from(es_range), min_size=2, max_size=3))
    c = data.draw(monomial_strategy(ring, max_exp=1))
    try:
        pres = QuotientPresentation(ring, rels)
    except ValueError:
        assume(False)
    assume(not pres.relations.contains_poly(c))
    table = tight_membership_table(pres, u, iter(gens), c, es)
    assert [(r.e, r.q, r.member) for r in table.rows] == \
        _powered_rows(pres, u, gens, c, es)
    assert element_search(pres, u, iter(gens), es, degree_bound=2) == \
        _powered_search(pres, u, gens, es, 2)
