"""Forcing algebras, membership tables, and the bounded q-sequence searches.

The positive membership rows on the cubic hypersurface are confirmed by a
pure-arithmetic oracle: rewrite c*u^q as a binomial expansion and check every
term is divisible by x^q or y^q, which needs only integer inequalities and
never touches a basis computation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlc import closure, dsl, groebner
from qlc.closure import (generic_forcing_algebra, lc_class_vanishing,
                         qseq_verdict_charp, short_filtration_search,
                         tight_membership_table)
from qlc.closure import test_element_search as element_search
from qlc.config import JobConfig, budget
from qlc.groebner import IdealHandle
from qlc.poly import grevlex, packing_width
from qlc.quasilength import validate_filtration
from qlc.quotient import QuotientPresentation

FERMAT = "F7[x,y,z]/(x^3 + y^3 + z^3)"


def binomial_cover(a: int, b: int, q: int) -> bool:
    """True when x^a y^b z^(2q) * z or the like expands inside (x^q, y^q).

    In F_p[x,y,z]/(x^3+y^3+z^3) a power z^(3k) equals the expansion of
    (-(x^3+y^3))^k, so x^a y^b z^(3k+r) is a signed sum of terms
    x^(3i+a) y^(3(k-i)+b) z^r.  Membership in (x^q, y^q) holds outright if
    every index i has 3i+a >= q or 3(k-i)+b >= q; coefficients are
    irrelevant (terms may only vanish, never appear).
    """
    total = 2 * q  # z-degree of u^q for u = z^2, before the multiplier
    return all(3 * i + a >= q or 3 * (total // 3 - i) + b >= q
               for i in range(total // 3 + 1))


def multiplier_cover(a: int, b: int, c0: int, q: int) -> bool:
    """Cover check for c = x^a y^b z^c0 against u = z^2 and (x^q, y^q)."""
    zdeg = 2 * q + c0
    k, r = divmod(zdeg, 3)
    del r  # the residual z^r factor cannot help or hurt divisibility
    return all(3 * i + a >= q or 3 * (k - i) + b >= q for i in range(k + 1))


def test_cubic_membership_rows_match_arithmetic_oracle():
    pres = QuotientPresentation.parse(FERMAT)
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    # the oracle proves the z-multiplier rows outright: 2q+1 is divisible by
    # 3 and the expansion splits cleanly at both exponents
    for e in (1, 2):
        q = 7 ** e
        assert (2 * q + 1) % 3 == 0
        assert multiplier_cover(0, 0, 1, q)
    table = tight_membership_table(pres, z ** 2, (x, y), z, (1, 2))
    assert [(r.e, r.q, r.member) for r in table.rows] == \
        [(1, 7, True), (2, 49, True)]
    assert table.all_pass()
    assert table.as_dicts()[0] == {"e": 1, "q": 7, "member": True}
    # the oracle also certifies x as a multiplier, which the table confirms
    for e in (1, 2):
        assert multiplier_cover(1, 0, 0, 7 ** e)
    assert tight_membership_table(pres, z ** 2, (x, y), x, (1, 2)).all_pass()
    # without any multiplier the cover argument breaks at e = 1 (the middle
    # term x^6 y^6 z^2 of z^14 is divisible by neither x^7 nor y^7) and the
    # computed row is indeed negative
    assert not multiplier_cover(0, 0, 0, 7)
    bare = tight_membership_table(pres, z ** 2, (x, y), pres.ambient.one(), (1,))
    assert [r.member for r in bare.rows] == [False]


def _count_buchberger(monkeypatch) -> list:
    """Wrap groebner.buchberger; the list it returns collects the generator
    tuple of every call."""
    calls = []
    buchberger = groebner.buchberger

    def counted(gens, *args, **kwargs):
        calls.append(tuple(gens))
        return buchberger(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    return calls


def test_multiplier_search_at_degree_one(monkeypatch):
    pres = QuotientPresentation.parse(FERMAT)
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    brackets = [(x ** q, y ** q) + pres.relations.generators for q in (7, 49)]
    calls = _count_buchberger(monkeypatch)
    found = element_search(pres, z ** 2, (x, y), (1, 2), degree_bound=1)
    assert found is not None
    assert dsl.format_poly(found) == "x"  # first passing monomial in scan order
    # the returned multiplier really passes its own table, which shares the
    # search's bracket handles: each bracket basis is computed once (the
    # brenner_monsky flow)
    assert tight_membership_table(pres, z ** 2, (x, y), found, (1, 2)).all_pass()
    monkeypatch.undo()
    assert [calls.count(b) for b in brackets] == [1, 1]


def test_brenner_monsky_q8_row_within_budget():
    # the e=3 row of the brenner_monsky example: x * (x^3 y^3)^8 lies in
    # (x^32, y^32, z^32) plus the quartic relation over F2(t)
    pres = QuotientPresentation.parse(
        "F2(t)[x,y,z]/(z^4+x*y*z^2+x^3*z+y^3*z+t*x^2*y^2)")
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    with budget(10):
        table = tight_membership_table(pres, x ** 3 * y ** 3,
                                       (x ** 4, y ** 4, z ** 4), x, (3,))
    assert [(r.e, r.q, r.member) for r in table.rows] == [(3, 8, True)]


def test_membership_table_reads_generators_from_an_iterator():
    # the generators are read once, into one ideal, so a generator
    # expression gives every row the bracket a list gives
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    one = pres.ambient.one()
    listed = tight_membership_table(pres, x * y, [x, y], one, (1, 2))
    streamed = tight_membership_table(pres, x * y, (g for g in (x, y)), one, (1, 2))
    assert [(r.e, r.q, r.member) for r in listed.rows] == [(1, 2, True), (2, 4, True)]
    assert streamed.rows == listed.rows


def test_membership_table_input_checks():
    pres = QuotientPresentation.parse(FERMAT)
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    with pytest.raises(ValueError, match="vanishes"):
        tight_membership_table(pres, z ** 2, (x, y), x ** 3 + y ** 3 + z ** 3, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        tight_membership_table(pres, z ** 2, (x, y), z, (-1, 1))
    pres0 = QuotientPresentation.parse("Q[x,y]")
    xx, yy = pres0.ambient.var("x"), pres0.ambient.var("y")
    with pytest.raises(ValueError, match="characteristic"):
        tight_membership_table(pres0, xx, (yy,), xx, (1,))
    with pytest.raises(ValueError, match="characteristic"):
        element_search(pres0, xx, (yy,), (1,))
    # a negative degree bound used to try the multiplier 1 alone
    with pytest.raises(ValueError, match="degree_bound"):
        element_search(pres, z ** 2, (x, y), (1,), degree_bound=-1)


def test_forcing_algebra_shape():
    base = QuotientPresentation.parse("F2[x,y]")
    x, y = base.ambient.var("x"), base.ambient.var("y")
    fa = generic_forcing_algebra(base, (x ** 2, y ** 2), x * y)
    assert fa.z_names == ("Z1", "Z2")
    S = fa.presentation
    assert S.ambient.variables == ("x", "y", "Z1", "Z2")
    z1, z2 = S.ambient.var("Z1"), S.ambient.var("Z2")
    # the defining relation holds in the quotient and u joins the ideal
    assert S.relations.contains_poly(fa.element - z1 * fa.generators[0]
                                     - z2 * fa.generators[1])
    assert S.ideal(list(fa.generators)).contains_poly(fa.element)
    # while in the base ring it is an honest non-member
    assert not base.ideal([x ** 2, y ** 2]).contains_poly(x * y)


def test_forcing_variable_clash_renames_with_warning():
    base = QuotientPresentation.parse("F2[x,Z1]")
    x, z1 = base.ambient.var("x"), base.ambient.var("Z1")
    with pytest.warns(UserWarning, match="renamed"):
        fa = generic_forcing_algebra(base, (x ** 2,), z1 * x)
    assert fa.z_names == ("Z1_",)
    with pytest.raises(ValueError):
        generic_forcing_algebra(base, (), x)


def test_forcing_prefix_must_make_variable_names():
    # a fresh name the ring syntax cannot read back ("1", "11", "Z-1") is
    # refused; a name that only needs the clash suffix is not
    base = QuotientPresentation.parse("F2[x,y]")
    x = base.ambient.var("x")
    for prefix in ("", "1", "Z-", " Z"):
        with pytest.raises(ValueError, match="prefix"):
            generic_forcing_algebra(base, (x,), x, prefix=prefix)
    for prefix in ("_", "z0", "x"):
        fa = generic_forcing_algebra(base, (x,), x, prefix=prefix)
        assert dsl.parse_ring(fa.describe())[0] == fa.presentation.ambient


def test_qseq_with_one_exponent_names_both_causes():
    # x, y is a system of parameters of F2[x,y], but with e = 1 alone the
    # multiplier x^2 passes q = 2 while the 3-step disproof chain exists
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    for e in (0, 1):
        with pytest.raises(ValueError, match="too few listed exponents"):
            qseq_verdict_charp(pres, (x, y), x * y, t=2, e_list=(e,))
    assert qseq_verdict_charp(pres, (x, y), x * y, t=2).verdict == "refuted"


def test_degenerate_multipliers_are_filtered():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    gens = (x ** 2, y ** 2)
    # x^4 passes every membership row for free: it already lies in the
    # e = 1 bracket power (x^4, y^4), so it certifies nothing
    for e in (1, 2):
        q = 2 ** e
        bracket = pres.ideal([g ** q for g in gens])
        assert bracket.contains_poly(x ** 4 * (x * y) ** q)
    assert pres.ideal([g ** 2 for g in gens]).contains_poly(x ** 4)
    assert element_search(pres, x * y, gens, (1, 2), degree_bound=4) is None
    # in F2[x,y]/(x*y) the multiples of x*y are zero, so they pass the row
    # (x^6, y^6) + (x*y) for free; the search skips them and finds x^4 after
    pres = QuotientPresentation.parse("F2[x,y]/(x*y)")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    bracket = pres.ideal([x ** 6, y ** 6])
    assert all(bracket.contains_poly(c) for c in (x * y, x ** 2 * y, x * y ** 2))
    assert element_search(pres, x + y, (x ** 3, y ** 3), (1,), degree_bound=3) is None
    assert element_search(pres, x + y, (x ** 3, y ** 3), (1,), degree_bound=4) == x ** 4


def test_vanishing_table_polynomial_ring_all_false():
    pres = QuotientPresentation.parse("Q[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    table = lc_class_vanishing(pres, xs, 3)
    assert [r.vanished for r in table.rows] == [False, False, False]
    with pytest.raises(ValueError):
        lc_class_vanishing(pres, (), 2)
    for k_max in (0, -1):  # these used to give an empty table, passing vacuously
        with pytest.raises(ValueError, match="k_max"):
            lc_class_vanishing(pres, xs, k_max)


def test_vanishing_table_flips_after_forced_relation():
    pres = QuotientPresentation.parse(
        "Q[x1,x2,x3,z1,z2,z3]/"
        "(x1^2*x2^2*x3^2 + z1*x1^3 + z2*x2^3 + z3*x3^3)")
    xs = tuple(pres.ambient.var(f"x{i}") for i in (1, 2, 3))
    table = lc_class_vanishing(pres, xs, 3)
    got = [(r.k, r.vanished) for r in table.rows]
    assert got == [(1, False), (2, True), (3, True)]


def test_short_search_finds_three_step_chain():
    base = QuotientPresentation.parse("F2[x,y]")
    x, y = base.ambient.var("x"), base.ambient.var("y")
    fa = generic_forcing_algebra(base, (x ** 2, y ** 2), x * y)
    S = fa.presentation
    xs = (S.ambient.var("x"), S.ambient.var("y"))
    res = short_filtration_search(S, xs, 2)
    assert res.certificate is not None and res.complete
    assert len(res.certificate) == 3 and res.target_count == 4
    assert validate_filtration(res.certificate).ok
    # the walk itself is pinned: candidate order and dead-set pruning
    assert res.nodes == 77
    assert [dsl.format_poly(g) for g in res.certificate.generators] == ["x", "y", "1"]


def test_short_search_negative_control():
    # without the forcing relation no chain beats the staircase count
    pres = QuotientPresentation.parse("F2[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    res = short_filtration_search(pres, xs, 2)
    assert res.certificate is None and res.complete
    assert res.nodes == 6
    # at t=3 the dead set prunes the walk (144 nodes without it)
    res = short_filtration_search(pres, xs, 3)
    assert res.certificate is None and res.complete
    assert res.nodes == 64
    with pytest.raises(ValueError):
        short_filtration_search(pres, xs, 0)


def test_short_search_exhausts_on_forced_fermat_cubic():
    base = QuotientPresentation.parse("F2[x,y,z]/(x^3 + y^3 + z^3)")
    x, y, z = (base.ambient.var(n) for n in "xyz")
    S = generic_forcing_algebra(base, (x ** 2, y ** 2), z ** 2).presentation
    res = short_filtration_search(S, (S.ambient.var("x"), S.ambient.var("y")), 2)
    assert res.certificate is None and res.complete
    assert res.nodes == 180


def test_short_search_screens_the_pool_against_the_base_ideal(monkeypatch):
    # a candidate inside relations + (x^t) lies in every stage, so the pool
    # drops it once; the walk reads its candidates from the pool of the
    # stages it is handed, and none of them lies inside
    base = QuotientPresentation.parse("F2[x,y,z]/(x^3 + y^3 + z^3)")
    x, y, z = (base.ambient.var(n) for n in "xyz")
    S = generic_forcing_algebra(base, (x ** 2, y ** 2), z ** 2).presentation
    xs = (S.ambient.var("x"), S.ambient.var("y"))
    inside = IdealHandle(S.ambient, [g ** 2 for g in xs] + list(S.relations.generators))
    deepen = closure._deepen
    walked = []

    def observed(stages, *args):
        walked.append(stages)
        return deepen(stages, *args)

    monkeypatch.setattr(closure, "_deepen", observed)
    res = short_filtration_search(S, xs, 2)
    assert res.certificate is None and res.complete
    assert res.nodes == 180
    (stages,) = walked
    pool = [stages.member(i) for i in range(len(stages.pool))]
    assert pool and not any(inside.contains_poly(c) for c in pool)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gens=st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=4),
       bound=st.integers(0, 7))
def test_standard_monomials_are_the_screened_pool(gens, bound):
    # over a monomial ideal the walk lists exactly the monomials the screen
    # keeps, in _monomials_by_degree's order
    ring = dsl.parse_ring("F2[x,y,z]")[0]
    base = IdealHandle(ring, [ring.monomial(e) for e in gens])
    lts = [m for g in base.groebner_basis() for m in g.terms]
    packing = ring.packing(grevlex, packing_width(max([bound, *map(max, lts)])))
    keys = [packing.pack(m) - packing.guards for m in lts]
    screened = [m for m in closure._monomials_by_degree(ring, bound)
                if not m.is_constant() and not base.contains_poly(m)]
    listed = closure._standard_monomials(packing, keys, bound)
    assert [ring.monomial(packing.unpack(m)) for m in listed] == screened


def test_a_monomial_base_lists_its_pool_without_normal_forms(monkeypatch):
    # the forced Fermat cubic at t = 3 has a monomial base: the pool costs no
    # normal form, and the walk and its node count stay as they were
    base = QuotientPresentation.parse("F2[x,y,z]/(x^3 + y^3 + z^3)")
    x, y, z = (base.ambient.var(n) for n in "xyz")
    S = generic_forcing_algebra(base, (x ** 3, y ** 3), z ** 2).presentation
    xs = (S.ambient.var("x"), S.ambient.var("y"))
    assert all(len(g.terms) == 1 for g in S.ideal([g ** 3 for g in xs]).groebner_basis())
    monkeypatch.setattr(closure, "_monomials_by_degree", None)
    res = short_filtration_search(S, xs, 3, config=JobConfig(disproof_node_budget=300))
    assert res.nodes == 301 and res.complete is False


def _stage_polys(stages, stage) -> set:
    """The minimal generators of a packed stage, as polynomials."""
    return {stages.ring.monomial(stages.packing.unpack(k + stages.guards)) for k in stage}


def test_plus_matches_a_fresh_basis_along_the_t3_walk(monkeypatch):
    # every stage the capped t=3 search grows has the minimal generators of
    # the reduced basis a fresh Buchberger run on its generators (relations,
    # parameter powers and the chain so far) gives
    base = QuotientPresentation.parse("F2[x,y,z]/(x^3 + y^3 + z^3)")
    x, y, z = (base.ambient.var(n) for n in "xyz")
    S = generic_forcing_algebra(base, (x ** 3, y ** 3), z ** 2).presentation
    xs = (S.ambient.var("x"), S.ambient.var("y"))
    root_gens = [g ** 3 for g in xs] + list(S.relations.generators)
    grow = closure._MonomialStages.grow
    gens_of: dict = {}
    stages = []

    def checked(self, stage, c):
        grown = grow(self, stage, c)
        if stage == self.root:
            assert _stage_polys(self, stage) == set(IdealHandle(S.ambient, root_gens).key())
        gens = gens_of.get(stage, root_gens) + [S.ambient.monomial(self.packing.unpack(c))]
        fresh = IdealHandle(S.ambient, gens).key()
        assert _stage_polys(self, grown) == set(fresh) and len(grown) == len(fresh)
        gens_of.setdefault(grown, gens)
        stages.append(grown)
        return grown

    monkeypatch.setattr(closure._MonomialStages, "grow", checked)
    res = short_filtration_search(S, xs, 3, config=JobConfig(disproof_node_budget=300))
    assert res.nodes == 301 and res.complete is False
    assert res.certificate is None
    assert len(stages) == 295   # one per node but the six deepening roots


_MONOMIALS = st.tuples(*[st.integers(0, 4)] * 3)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(field=st.sampled_from(["F2", "F3", "Q"]),
       gens=st.lists(_MONOMIALS, min_size=1, max_size=4),
       f=st.dictionaries(st.tuples(*[st.sampled_from((0, 1, 2, 3, 5, 200))] * 3),
                         st.integers(1, 2), min_size=1, max_size=4),
       cs=st.lists(_MONOMIALS, min_size=1, max_size=3))
def test_packed_stages_agree_with_the_ideal_handle(field, gens, f, cs):
    # membership of a polynomial with several terms, some with an exponent
    # past the packing's 8-bit slots, and the growth by a monomial, against
    # contains_poly and plus on the same monomial ideal
    ring = dsl.parse_ring(f"{field}[x,y,z]")[0]
    handle = IdealHandle(ring, [ring.monomial(e) for e in gens])
    stages = closure._MonomialStages(handle, tuple(map(ring.var, "xyz")), 2)
    poly = sum((ring.from_int(k) * ring.monomial(e) for e, k in f.items()), ring.zero())
    stage = stages.root
    assert _stage_polys(stages, stage) == set(handle.key())
    for e in cs:
        assert stages.holds(stage, stages.prepare([poly])) == handle.contains_poly(poly)
        c = stages.packing.pack(e)
        inside = handle.contains_poly(ring.monomial(e))
        assert closure._divisible(c, stage, stages.guards) == inside
        if not inside:
            handle = handle.plus(ring.monomial(e))
            stage = stages.grow(stage, c)
            assert _stage_polys(stages, stage) == set(handle.key())
            assert len(stage) == len(handle.key())
    assert stages.holds(stage, stages.prepare([poly])) == handle.contains_poly(poly)


def _forced(ring_text: str, gens, u: str):
    base = QuotientPresentation.parse(ring_text)
    amb = base.ambient
    S = generic_forcing_algebra(base, [dsl.parse_poly(amb, g) for g in gens],
                                dsl.parse_poly(amb, u)).presentation
    return S, (S.ambient.var("x"), S.ambient.var("y"))


@pytest.mark.parametrize("ring_text, params, u, t, nodes, chain", [
    ("F2[x,y]", "x;y", "x*y", 2, 77, ["x", "y", "1"]),
    ("F2[x,y]", "x;y", "x*y", 3, 18557, ["x^2", "x", "y^2", "y", "1"]),
    ("F2[x,y,z]/(x^3 + y^3 + z^3)", "x;y", "z^2", 2, 180, None),
    ("F2[x,y]/(x^2)", "x;x+y", None, 4, 41,
     ["x*y^3", "x*y^2", "x*y", "x", "y^3", "y^2", "y", "1"]),
    ("F3[x,y,z]/(x^2, z^2)", "x+z;y", None, 3, 94, None),
], ids=["xy-t2", "xy-t3", "fermat-t2", "two-term-parameter", "two-term-parameter-f3"])
def test_both_stage_kinds_walk_a_monomial_base_alike(ring_text, params, u, t, nodes, chain):
    # the one deepening walk, handed IdealHandle stages and packed stages of
    # the same monomial base, visits the same nodes and finds the same chain;
    # a parameter with two terms is tested term by term on packed stages
    if u is None:
        S = QuotientPresentation.parse(ring_text)
        xs = tuple(dsl.parse_polys(S.ambient, params))
    else:
        S, xs = _forced(ring_text, [f"x^{t}", f"y^{t}"], u)
    base = S.ideal([g ** t for g in xs])
    assert all(len(g.terms) == 1 for g in base.groebner_basis())
    walks = []
    for kind in (closure._IdealStages, closure._MonomialStages):
        stages = kind(base, xs, 2 * t * len(xs))
        found, count, out_of_budget = closure._deepen(stages, xs, t ** len(xs) - 1, 200000)
        if found is not None:
            found = [dsl.format_poly(stages.member(i)) for i in found] + ["1"]
        walks.append((found, count, out_of_budget))
    assert walks[0] == walks[1] == (chain, nodes, False)


@pytest.mark.parametrize("t, nodes, chain", [(2, 3, ["x", "1"]), (3, 5, ["x^2", "x", "1"])])
def test_a_base_with_a_tail_walks_ideal_handle_stages(t, nodes, chain):
    # relations + (x^t) for u = x + y keeps x + y: the general path, one
    # normal form per candidate
    S, xs = _forced("F2[x,y]", [f"x^{t}", f"y^{t}"], "x+y")
    assert any(len(g.terms) > 1 for g in S.ideal([g ** t for g in xs]).groebner_basis())
    res = short_filtration_search(S, xs, t)
    assert res.complete and res.nodes == nodes
    assert [dsl.format_poly(g) for g in res.certificate.generators] == chain
    assert validate_filtration(res.certificate).ok


def test_qseq_refuted_on_square_product():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    report = qseq_verdict_charp(pres, (x, y), x * y, t=2)
    assert report.verdict == "refuted"
    assert report.multiplier is None and report.table is None
    assert report.found_count == 3 and report.target_count == 4
    assert validate_filtration(report.disproof).ok
    assert report.searches_complete
    assert report.forcing.z_names == ("Z1", "Z2")


def test_qseq_supported_on_cubic(monkeypatch):
    pres = QuotientPresentation.parse(FERMAT)
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    report = qseq_verdict_charp(pres, (x, y), z ** 2, t=1, e_list=(1, 2),
                                degree_bound=1)
    assert report.verdict == "supported"
    assert report.multiplier is not None and report.table.all_pass()
    assert report.disproof is None
    # the table is the search's own rows: on a fresh presentation each
    # bracket basis is computed once, and a one-shot iterator of exponents
    # gives the same report; a repeat on the first presentation reuses its
    # bracket handles and computes neither basis again
    brackets = [pres.ideal([x ** q, y ** q]).generators for q in (7, 49)]
    fresh = QuotientPresentation.parse(FERMAT)
    fx, fy, fz = (fresh.ambient.var(n) for n in "xyz")
    calls = _count_buchberger(monkeypatch)
    again = qseq_verdict_charp(fresh, (fx, fy), fz ** 2, t=1, e_list=iter((1, 2)),
                               degree_bound=1)
    assert [calls.count(b) for b in brackets] == [1, 1]
    calls.clear()
    repeat = qseq_verdict_charp(pres, (x, y), z ** 2, t=1, e_list=(1, 2),
                                degree_bound=1)
    monkeypatch.undo()
    assert [calls.count(b) for b in brackets] == [0, 0]
    assert repeat.table.rows == report.table.rows
    fields = ("verdict", "multiplier", "table", "disproof", "target_count",
              "found_count", "notes", "searches_complete")
    assert [getattr(again, f) for f in fields] == [getattr(report, f) for f in fields]
    assert again.forcing.describe() == report.forcing.describe()
    independent = tight_membership_table(pres, z ** 2, (x, y), report.multiplier, (1, 2))
    assert report.table.rows == independent.rows
    pres0 = QuotientPresentation.parse("Q[x,y]")
    with pytest.raises(ValueError):
        qseq_verdict_charp(pres0, (pres0.ambient.var("x"),),
                           pres0.ambient.var("y"))
