"""Limit closures and content tables.

The closure tests recompute each colon stage independently and check the
reported ideal dominates all of them; frozen generator sets for the
product-of-projective-lines ring were derived once by hand and pinned.
"""

import pytest
from fractions import Fraction

from qlc import dsl
from qlc.content import content_scan, limit_closure
from qlc.groebner import colon, ideal, ideal_compare
from qlc.quasilength import FiltrationCertificate, staircase_filtration
from qlc.quotient import QuotientPresentation, length


def _stage(pres, xs, t, k):
    amb = pres.ambient
    prod = amb.one()
    for x in xs:
        prod = prod * x
    base = ideal(amb, list(pres.relations.generators) + [x ** (t + k) for x in xs])
    return colon(base, ideal(amb, [prod ** k])) if k else base


def test_closure_dominates_every_recomputed_stage():
    pres = QuotientPresentation.parse("F2[x,y,u,v]/(x*v + y*u)")
    xs = tuple(pres.ambient.var(n) for n in ("x", "v"))
    res = limit_closure(pres, xs, 2)
    assert res.stabilized
    for k in range(res.k + res.window + 1):
        assert res.ideal.contains_ideal(_stage(pres, xs, 2, k))
    # the last stage is the reported ideal, not merely contained in it
    assert ideal_compare(res.ideal, _stage(pres, xs, 2, res.k)) == "equal"


def test_closure_of_regular_sequence_is_the_ideal_itself():
    pres = QuotientPresentation.parse("Q[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    for t in (1, 2, 3):
        res = limit_closure(pres, xs, t)
        assert res.stabilized and res.k == 0
        plain = ideal(pres.ambient, [x ** t for x in xs])
        assert ideal_compare(res.ideal, plain) == "equal"


def test_closure_frozen_for_quadric_parameters():
    # parameters xu, yv, xv + yu in F2[x,y,u,v]; the closure of their first
    # powers swallows all of degree 2
    ring, _ = dsl.parse_ring("F2[x,y,u,v]")
    x, y, u, v = (ring.var(n) for n in "xyuv")
    pres = QuotientPresentation(ring)
    xs = (x * u, y * v, x * v + y * u)
    res = limit_closure(pres, xs, 1)
    assert res.k == 1 and res.stabilized
    frozen = ideal(ring, dsl.parse_polys(
        ring, "v^2; u*v; y*v; u^2; y*u + x*v; x*u; y^2; x*y; x^2"))
    assert ideal_compare(res.ideal, frozen) == "equal"
    for p in xs:
        assert res.ideal.contains_poly(p)


def test_closure_respects_max_k_window():
    pres = QuotientPresentation.parse("Q[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    res = limit_closure(pres, xs, 2, window=3, max_k=2)
    assert not res.stabilized  # only two quiet steps observed, three required
    assert ideal_compare(res.ideal, _stage(pres, xs, 2, 0)) == "equal"
    with pytest.raises(ValueError):
        limit_closure(pres, xs, 0)
    with pytest.raises(ValueError):
        limit_closure(pres, xs, 1, window=0)
    # no parameters used to return the relations as a stabilized closure
    with pytest.raises(ValueError, match="at least one parameter"):
        limit_closure(pres, (), 1)


def test_box_rows_rational():
    pres = QuotientPresentation.parse("Q[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    tab = content_scan(pres, xs, (1, 2, 3, 4))
    assert tab.d == 2 and tab.mode == "plain"
    for row, t in zip(tab.rows, (1, 2, 3, 4)):
        assert (row.t, row.upper, row.lower) == (t, t * t, t * t)
        assert row.upper_ratio == row.lower_ratio == Fraction(1)
        assert row.upper_from == "staircase" and row.lower_from == "length-ratio"


def test_box_rows_three_variables_f2():
    pres = QuotientPresentation.parse("F2[x,y,z]")
    xs = tuple(pres.ambient.var(n) for n in "xyz")
    tab = content_scan(pres, xs, (1, 2, 3))
    got = [(r.t, r.upper, r.lower) for r in tab.rows]
    assert got == [(1, 1, 1), (2, 8, 8), (3, 27, 27)]
    assert all(str(r.upper_ratio) == "1" and str(r.lower_ratio) == "1"
               for r in tab.rows)
    # dicts view stringifies the ratios
    d = tab.as_dicts()[1]
    # the exact search confirms 8 but cannot beat the staircase, so the
    # upper provenance stays with the construction that produced the bound
    assert d == {"t": 2, "upper": 8, "lower": 8, "upper_ratio": "1",
                 "lower_ratio": "1", "upper_from": "staircase",
                 "lower_from": "exact-search"}


def test_quadric_rows_and_underline_gap():
    ring, _ = dsl.parse_ring("Q[x,y,u,v]")
    x, y, u, v = (ring.var(n) for n in "xyuv")
    pres = QuotientPresentation(ring)
    xs = (x * u, y * v, x * v + y * u)
    plain = content_scan(pres, xs, (1,))
    assert (plain.rows[0].upper, plain.rows[0].lower) == (1, 0)
    assert plain.rows[0].lower_from == "none"  # not zero-dimensional
    under = content_scan(pres, xs, (1,), mode="underline")
    assert (under.rows[0].upper, under.rows[0].lower) == (1, 1)
    assert under.mode == "underline"


def test_supplied_certificate_caps_upper():
    pres = QuotientPresentation.parse("Q[x,y]")
    xs = (pres.ambient.var("x"), pres.ambient.var("y"))
    x, y = xs
    # a valid 2-step chain for R/(x^2, y) against killing (x, y^2) would not
    # qualify; build one against a killing ideal containing both parameters
    row_pres = QuotientPresentation(pres.ambient, [x ** 2, y ** 2])
    full = staircase_filtration(row_pres, xs, 2)
    short = FiltrationCertificate(full.context, full.killing, full.generators)
    tab = content_scan(pres, xs, (2,), supplied={2: short})
    assert tab.rows[0].upper == 4 and tab.rows[0].upper_from == "staircase"

    # rejection: certificate for a different row ideal
    wrong = staircase_filtration(QuotientPresentation(pres.ambient, [x, y]), xs, 1)
    with pytest.raises(ValueError, match="different module"):
        content_scan(pres, xs, (2,), supplied={2: wrong})
    # rejection: killing ideal missing a parameter
    lame = FiltrationCertificate(full.context, (x,), full.generators)
    with pytest.raises(ValueError, match="missing|misses"):
        content_scan(pres, xs, (2,), supplied={2: lame})
    # rejection: chain in the wrong order
    rev = FiltrationCertificate(full.context, full.killing,
                                tuple(reversed(full.generators)))
    with pytest.raises(ValueError, match="invalid"):
        content_scan(pres, xs, (2,), supplied={2: rev})


def test_supplied_certificate_shortens_forced_cube_row():
    # the relation puts the squared product of parameters inside the cube
    # ideal, so the top staircase step becomes redundant: 26 beats 27
    forced = QuotientPresentation.parse(
        "Q[x1,x2,x3,z1,z2,z3]/"
        "(x1^2*x2^2*x3^2 + z1*x1^3 + z2*x2^3 + z3*x3^3)")
    ys = tuple(forced.ambient.var(f"x{i}") for i in (1, 2, 3))
    full = staircase_filtration(forced, ys, 3)
    short = FiltrationCertificate(full.context, full.killing, full.generators[1:])
    tab = content_scan(forced, ys, (3,), supplied={3: short})
    row = tab.rows[0]
    assert row.upper == 26 and row.upper_from == "supplied"
    assert str(row.upper_ratio) == "26/27"


def test_unit_row_reports_zero():
    pres = QuotientPresentation.parse("Q[x,y]/(x - 1)")
    xs = (pres.ambient.var("x"),)
    tab = content_scan(pres, xs, (1, 2))
    for row in tab.rows:
        assert (row.upper, row.lower) == (0, 0)
        assert row.upper_from == "zero" and row.lower_from == "zero"


def test_scan_argument_validation():
    pres = QuotientPresentation.parse("Q[x]")
    x = pres.ambient.var("x")
    with pytest.raises(ValueError):
        content_scan(pres, (x,), (1,), mode="fancy")
    with pytest.raises(ValueError):
        content_scan(pres, (), (1,))
    with pytest.raises(ValueError):
        content_scan(pres, (x,), (0,))
    with pytest.raises(ValueError, match="exponent"):
        content_scan(pres, (x,), ())
