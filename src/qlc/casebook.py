"""Worked constructions with machine-checked expectations.

Every function here builds one self-contained scenario, runs the engine on
it, and returns an ExampleReport: a list of (description, expected, computed)
checks plus deterministic artifacts suitable for JSON output.  Nothing is
random and nothing is timed, so a report is byte-stable run to run.

The segre_* helpers model a product-of-two-lines coordinate ring inside
k[x,y,u,v] through the three quadrics xu, yv, xv+yu and compare two families
of power ideals built from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import dsl
from .closure import (generic_forcing_algebra, lc_class_vanishing,
                      qseq_verdict_charp, test_element_search,
                      tight_membership_table)
from .content import content_scan
from .groebner import ideal, normal_form
from .poly import PolyRing
from .quasilength import (FiltrationCertificate, RingContext, quasilength,
                          staircase_filtration, validate_filtration)
from .quotient import QuotientPresentation, direct_sum, vector_module


@dataclass
class Check:
    description: str
    expected: str
    computed: str
    passed: bool


@dataclass
class ExampleReport:
    name: str
    summary: str
    checks: tuple
    artifacts: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {**vars(self), "passed": self.passed,
                "checks": [dict(vars(c)) for c in self.checks]}


def _eq(description, expected, computed) -> Check:
    return Check(description, str(expected), str(computed), expected == computed)


# ---------------------------------------------------------------------------
# discrete valuation ring model


def dvr_example() -> ExampleReport:
    """Quasilengths of (x)/(x^4) and (x)/(x^2) over F2[x] against (x^2),
    and their direct sum; a reversed chain must fail validation."""
    pres = QuotientPresentation.parse("F2[x]")
    ring = pres.ambient
    x = ring.var("x")
    J = ideal(ring, [x])
    M = vector_module(J, ideal(ring, [x ** 4]))
    N = vector_module(J, ideal(ring, [x ** 2]))
    I = ideal(ring, [x ** 2])
    bm = quasilength(M, I)
    bn = quasilength(N, I)
    MN = direct_sum(M, N)
    bd = quasilength(MN, I)
    reversed_cert = FiltrationCertificate(
        bm.certificate.context, bm.certificate.killing,
        tuple(reversed(bm.certificate.generators)))
    rv = validate_filtration(reversed_cert)
    checks = (
        _eq("quasilength of (x)/(x^4) against (x^2)", 2, bm.exact),
        _eq("quasilength of (x)/(x^2) against (x^2)", 1, bn.exact),
        _eq("quasilength of the direct sum against (x^2)", 2, bd.exact),
        _eq("reversed optimal chain is rejected", "invalid at step 1",
            f"{rv.status} at step {rv.step}"),
    )
    arts = {
        "chain for (x)/(x^4)": [M.format_vector(list(g))
                                for g in bm.certificate.generators],
        "chain for the direct sum": [MN.format_vector(list(g))
                                     for g in bd.certificate.generators],
    }
    return ExampleReport("dvr", "rank-one valuation model: exact quasilengths "
                         "and an invalid reversed chain", checks, arts)


# ---------------------------------------------------------------------------
# the two-lines ring k[u,v]/(uv)


def uv_example() -> ExampleReport:
    """x = u+v on F2[u,v]/(uv): each branch has full content, but the
    quasilength of the branch direct sum grows like t+1, not 2t."""
    amb, _ = dsl.parse_ring("F2[u,v]")
    u, v = amb.var("u"), amb.var("v")
    x = u + v
    checks = []
    for branch, kill in (("u", u), ("v", v)):
        pres = QuotientPresentation(amb, [u * v, kill])
        tab = content_scan(pres, (x,), (1, 2, 3))
        got = [(r.t, r.upper, r.lower) for r in tab.rows]
        checks.append(_eq(f"content rows for the {branch}-branch",
                          [(1, 1, 1), (2, 2, 2), (3, 3, 3)], got))
    one = ideal(amb, [amb.one()])
    I = ideal(amb, [x])
    sums = []
    for t in (1, 2, 3):
        A = vector_module(one, ideal(amb, [u * v, u, x ** t]))
        B = vector_module(one, ideal(amb, [u * v, v, x ** t]))
        qa = quasilength(A, I)
        qd = quasilength(direct_sum(A, B), I)
        sums.append((t, qa.exact, qd.exact))
        checks.append(_eq(f"branch quasilength at t={t}", t, qa.exact))
        checks.append(_eq(f"direct-sum quasilength at t={t}", t + 1, qd.exact))
    checks.append(_eq("direct sum at t=2 beats the summand total",
                      True, sums[1][2] < 2 * sums[1][1]))
    arts = {
        "direct-sum growth": [f"t={t}: {qd} versus summand total {2*qa}"
                              for t, qa, qd in sums],
        "note": "per-t ratios (t+1)/t head to 1 while the summand contents "
                "add up to 2: quasilength is not additive across direct sums",
    }
    return ExampleReport("uv", "two coordinate lines: full content on each "
                         "branch, sublinear direct-sum quasilength", checks, arts)


# ---------------------------------------------------------------------------
# a degree-six element forced into cube powers


def roberts_example() -> ExampleReport:
    """(x1 x2 x3)^2 forced into (x1^3, x2^3, x3^3) over Q: the product class
    survives k=1 but dies from k=2 on, and dropping the top staircase
    generator leaves a valid 26-step chain at t=3."""
    base = QuotientPresentation.parse("Q[x1,x2,x3]")
    x1, x2, x3 = (base.ambient.var(f"x{i}") for i in (1, 2, 3))
    fa = generic_forcing_algebra(base, (x1 ** 3, x2 ** 3, x3 ** 3),
                                 (x1 * x2 * x3) ** 2, prefix="z")
    S = fa.presentation
    xs = tuple(S.ambient.var(f"x{i}") for i in (1, 2, 3))
    van = lc_class_vanishing(S, xs, 3)
    full = staircase_filtration(S, xs, 3)
    short = FiltrationCertificate(full.context, full.killing, full.generators[1:])
    verdict = validate_filtration(short)
    tab = content_scan(S, xs, (3,), supplied={3: short})
    row = tab.rows[0]
    checks = (
        _eq("class of (x1 x2 x3)^1 vanishes", False, van.rows[0].vanished),
        _eq("class of (x1 x2 x3)^2 vanishes", True, van.rows[1].vanished),
        _eq("class of (x1 x2 x3)^3 vanishes", True, van.rows[2].vanished),
        _eq("top staircase generator at t=3", "x1^2*x2^2*x3^2",
            dsl.format_poly(full.generators[0])),
        _eq("26-step chain validates", "valid", verdict.status),
        _eq("t=3 upper bound", 26, row.upper),
        _eq("t=3 upper bound provenance", "supplied", row.upper_from),
        _eq("t=3 upper ratio", "26/27", str(row.upper_ratio)),
    )
    arts = {
        "presentation": fa.describe(),
        "note": "the forcing relation already absorbs the top staircase "
                "generator, so 26 of the 27 steps suffice at t=3",
    }
    return ExampleReport("roberts", "forced sixth-degree product: vanishing "
                         "table and a 26/27 staircase shortcut", checks, arts)


# ---------------------------------------------------------------------------
# Fermat cubic in characteristic 7


def fermat_example() -> ExampleReport:
    """z^2 against (x, y) in F7[x,y,z]/(x^3+y^3+z^3): multiplier z passes
    q = 7 and 49, and the bounded search also finds a multiplier."""
    pres = QuotientPresentation.parse("F7[x,y,z]/(x^3+y^3+z^3)")
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    tab = tight_membership_table(pres, z ** 2, [x, y], z, (1, 2))
    found = test_element_search(pres, z ** 2, [x, y], (1, 2), degree_bound=3)
    checks = (
        _eq("z * (z^2)^7 lands in (x^7, y^7)", True, tab.rows[0].member),
        _eq("z * (z^2)^49 lands in (x^49, y^49)", True, tab.rows[1].member),
        _eq("bounded multiplier search succeeds", "x",
            dsl.format_poly(found) if found is not None else None),
    )
    arts = {"table": tab.as_dicts()}
    return ExampleReport("fermat", "Fermat cubic, p=7: multiplier evidence "
                         "for z^2 against (x, y)", checks, arts)


# ---------------------------------------------------------------------------
# the quartic surface family with a transcendental coefficient


def brenner_monsky_example() -> ExampleReport:
    """x^3 y^3 against (x^4, y^4, z^4) over F2(t) with the quartic relation
    z^4 + xyz^2 + x^3 z + y^3 z + t x^2 y^2."""
    pres = QuotientPresentation.parse(
        "F2(t)[x,y,z]/(z^4+x*y*z^2+x^3*z+y^3*z+t*x^2*y^2)")
    x, y, z = (pres.ambient.var(n) for n in "xyz")
    u = x ** 3 * y ** 3
    gens = [x ** 4, y ** 4, z ** 4]
    found = test_element_search(pres, u, gens, (1, 2), degree_bound=4)
    checks = [
        _eq("bounded multiplier search (degree <= 4, q in {2,4})", "x",
            dsl.format_poly(found) if found is not None else None),
    ]
    arts: dict = {
        "note": "memberships certified over F2(t) persist over every "
                "extension of the coefficient field",
    }
    if found is not None:
        tab = tight_membership_table(pres, u, gens, found, (1, 2, 3))
        checks.append(_eq("found multiplier passes q=2, 4, 8", True,
                          tab.all_pass()))
        arts["table"] = tab.as_dicts()
    return ExampleReport("brenner_monsky", "quartic family over F2(t): "
                         "bounded multiplier evidence for x^3 y^3 against "
                         "fourth powers", tuple(checks), arts)


# ---------------------------------------------------------------------------
# cubic cone with z^2 forced into (x, y)


def cubic_forcing_example() -> ExampleReport:
    """Forcing z^2 into (x, y) over Q[x,y,z]/(x^3+y^3+z^3) makes the
    membership true by fiat, yet the parameter-product classes all survive."""
    A = QuotientPresentation.parse("Q[x,y,z]/(x^3+y^3+z^3)")
    x, y, z = (A.ambient.var(n) for n in "xyz")
    outside = A.ideal([x, y]).contains_poly(z ** 2)
    fa = generic_forcing_algebra(A, (x, y), z ** 2)
    S = fa.presentation
    sx, sy, sz = (S.ambient.var(n) for n in "xyz")
    inside = S.ideal([sx, sy]).contains_poly(sz ** 2)
    van = lc_class_vanishing(S, (sx, sy), 4)
    checks = (
        _eq("z^2 in (x, y) before forcing", False, outside),
        _eq("z^2 in (x, y) after forcing", True, inside),
        _eq("vanishing rows k=1..4", [False, False, False, False],
            [r.vanished for r in van.rows]),
    )
    arts = {"presentation": fa.describe()}
    return ExampleReport("cubic_forcing", "cubic cone: forced membership of "
                         "z^2 with no parameter-product vanishing", checks, arts)


# ---------------------------------------------------------------------------
# an extended presentation carrying a fraction w


def normalization_w_example() -> ExampleReport:
    """Six-variable presentation where w plays (y^2+zv)/x = -(x^2+zu)/y:
    exact cofactor identities tie the generators together."""
    P = QuotientPresentation.parse(
        "Q[x,y,z,u,v,w]/(z^2-x*u-y*v; y*w+x^2+z*u; x*w-y^2-z*v;"
        " z*w^2+x*y*z+y*u^2+x*v^2; w^3-x*z*u+2*y*z*v+y^3-u^3+v^3)")
    R, rel = P.ambient, P.relations
    x, y, z, u, v, w = (R.var(n) for n in "xyzuvw")
    g_q = z ** 2 - x * u - y * v
    g_yw = y * w + x ** 2 + z * u
    g_xw = x * w - y ** 2 - z * v
    g_4 = z * w ** 2 + x * y * z + y * u ** 2 + x * v ** 2
    g_5 = w ** 3 - x * z * u + 2 * y * z * v + y ** 3 - u ** 3 + v ** 3
    cubic = x ** 3 + y ** 3 + z ** 3
    checks = (
        _eq("cofactor identity for the cubic", True,
            x * g_yw - y * g_xw + z * g_q == cubic),
        _eq("the cubic lies in the presentation ideal", True, rel.contains_poly(cubic)),
        _eq("the two w-definitions agree below w", True,
            y * (y ** 2 + z * v) + x * (x ** 2 + z * u) == cubic - z * g_q),
        _eq("x times the w^2-generator reduces to the quadrics", True,
            x * g_4 == (z * w + u * v) * g_xw + (y * z + v ** 2) * g_yw
            + (v * w - y * u) * g_q),
        _eq("x*w rewrites without w", True,
            normal_form(x * w, rel) == normal_form(y ** 2 + z * v, rel)),
        _eq("y*w rewrites without w", True,
            normal_form(y * w, rel) == normal_form(-(x ** 2) - z * u, rel)),
        _eq("w^2-generator independent of the other four", False,
            ideal(R, [g_q, g_yw, g_xw, g_5]).contains_poly(g_4)),
        _eq("w^3-generator independent of the other four", False,
            ideal(R, [g_q, g_yw, g_xw, g_4]).contains_poly(g_5)),
    )
    arts = {"presentation": P.describe()}
    return ExampleReport("normalization_w", "fraction-extension presentation: "
                         "cofactor identities and generator independence",
                         checks, arts)


# ---------------------------------------------------------------------------
# the product-of-two-lines quadrics: x1 = xu, x2 = yv, x3 = xv + yu


def _segre_ring(field: str):
    ring, _ = dsl.parse_ring(f"{field}[x,y,u,v]")
    x, y, u, v = (ring.var(n) for n in "xyuv")
    return ring, (x * u, y * v, x * v + y * u)


def _pair(ring: PolyRing, a: int):
    """x^a v^a + y^a u^a; the a = 0 instance is the constant 2."""
    x, y, u, v = (ring.var(n) for n in "xyuv")
    return x ** a * v ** a + y ** a * u ** a


def segre_comparison(t: int, field: str = "F2") -> dict:
    """Mutual-containment data for (x1^t, x2^t, x3^t) versus the variant with
    third generator x^t v^t + y^t u^t."""
    if t < 1:
        raise ValueError("t must be at least 1")
    ring, (x1, x2, x3) = _segre_ring(field)
    x, y, u, v = (ring.var(n) for n in "xyuv")
    power = lambda k: ideal(ring, [x1 ** k, x2 ** k, x3 ** k])
    variant = lambda k: ideal(ring, [x1 ** k, x2 ** k, _pair(ring, k)])
    return {
        "field": field,
        "t": t,
        "power_4t_in_variant_t": variant(t).contains_ideal(power(4 * t)),
        "variant_12t_in_power_t": power(t).contains_ideal(variant(12 * t)),
        "xv_squared_identity": (x * v) ** 2 == x3 ** 2 - (y * u) * x3 - x1 * x2,
        "yu_squared_identity": (y * u) ** 2 == x3 ** 2 - (x * v) * x3 - x1 * x2,
    }


def segre_matrix_check(s: int, t: int, field: str = "F2") -> dict:
    """Upper-triangular transition from exponent t to t+s for the variant
    generators, with its determinant; needs s >= t for polynomial entries."""
    if s < t or t < 1:
        raise ValueError("need s >= t >= 1")
    ring, (x1, x2, _x3) = _segre_ring(field)
    x, y, u, v = (ring.var(n) for n in "xyuv")
    zero = ring.zero()
    mat = [
        [x1 ** s, zero, -(y ** s * u ** (s - t) * v ** t)],
        [zero, x2 ** s, -(x ** s * u ** t * v ** (s - t))],
        [zero, zero, _pair(ring, s)],
    ]
    row_t = [x1 ** t, x2 ** t, _pair(ring, t)]
    row_st = [x1 ** (t + s), x2 ** (t + s), _pair(ring, t + s)]
    prod = [sum((row_t[i] * mat[i][j] for i in range(3)), ring.zero())
            for j in range(3)]
    det = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
           - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
           + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
    delta = x1 ** s * x2 ** s * _pair(ring, s)
    return {
        "field": field,
        "s": s,
        "t": t,
        "row_identity": prod == row_st,
        "determinant_is_delta": det == delta,
        "matrix": [[dsl.format_poly(e) for e in r] for r in mat],
    }


def segre_special_filtration(s: int, t: int, field: str = "F2") -> tuple:
    """The (s+t)^3 - t^3 step certificate for the variant power ideal at
    exponent s+t, modulo the determinant, killed by (x1, x2, x3).

    Generators are x1^e1 x2^e2 (x^e3 v^e3 + y^e3 u^e3) for exponent triples
    in [0, s+t)^3 with some coordinate below s, the e3 = 0 factor taken as 1,
    listed by descending e1+e2, then descending e1, then descending e3.
    """
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    ring, (x1, x2, x3) = _segre_ring(field)
    delta = x1 ** s * x2 ** s * _pair(ring, s)
    pres = QuotientPresentation(ring, [delta])
    target = (x1 ** (s + t), x2 ** (s + t), _pair(ring, s + t))
    exps = [e for e in itertools.product(range(s + t), repeat=3)
            if not all(c >= s for c in e)]
    exps.sort(key=lambda e: (-(e[0] + e[1]), -e[0], -e[2]))
    gens = []
    for e1, e2, e3 in exps:
        g = x1 ** e1 * x2 ** e2
        if e3:
            g = g * _pair(ring, e3)
        gens.append(g)
    cert = FiltrationCertificate(RingContext(pres, target), (x1, x2, x3),
                                 tuple(gens))
    validate_filtration(cert)
    return cert, (s + t) ** 3 - t ** 3


def segre_example() -> ExampleReport:
    """Containment comparisons for t = 1, 2, 3 over F2 and Q, plus content
    rows for the three quadrics."""
    checks = []
    for field in ("F2", "Q"):
        for t in (1, 2, 3):
            r = segre_comparison(t, field)
            checks.append(_eq(f"[{field}, t={t}] power 4t inside variant t",
                              True, r["power_4t_in_variant_t"]))
            checks.append(_eq(f"[{field}, t={t}] variant 12t inside power t",
                              True, r["variant_12t_in_power_t"]))
            checks.append(_eq(f"[{field}, t={t}] (xv)^2 identity", True,
                              r["xv_squared_identity"]))
            checks.append(_eq(f"[{field}, t={t}] (yu)^2 identity", True,
                              r["yu_squared_identity"]))
    ring, (x1, x2, x3) = _segre_ring("Q")
    x, y, u, v = (ring.var(n) for n in "xyuv")
    minus = x * v - y * u  # breaks the square identities outside char 2
    checks.append(_eq("[Q, t=1] the minus-sign variant breaks the (xv)^2 "
                      "identity", False,
                      (x * v) ** 2 == minus ** 2 - (y * u) * minus - x1 * x2))
    pres = QuotientPresentation(ring)
    plain = content_scan(pres, (x1, x2, x3), (1, 2))
    under = content_scan(pres, (x1, x2, x3), (1,), mode="underline")
    checks.append(_eq("plain rows (t, upper, lower)",
                      [(1, 1, 0), (2, 8, 0)],
                      [(r.t, r.upper, r.lower) for r in plain.rows]))
    checks.append(_eq("underline row t=1 (upper, lower)", (1, 1),
                      (under.rows[0].upper, under.rows[0].lower)))
    arts = {
        "plain_rows": plain.as_dicts(),
        "underline_rows": under.as_dicts(),
        "note": "the three quadrics cut out a two-dimensional set, so plain "
                "rows carry no lower bound; the t=1 limit closure has finite "
                "colength and closes the gap",
    }
    return ExampleReport("segre", "two-lines quadrics: power-ideal "
                         "comparisons and content rows", tuple(checks), arts)


def segre_matrix_example() -> ExampleReport:
    """Transition-matrix checks at (s, t) = (1,1), (2,1), (3,2), both fields."""
    checks = []
    for field in ("F2", "Q"):
        for (s, t) in ((1, 1), (2, 1), (3, 2)):
            r = segre_matrix_check(s, t, field)
            checks.append(_eq(f"[{field}, s={s}, t={t}] row identity", True,
                              r["row_identity"]))
            checks.append(_eq(f"[{field}, s={s}, t={t}] determinant", True,
                              r["determinant_is_delta"]))
    arts = {"matrix at (2,1) over F2": segre_matrix_check(2, 1, "F2")["matrix"]}
    return ExampleReport("segre_matrix", "two-lines quadrics: power-raising "
                         "matrices and their determinants", tuple(checks), arts)


def segre_filtration_example() -> ExampleReport:
    """Special filtrations at (s, t) = (2, 1) and (2, 2) over F2, with the
    case-split identities behind the step containments."""
    checks = []
    counts = {}
    for (s, t, expected) in ((2, 1, 26), (2, 2, 56)):
        cert, count = segre_special_filtration(s, t, "F2")
        counts[f"(s={s}, t={t})"] = count
        checks.append(_eq(f"(s={s}, t={t}) step count", expected, count))
        checks.append(_eq(f"(s={s}, t={t}) certificate validates", "valid",
                          cert.validated.status))
    certQ, _ = segre_special_filtration(2, 1, "Q")
    checks.append(_eq("(s=2, t=1) also validates over Q", "valid",
                      certQ.validated.status))
    ring, (x1, x2, x3) = _segre_ring("Q")
    p = lambda a: _pair(ring, a)
    e1, e2 = 1, 1
    base = x1 ** e1 * x2 ** e2
    checks.append(_eq("step identity at e3=0", True, x3 * base == base * p(1)))
    checks.append(_eq("step identity at e3=1 (literal pair(0)=2)", True,
                      x3 * base * p(1) == base * p(2) + x1 ** (e1 + 1) * x2 ** (e2 + 1) * p(0)))
    checks.append(_eq("step identity at e3=2", True,
                      x3 * base * p(2) == base * p(3) + x1 ** (e1 + 1) * x2 ** (e2 + 1) * p(1)))
    arts = {
        "counts": counts,
        "note": "(s+t)^3 - t^3 steps instead of (s+t)^3: the all->=s cube of "
                "staircase exponents is absorbed by the determinant relation; "
                "at (2,1) that reads 26 < 27",
    }
    return ExampleReport("segre_filtration", "two-lines quadrics: "
                         "determinant-assisted short filtrations", tuple(checks),
                         arts)


# ---------------------------------------------------------------------------
# the short-filtration counterexample in a polynomial ring


def square_shortcut_example() -> ExampleReport:
    """xy against (x^2, y^2) over F2[x,y]: the forcing algebra admits a
    3-step filtration where the staircase needs 4."""
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    rep = qseq_verdict_charp(pres, (x, y), x * y, t=2, e_list=(1, 2))
    chain = ([dsl.format_poly(g) for g in rep.disproof.generators]
             if rep.disproof else None)
    checks = (
        _eq("verdict", "refuted", rep.verdict),
        _eq("steps found", 3, rep.found_count),
        _eq("staircase step count", 4, rep.target_count),
        _eq("chain", ["x", "y", "1"], chain),
        _eq("search ran to completion", True, rep.searches_complete),
    )
    arts = {
        "forcing presentation": rep.forcing.describe(),
        "notes": list(rep.notes),
    }
    return ExampleReport("square_shortcut", "xy forced into the squares: a "
                         "3 < 4 filtration in the forcing algebra", checks, arts)


# ---------------------------------------------------------------------------
# registry


REGISTRY = {
    "dvr": (dvr_example, False),
    "uv": (uv_example, False),
    "roberts": (roberts_example, False),
    "fermat": (fermat_example, False),
    "square_shortcut": (square_shortcut_example, False),
    "cubic_forcing": (cubic_forcing_example, False),
    "normalization_w": (normalization_w_example, False),
    "segre": (segre_example, False),
    "segre_matrix": (segre_matrix_example, False),
    "segre_filtration": (segre_filtration_example, False),
    "brenner_monsky": (brenner_monsky_example, True),
}


def example_names(long: bool = False) -> list:
    return [n for n, (_f, is_long) in REGISTRY.items() if long or not is_long]


def run_example(name: str) -> ExampleReport:
    try:
        fn, _is_long = REGISTRY[name]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown example {name!r}; known: {known}") from None
    return fn()


def run_all(long: bool = False) -> list:
    return [run_example(n) for n in example_names(long)]
