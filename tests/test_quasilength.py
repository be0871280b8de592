"""Search results cross-checked by a brute-force subspace BFS on tiny modules,
plus certificate validation, transport, and serialization behavior."""

import itertools
import json
import random

import pytest

from qlc import dsl
from qlc.fields import GF2, GF3
from qlc.groebner import ideal
from qlc.poly import PolyRing
from qlc.quasilength import (FiltrationCertificate, NoFiltration, RingContext,
                             SearchLimit, certificate_from_json,
                             certificate_to_json, frobenius_transport,
                             lower_length_ratio, poly_action, quasilength,
                             quasilength_exact, staircase_filtration,
                             validate_filtration)
from qlc.quotient import QuotientPresentation, quotient_module, vector_module


# ---------------------------------------------------------------------------
# brute-force oracle over F2: states are literal vector sets


def _add(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def _mat_apply(A, v):
    n = len(v)
    return tuple(sum(A[i][j] * v[j] for j in range(n)) % 2 for i in range(n))


def _close(vectors, mats, n):
    """Smallest submodule (as a vector set) containing the given vectors."""
    space = {tuple([0] * n)}
    frontier = list(vectors)
    while frontier:
        v = frontier.pop()
        if v in space:
            continue
        new = {_add(v, s) for s in space} | {v}
        frontier.extend(_mat_apply(A, v) for A in mats)
        for w in new:
            if w not in space:
                space.add(w)
                frontier.extend(_mat_apply(A, w) for A in mats)
    return frozenset(space)


def brute_quasilength(action_mats, killing_mats, n):
    """Minimum chain length by BFS over literal subspace states; None when no
    finite chain exists."""
    full = _close([tuple(int(i == j) for j in range(n)) for i in range(n)],
                  action_mats, n)
    start = frozenset({tuple([0] * n)})
    if start == full:
        return 0
    seen = {start}
    layer = [start]
    steps = 0
    all_vecs = [tuple(v) for v in itertools.product((0, 1), repeat=n)]
    while layer:
        steps += 1
        nxt = []
        for S in layer:
            for v in all_vecs:
                if v in S:
                    continue
                if any(_mat_apply(K, v) not in S for K in killing_mats):
                    continue
                T = _close(set(S) | {v}, action_mats, n)
                if T == full:
                    return steps
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        layer = nxt
    return None


def _dense_int_mats(M, polys):
    out = []
    for f in polys:
        A = poly_action(M, f)
        out.append([[int(c) for c in row] for row in A])
    return out


def test_exact_search_matches_brute_force():
    rng = random.Random(61)
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    checked = 0
    for _ in range(40):
        cap = rng.randrange(1, 3)
        gens = [ring.monomial((rng.randrange(0, cap + 1),
                               rng.randrange(0, cap + 1)))
                for _ in range(2)] + [x ** 2, y ** 2]
        gens = [g for g in gens if not g.is_zero()]
        K = ideal(ring, gens)
        if K.is_unit_ideal():
            continue
        M = quotient_module(K)
        if not 1 <= M.dim <= 4:
            continue
        kill_polys = [x ** rng.randrange(1, 3), y ** rng.randrange(1, 3)]
        I = ideal(ring, kill_polys)
        acts = [[[int(c) for c in row] for row in M.actions[v]]
                for v in ("x", "y")]
        kills = _dense_int_mats(M, kill_polys)
        expected = brute_quasilength(acts, kills, M.dim)
        got, cert = quasilength_exact(M, I)
        assert got == expected
        assert len(cert) == got and cert.validated.ok
        checked += 1
    assert checked >= 20


def test_dvr_values():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    I = ideal(ring, [x ** 2])
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 4]))
    N = vector_module(ideal(ring, [x]), ideal(ring, [x ** 2]))
    assert quasilength_exact(M, I)[0] == 2
    assert quasilength_exact(N, I)[0] == 1


def test_whole_quotient_by_killing_ideal_is_one_step():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    K = pres.ideal([x ** 2, y ** 3])
    M = quotient_module(K)
    assert M.dim == 6
    value, cert = quasilength_exact(M, K)
    assert value == 1 and len(cert.generators) == 1


def test_reversed_chain_is_invalid():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 4]))
    _, cert = quasilength_exact(M, ideal(ring, [x ** 2]))
    bad = FiltrationCertificate(cert.context, cert.killing,
                                tuple(reversed(cert.generators)))
    verdict = validate_filtration(bad)
    assert not verdict.ok and verdict.step == 1


def test_incomplete_chain_fails_spanning():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 4]))
    _, cert = quasilength_exact(M, ideal(ring, [x ** 2]))
    stub = FiltrationCertificate(cert.context, cert.killing,
                                 cert.generators[:1])
    verdict = validate_filtration(stub)
    assert not verdict.ok and verdict.step == 2


def test_no_filtration_when_killing_ideal_is_unit():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 2]))
    with pytest.raises(NoFiltration):
        quasilength_exact(M, ideal(ring, [ring.one()]))


def test_search_limit_and_greedy_fallback():
    ring = PolyRing(GF3, ["x"])
    x = ring.var("x")
    M = quotient_module(ideal(ring, [x ** 9]))  # dim 9 > cap 8 over F3
    I = ideal(ring, [x ** 3])
    with pytest.raises(SearchLimit):
        quasilength_exact(M, I)
    b = quasilength(M, I)
    assert b.lower <= b.upper and b.certificate.validated.ok
    assert any("greedy" in f for f in b.flags)
    assert b.exact == 3  # greedy happens to be optimal here: 9/3


def test_lower_length_ratio():
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    for t in (1, 2, 3):
        M = quotient_module(ideal(ring, [x ** t, y ** t]))
        assert lower_length_ratio(M, ideal(ring, [x, y])) == t * t
        assert quasilength_exact(M, ideal(ring, [x, y]))[0] == t * t


def test_staircase_order_and_validity():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    cert = staircase_filtration(pres, (x, y), 2)
    assert [dsl.format_poly(g) for g in cert.generators] == \
        ["x*y", "x", "y", "1"]
    assert cert.validated.ok
    # works for non-monomial parameters too
    cert2 = staircase_filtration(pres, (x + y, x * y + 1), 2)
    assert cert2.validated.ok and len(cert2) == 4


def test_staircase_counts():
    pres = QuotientPresentation.parse("Q[x,y,z]")
    xs = tuple(pres.ambient.var(n) for n in "xyz")
    for t in (1, 2, 3):
        assert len(staircase_filtration(pres, xs, t)) == t ** 3


def test_frobenius_transport():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    cert = staircase_filtration(pres, (x, y), 2)
    moved = frobenius_transport(cert, 1)
    assert moved.validated.ok
    assert [dsl.format_poly(g) for g in moved.generators] == \
        ["x^2*y^2", "x^2", "y^2", "1"]
    with pytest.raises(ValueError):
        frobenius_transport(moved, -1)
    presq = QuotientPresentation.parse("Q[x,y]")
    certq = staircase_filtration(presq, (presq.ambient.var("x"),
                                         presq.ambient.var("y")), 1)
    with pytest.raises(ValueError):
        frobenius_transport(certq, 1)


def test_certificate_json_round_trip():
    pres = QuotientPresentation.parse("F3[x,y]/(x^3*y-x)")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    cert = staircase_filtration(pres, (x, y), 2)
    text = certificate_to_json(cert)
    payload = json.loads(text)
    assert payload["schema"] == 1 and payload["kind"] == "ring-filtration"
    back = certificate_from_json(text)
    assert back.validated.status == "unchecked"  # verdicts never ride along
    assert validate_filtration(back).ok
    assert [dsl.format_poly(g) for g in back.generators] == \
        [dsl.format_poly(g) for g in cert.generators]


def test_module_certificates_do_not_serialize():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 2]))
    _, cert = quasilength_exact(M, ideal(ring, [x ** 2]))
    with pytest.raises(ValueError):
        certificate_to_json(cert)


def test_zero_module_has_zero_quasilength():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x]))
    assert M.dim == 0
    b = quasilength(M, ideal(ring, [x]))
    assert b.exact == 0 and len(b.certificate) == 0
