"""Search results cross-checked by a brute-force subspace BFS on tiny modules
and by a dict-row reference search, plus certificate validation, transport,
and serialization behavior."""

import importlib
import itertools
import json
import random
from collections import deque
from contextlib import contextmanager, suppress

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qlc import dsl
from qlc.cli import run
from qlc.fields import GF2, GF3, QQ, Field, PrimeField, RationalFunctionField
from qlc.groebner import InternalError, ideal
from qlc.linalg import RowSpace, mat_mul, nullspace
from qlc.poly import PolyRing
from qlc.quasilength import (FiltrationCertificate, NoFiltration, RingContext,
                             SearchLimit, _all_nilpotent, _BitCoords,
                             _candidate_rows, _coordinates, _factor_dim,
                             _greedy_chain, _lower_bound, _search,
                             _staircase_exponents, certificate_from_json,
                             certificate_payload, certificate_to_json,
                             frobenius_transport, parameter_powers, quasilength,
                             quasilength_exact, search_pool, staircase_filtration,
                             validate_filtration)
from qlc.quotient import (QuotientPresentation, direct_sum, quotient_module,
                          vector_module)


# ---------------------------------------------------------------------------
# dense reference for the killing matrices


def poly_action(M, f):
    """Row-major matrix of multiplication by f on M's basis, by dense
    powers of the action matrices."""
    if f.ring != M.ring:
        raise ValueError("polynomial lives in a different ring than the module")
    F = M.field
    n = M.dim
    eye = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    cache: dict = {}

    def var_power(vi: int, e: int):
        if e == 0:
            return eye
        got = cache.get((vi, e))
        if got is None:
            if e == 1:
                got = M.actions[M.ring.variables[vi]]
            else:
                half = var_power(vi, e // 2)
                got = mat_mul(F, half, half)
                if e % 2:
                    got = mat_mul(F, got, var_power(vi, 1))
            cache[(vi, e)] = got
        return got

    out = [[F.zero] * n for _ in range(n)]
    for mono, c in f.terms.items():
        mat = eye
        for vi, e in enumerate(mono):
            if e:
                mat = mat_mul(F, mat, var_power(vi, e))
        for i in range(n):
            for j in range(n):
                if mat[i][j] != F.zero:
                    out[i][j] = F.add(out[i][j], F.mul(c, mat[i][j]))
    return out


@pytest.mark.parametrize("ring_text, relations, f_text", [
    ("F2[x,y]", "x^3+x+1;y^2", "x^1000000000*y+x^6+1"),       # packed rows
    ("F3[x,y]", "x^2+1;y^2-y", "x^1000000001*y^7-x^5+1"),     # dict rows
    ("Q[x,y]", "x^2+1;y^2", "x^1000000000-x*y^1000000000+3"),
])
def test_killing_columns_match_the_dense_reference(ring_text, relations, f_text):
    # x acts invertibly, so x^e never becomes zero: the columns must come
    # from repeated squaring, not e one-step products
    ring = QuotientPresentation.parse(ring_text).ambient
    M = quotient_module(ideal(ring, dsl.parse_polys(ring, relations)))
    f = dsl.parse_poly(ring, f_text)
    coords = _coordinates(M, [f])
    assert coords.killing == [coords._columns(poly_action(M, f))]


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


def test_killing_polynomial_from_another_ring_is_refused():
    ring = PolyRing(GF2, ["x"])
    M = quotient_module(ideal(ring, [ring.var("x") ** 2]))
    with pytest.raises(ValueError, match="different ring"):
        quasilength_exact(M, ideal(R2, [R2.var("x")]))


def test_search_limit_and_greedy_fallback():
    ring = PolyRing(GF3, ["x"])
    x = ring.var("x")
    M = quotient_module(ideal(ring, [x ** 9]))  # dim 9 > cap 8 over F3
    I = ideal(ring, [x ** 3])
    assert quasilength_exact(M, I)[0] == 3  # the bounds meet above the cap
    b = quasilength(M, I)
    assert b.lower <= b.upper and b.certificate.validated.ok
    assert any("greedy" in f for f in b.flags)
    assert b.exact == 3  # greedy happens to be optimal here: 9/3
    # bounds 5..6 above the cap: no exact value
    R = PolyRing(GF3, ["x", "y"])
    with pytest.raises(SearchLimit, match="dim 9 exceeds the exact-search cap 8"):
        quasilength_exact(_quo(R, "x^3;y^3"), ideal(R, dsl.parse_polys(R, "x;y^2")))


F5 = PrimeField(5)
F2T = RationalFunctionField(2)
F3T = RationalFunctionField(3)
_FINITE = "exact search requires a finite coefficient field"
_POOL = "upper bound from the greedy sweep or the {0,1,-1}-coordinate pool"
_GREEDY = "upper bound from the greedy sweep"


def _field_id(value):
    return repr(value) if isinstance(value, Field) else None


@pytest.mark.parametrize("field, relations, killing, dim, want", [
    (GF2, "x^3;y^4", "x;y^2", 12, (6, 6, 6, "exact", ())),
    (GF2, "x^5;y^3;x^3*y^2", "x;y^2", 13,
     (7, 8, None, "length-ratio", ("dim 13 exceeds the exact-search cap 12", _GREEDY))),
    (GF3, "x^2;y^4", "x;y^2", 8, (4, 4, 4, "exact", ())),
    (GF3, "x^3;y^3", "x;y^2", 9,
     (5, 6, None, "length-ratio", ("dim 9 exceeds the exact-search cap 8", _GREEDY))),
    (F5, "x^2;y^4", "x;y^2", 8, (4, 4, 4, "exact", ())),
    (F5, "x^3;y^3", "x;y^2", 9,
     (5, 6, None, "length-ratio", ("dim 9 exceeds the exact-search cap 8", _GREEDY))),
    (QQ, "x^2;y^4", "x;y^2", 8, (4, 4, 4, "length-ratio", (_FINITE, _POOL))),
    (QQ, "x^2;y^3", "x;y^2", 6, (3, 4, None, "length-ratio", (_FINITE, _POOL))),
    (QQ, "x^3;y^3", "x;y^2", 9,
     (5, 6, None, "length-ratio", ("dim 9 exceeds the exact-search cap 8", _GREEDY))),
    (F2T, "x^2;y^4", "x;y^2", 8, (4, 4, 4, "length-ratio", (_FINITE, _POOL))),
    (F2T, "x^2-y;y^4", "x^2;y", 8, (4, 4, 4, "length-ratio", (_FINITE, _POOL))),
    (F2T, "x^3;y^3", "x;y^2", 9,
     (5, 6, None, "length-ratio", ("dim 9 exceeds the exact-search cap 8", _GREEDY))),
    (F3T, "x^2;y^4", "x;y^2", 8, (4, 4, 4, "length-ratio", (_FINITE, _POOL))),
    (F3T, "x^3;y^3", "x;y^2", 9,
     (5, 6, None, "length-ratio", ("dim 9 exceeds the exact-search cap 8", _GREEDY))),
], ids=_field_id)
def test_bounds_on_both_sides_of_each_cap(field, relations, killing, dim, want):
    ring = PolyRing(field, ["x", "y"])
    M = _quo(ring, relations)
    assert M.dim == dim
    I = ideal(ring, dsl.parse_polys(ring, killing))
    b = quasilength(M, I)
    assert (b.lower, b.upper, b.exact, b.lower_method, b.flags) == want
    assert b.certificate.validated.ok
    # quasilength_exact answers exactly where the bounds meet
    if b.exact is None:
        with pytest.raises(SearchLimit) as err:
            quasilength_exact(M, I)
        assert str(err.value) == b.flags[0]
    else:
        value, cert = quasilength_exact(M, I)
        assert value == b.exact == len(cert) and cert.validated.ok


@pytest.mark.parametrize("field, pools", [
    (GF2, {12: range(2), 13: None}),  # F_p's elements 0..p-1, never copied
    (GF3, {8: range(3), 9: None}),
    (QQ, {8: ((0, 1), (1, 1), (-1, 1)), 9: None}),
    (F2T, {8: (F2T.zero, F2T.one), 9: None}),  # -1 = 1 over F2(t)
    (F3T, {8: (F3T.zero, F3T.one, F3T.from_int(2)), 9: None}),
], ids=_field_id)
def test_search_pool_is_the_one_plan(field, pools):
    for dim, pool in pools.items():
        got, limit = search_pool(field, dim)
        assert got == pool
        if pool is None:  # the cap, not the field, is why no search runs
            assert limit == f"dim {dim} exceeds the exact-search cap {dim - 1}"
        elif field.size is None:
            assert limit == _FINITE
        else:
            assert limit is None


def test_pool_search_over_f2t_walks_each_class_once():
    # -1 = 1 over F2(t): a pool of {0, 1, 1} would close 679 candidates.
    # Lower 4 < greedy 5, so the search runs (the pinned F3 module's twin)
    R = PolyRing(F2T, ["x", "y"])
    M = direct_sum(_quo(R, "x^2;x*y;y^3"), _quo(R, "x^2;y^2"))
    with _key_log() as keys:
        b = quasilength(M, ideal(R, dsl.parse_polys(R, "x;y^2")))
    assert (b.lower, b.upper, b.exact, b.lower_method) == (4, 4, 4, "length-ratio")
    assert len(keys) == 1 + 280  # the start span, then each closure


def test_quasilength_builds_one_coordinate_helper(monkeypatch):
    ql_module = importlib.import_module("qlc.quasilength")
    calls = []
    original = ql_module._coordinates

    def counted(M, killing):
        calls.append(M)
        return original(M, killing)

    monkeypatch.setattr(ql_module, "_coordinates", counted)
    above_cap = _above_cap_module(lambda x, y: [x ** 2, y ** 2])  # the greedy sweep
    for M, I in _pinned_modules() + (above_cap,):
        for entry in (quasilength, quasilength_exact):
            calls.clear()
            with suppress(SearchLimit):  # the Q module whose bounds do not meet
                entry(M, I)
            assert calls == [M]


def test_lower_length_ratio():
    ring = PolyRing(GF2, ["x", "y"])
    x, y = ring.gens()
    I = ideal(ring, [x, y])
    for t in (1, 2, 3):
        M = quotient_module(ideal(ring, [x ** t, y ** t]))
        assert _factor_dim(M, I) == 1  # length(R/(I + K))
        assert _lower_bound(M, _coordinates(M, I.generators), 1)[0] == t * t
        assert quasilength_exact(M, I)[0] == t * t
    # a direct sum keeps no K, and R/(x) has infinite length: the cap is dim M
    M = direct_sum(M, M)
    assert _factor_dim(M, ideal(ring, [x])) == M.dim
    with pytest.raises(NoFiltration):
        _factor_dim(M, ideal(ring, [ring.one()]))


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


def test_parameter_powers_check_t_and_the_parameters():
    pres = QuotientPresentation.parse("F2[x,y]")
    x, y = pres.ambient.var("x"), pres.ambient.var("y")
    assert parameter_powers((g for g in (x, x + y)), 3) == (x ** 3, (x + y) ** 3)
    for xs, t in (((x, y), 0), ((x, y), -1), ((), 2)):
        with pytest.raises(ValueError, match=f"t >= 1 and at least one parameter, got t={t}"):
            parameter_powers(xs, t)


def test_staircase_exponents_are_the_sorted_order():
    for t in range(1, 6):
        for d in range(1, 5):
            want = sorted(itertools.product(range(t), repeat=d),
                          key=lambda e: (-sum(e), tuple(-c for c in e)))
            assert list(_staircase_exponents(t, d)) == want


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
    assert payload == certificate_payload(cert)
    assert payload["schema"] == 1 and payload["kind"] == "ring-filtration"
    back = certificate_from_json(text)
    assert back.validated.status == "unchecked"  # verdicts never ride along
    assert validate_filtration(back).ok
    assert [dsl.format_poly(g) for g in back.generators] == \
        [dsl.format_poly(g) for g in cert.generators]


def test_module_certificates_serialize_for_reading_only(tmp_path, capsys):
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x ** 2]))
    _, cert = quasilength_exact(M, ideal(ring, [x ** 2]))
    # one writer: the library's JSON is the file ql exact --cert-out writes
    path = tmp_path / "cert.json"
    assert run(["ql", "exact", "--ring", "F2[x]", "--top", "x", "--bottom", "x^2",
                "--killing", "x^2", "--cert-out", str(path)]) == 0
    capsys.readouterr()
    text = certificate_to_json(cert)
    assert text == path.read_text()
    with pytest.raises(ValueError, match="not a ring filtration payload"):
        certificate_from_json(text)
    # their payload is for reading only: coordinates, no ring to parse back
    payload = certificate_payload(cert)
    assert payload == {"schema": 1, "kind": "module-filtration", "killing": ["x^2"],
                       "basis": list(M.labels), "generators": [M.format_vector([1])],
                       "coordinates": [["1"]], "validated": "valid"}


def test_zero_module_has_zero_quasilength():
    ring = PolyRing(GF2, ["x"])
    x = ring.var("x")
    M = vector_module(ideal(ring, [x]), ideal(ring, [x]))
    assert M.dim == 0
    b = quasilength(M, ideal(ring, [x]))
    assert b.exact == 0 and len(b.certificate) == 0


# ---------------------------------------------------------------------------
# reference: the search on dict rows, matrices scanned row by row.  The engine
# runs F_2 searches on packed rows with column-sparse matrices; it must walk
# the same spans, in the same order, to the same chain.


def _ref_apply(F, A, vec):
    out = {}
    n = len(A)
    for j, c in vec.items():
        if c == F.zero:
            continue
        for i in range(n):
            a = A[i][j]
            if a == F.zero:
                continue
            s = F.add(out.get(i, F.zero), F.mul(a, c))
            if s == F.zero:
                out.pop(i, None)
            else:
                out[i] = s
    return out


def _ref_candidate_rows(M, space, mats):
    F = M.field
    n = M.dim
    constraints = []
    for A in mats:
        residues = []
        for j in range(n):
            col = {i: A[i][j] for i in range(n) if A[i][j] != F.zero}
            residues.append(space.reduce(col))
        for coord in sorted({k for r in residues for k in r}):
            constraints.append([residues[j].get(coord, F.zero) for j in range(n)])
    res = RowSpace(F)
    for b in nullspace(F, constraints, n):
        vec = {i: c for i, c in enumerate(b) if c != F.zero}
        res.insert(space.reduce(vec))
    return [dict(r) for r in res.basis()]


def _ref_combos(F, rows, coeff_pool):
    lead = coeff_pool[1] if coeff_pool[0] == F.zero else coeff_pool[0]
    k = len(rows)
    for lead_at in range(k):
        for tail in itertools.product(coeff_pool, repeat=k - lead_at - 1):
            coeffs = (F.zero,) * lead_at + (lead,) + tail
            vec = {}
            for c, row in zip(coeffs, rows):
                if c == F.zero:
                    continue
                for col, rc in row.items():
                    s = F.add(vec.get(col, F.zero), F.mul(c, rc))
                    if s == F.zero:
                        vec.pop(col, None)
                    else:
                        vec[col] = s
            yield vec


class _TooLarge(Exception):
    pass


def reference_search(M, I, coeff_pool, max_candidates, bound=None):
    """Breadth-first search over action-closed subspaces on dict rows;
    raises _TooLarge past max_candidates candidate closures.

    With bound = (U, denom), a span S first reached at depth k is not
    expanded when k + ceil((dim M - dim S) / denom) >= U, and None means
    that no chain shorter than U was found.  With no bound every span is
    expanded."""
    F = M.field
    mats = [poly_action(M, f) for f in I.generators]
    actions = [M.actions[var] for var in M.ring.variables]

    def images(row):
        return [_ref_apply(F, A, row) for A in actions]

    start = RowSpace(F)
    start_key = start.key()
    if M.dim == 0:
        return []
    parents = {start_key: None}
    queue = deque([(start_key, start, 0)])
    candidates = 0
    while queue:
        key, space, depth = queue.popleft()
        rows = _ref_candidate_rows(M, space, mats)
        for vec in _ref_combos(F, rows, coeff_pool):
            candidates += 1
            if candidates > max_candidates:
                raise _TooLarge
            nxt = space.copy()
            nxt.close([vec], images)
            nkey = nxt.key()
            if nkey in parents:
                continue
            parents[nkey] = (key, tuple(vec.get(i, F.zero) for i in range(M.dim)))
            if nxt.dim == M.dim:
                chain = []
                cur = nkey
                while parents[cur] is not None:
                    cur, gen = parents[cur]
                    chain.append(gen)
                chain.reverse()
                return chain
            if bound is None or depth + 1 + -(-(M.dim - nxt.dim) // bound[1]) < bound[0]:
                queue.append((nkey, nxt, depth + 1))
    if bound is None:
        raise NoFiltration("reference search exhausted")
    return None


@contextmanager
def _key_log():
    """Every RowSpace.key result while the block runs: one per span the
    search reaches, the zero span included."""
    seen = []
    original = RowSpace.key

    def key(self):
        got = original(self)
        seen.append(got)
        return got

    RowSpace.key = key
    try:
        yield seen
    finally:
        RowSpace.key = original


R2 = PolyRing(GF2, ["x", "y"])
R2xyz = PolyRing(GF2, ["x", "y", "z"])
R3 = PolyRing(GF3, ["x", "y"])
F2_POOL = (GF2.zero, GF2.one)
REFERENCE = settings(max_examples=40, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.filter_too_much])


@st.composite
def _monomial_modules(draw, rings=(R2, R2xyz), low=2, killings=()):
    """A monomial quotient of one of rings (by default F2[x,y] or
    F2[x,y,z]), each variable's pure power from exponent low up, or a sum
    of two, and a killing ideal of pure powers or one of killings."""
    ring = draw(st.sampled_from(rings))
    n = ring.nvars

    def summand():
        gens = []
        for i in range(n):
            exps = [0] * n
            exps[i] = draw(st.integers(low, 4 if n == 2 else 3))
            gens.append(ring.monomial(tuple(exps)))
        for exps in draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=2)):
            if any(exps):
                gens.append(ring.monomial(exps))
        return quotient_module(ideal(ring, gens))

    M = summand()
    if draw(st.booleans()):
        M = direct_sum(M, summand())
    if killings and draw(st.booleans()):
        return M, ideal(ring, dsl.parse_polys(ring, draw(st.sampled_from(killings))))
    killing = [v ** draw(st.integers(1, 2)) for v in ring.gens()]
    return M, ideal(ring, killing)


def _above_cap_module(killing):
    """F2[x,y]/(x^4,y^4), dim 16, above the exact-search cap."""
    x, y = R2.gens()
    return quotient_module(ideal(R2, [x ** 4, y ** 4])), ideal(R2, killing(x, y))


def _bounded_reference(M, I, coeff_pool, max_candidates):
    """The engine's plan with the walk on dict rows: the greedy chain when
    the lower bound meets its length, else the reference search bounded by
    that length, else (no shorter chain) the greedy chain."""
    coords = _coordinates(M, I.generators)
    denom = _factor_dim(M, I)
    greedy = _greedy_chain(coords)
    if _lower_bound(M, coords, denom)[0] >= len(greedy):
        return greedy
    bound = (len(greedy), denom)
    return reference_search(M, I, coeff_pool, max_candidates, bound) or greedy


@REFERENCE
@given(_monomial_modules())
@example(_above_cap_module(lambda x, y: [x ** 2, y ** 2]))
@example(_above_cap_module(lambda x, y: [x, y ** 2]))
def test_packed_search_walks_like_the_dict_reference(case):
    M, I = case
    assume(1 <= M.dim <= 16)
    with _key_log() as want:
        try:
            expected = _bounded_reference(M, I, F2_POOL, max_candidates=4000)
        except _TooLarge:
            expected = None
    assume(expected is not None)
    with _key_log() as got:
        if search_pool(GF2, M.dim)[1] is None:
            value, cert = quasilength_exact(M, I)
            chain = list(cert.generators)
            assert value == len(chain) and cert.validated.ok
        else:  # above the cap: the search itself
            coords = _coordinates(M, I.generators)
            denom = _factor_dim(M, I)
            chain = _search(coords, F2_POOL, _lower_bound(M, coords, denom)[0], denom)
    assert chain == expected
    assert len(set(got)) == len(set(want))  # distinct spans
    assert len(got) == len(want)            # candidate closures


@settings(REFERENCE, max_examples=80)
@given(_monomial_modules((R2, R3), low=1, killings=("x*y;x^2;y^2", "x+y;x*y", "x^2;y")))
def test_pruning_keeps_the_unpruned_value_and_chain(case):
    # the bounded search against a breadth-first search with no pruning:
    # the same value always, the same chain wherever it beats the greedy one
    M, I = case
    pool = search_pool(M.field, M.dim)[0]
    assume(M.dim >= 1 and pool is not None)
    try:
        unpruned = reference_search(M, I, tuple(pool), max_candidates=3000)
    except _TooLarge:
        unpruned = None
    assume(unpruned is not None)
    value, cert = quasilength_exact(M, I)
    assert value == len(unpruned) and cert.validated.ok
    if value < len(_greedy_chain(_coordinates(M, I.generators))):
        assert list(cert.generators) == unpruned


def _quo(ring, text):
    return quotient_module(ideal(ring, dsl.parse_polys(ring, text)))


def _pinned_modules():
    RQ = PolyRing(QQ, ["x", "y"])
    f2 = direct_sum(_quo(R2, "x^2;y^3"), _quo(R2, "x^3;y^2"))
    f3 = direct_sum(_quo(R3, "x^2;x*y;y^3"), _quo(R3, "x^2;y^2"))
    q = direct_sum(_quo(RQ, "x^2;y^2"), _quo(RQ, "x^2;y^2"))
    q3 = direct_sum(_quo(RQ, "x^2;x*y;y^3"), _quo(RQ, "x^2;y^2"))
    return ((f2, ideal(R2, dsl.parse_polys(R2, "x^2;y^2"))),
            (f3, ideal(R3, dsl.parse_polys(R3, "x;y^2"))),
            (q, ideal(RQ, dsl.parse_polys(RQ, "x;y"))),
            (q3, ideal(RQ, dsl.parse_polys(RQ, "x;y^2"))))


@pytest.mark.parametrize("which, spans, candidates, chain", [
    # lower 3 < exact 4 = greedy 4: the pruned walk runs out, so the greedy
    # chain is the certificate
    (0, 239, 1228, ["(0,x)", "(y,0)", "(0,1)", "(1,0)"]),
    # lower 4 = exact 4 < greedy 5: the walk finds the unpruned walk's chain
    (1, 352, 1625, ["(x,0) + (0,x)", "(x,0) + (y,0) + (0,y)", "(1,0) + (0,1)",
                    "(1,0)"]),
    # over Q, lower 8 = greedy 8: the greedy chain, with no search at all
    (2, 0, 0, ["(0,x*y)", "(x*y,0)", "(0,y)", "(0,x)", "(y,0)", "(x,0)",
               "(0,1)", "(1,0)"]),
    # over Q, lower 4 < greedy 5: the {0,1,-1}-coordinate pool search meets
    # the lower bound with row 1's chain
    (3, 524, 1993, ["(x,0) + (0,x)", "(x,0) + (y,0) + (0,y)", "(1,0) + (0,1)",
                    "(1,0)"]),
], ids=["f2-greedy-is-exact", "f3-below-greedy", "q-bounds-meet", "q-pool-below-greedy"])
def test_exact_search_walks_are_pinned(which, spans, candidates, chain):
    M, I = _pinned_modules()[which]
    with _key_log() as keys:
        bounds = quasilength(M, I)
    assert bounds.exact == len(chain) and bounds.certificate.validated.ok
    assert len(set(keys)) == spans           # the zero span included
    # the start span, then each closure; no span is keyed without a search
    assert len(keys) == (spans and 1 + candidates)
    assert [M.format_vector(g) for g in bounds.certificate.generators] == chain


def test_lower_bound_uses_min_generators_on_nilpotent_actions():
    R1 = PolyRing(QQ, ["x"])
    M = direct_sum(_quo(R1, "x^2"), _quo(R1, "x^2"))
    assert _all_nilpotent(_coordinates(M, ())) is True
    bounds = quasilength(M, ideal(R1, dsl.parse_polys(R1, "x^2")))
    assert (bounds.lower, bounds.exact) == (2, 2)
    assert bounds.lower_method == "min-generators"


def test_lower_bound_skips_min_generators_on_an_idempotent_action():
    R1 = PolyRing(QQ, ["x"])
    M = direct_sum(_quo(R1, "x^2-x"), _quo(R1, "x^2-x"))
    assert _all_nilpotent(_coordinates(M, ())) is False  # x acts as a nonzero idempotent
    bounds = quasilength(M, ideal(R1, dsl.parse_polys(R1, "x^2-x")))
    assert (bounds.lower, bounds.exact) == (2, 2)
    assert bounds.lower_method == "length-ratio"


# ---------------------------------------------------------------------------
# the colon: one RowSpace elimination on the search's own rows, against the
# dense nullspace of the stacked residue constraints


RING_KINDS = [R2, PolyRing(GF3, ["x", "y"]), PolyRing(QQ, ["x", "y"])]
COLON = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _colon_cases(draw):
    """A quotient of K[x,y] (K = F2, F3 or Q) or a sum of two, a killing
    ideal whose generators may have several terms and a constant term, and
    vectors whose action-closed span is the colon's input."""
    ring = draw(st.sampled_from(RING_KINDS))

    def summand():
        if draw(st.booleans()):  # not local: x has eigenvalues 0 and 1, or +-1
            return _quo(ring, draw(st.sampled_from(["x^2-x;y^2", "x^2-1;x*y;y^2",
                                                    "x^3-x;y^2-y"])))
        extra = draw(st.sampled_from(["", ";x*y", ";x^2-y", ";x*y-y^2"]))
        return _quo(ring, f"x^{draw(st.integers(1, 3))};y^{draw(st.integers(1, 3))}"
                    + extra)

    M = summand()
    if draw(st.booleans()):
        M = direct_sum(M, summand())
    killing = draw(st.lists(st.sampled_from(["x", "y^2", "x^2-y", "1+x*y", "x*y+y",
                                             "x+1", "x-1+y"]),
                            min_size=1, max_size=3, unique=True))
    coeffs = st.lists(st.integers(-2, 2), min_size=M.dim, max_size=M.dim)
    gens = [[ring.field.from_int(c) for c in g]
            for g in draw(st.lists(coeffs, max_size=3))]
    return M, ideal(ring, [dsl.parse_poly(ring, f) for f in killing]), gens


@COLON
@given(_colon_cases())
@example((_quo(R2, "x^3;y^2"), ideal(R2, dsl.parse_polys(R2, "1+x*y;x^2-y")),
          [[0, 1, 0, 0, 0, 0]]))
def test_colon_rows_match_the_dense_reference(case):
    M, I, gens = case
    F = M.field
    coords = _coordinates(M, I.generators)
    assert isinstance(coords, _BitCoords) == (F.size == 2)
    space = coords.space()
    space.close([coords.pack(g) for g in gens], coords.images)
    actions = [M.actions[var] for var in M.ring.variables]
    ref = RowSpace(F)
    ref.close([{i: c for i, c in enumerate(g) if c != F.zero} for g in gens],
              lambda row: [_ref_apply(F, A, row) for A in actions])
    assert space.dim == ref.dim
    mats = [poly_action(M, f) for f in I.generators]
    want = [tuple(r.get(i, F.zero) for i in range(M.dim))
            for r in _ref_candidate_rows(M, ref, mats)]
    assert [coords.unpack(r) for r in _candidate_rows(coords, space)] == want


def test_certificate_check_catches_a_corrupted_packed_step():
    M, I = _pinned_modules()[0]
    _, cert = quasilength_exact(M, I)
    gens = list(cert.generators)
    gens[1] = tuple(int(label == "(1,0)") for label in M.labels)  # was (y,0)
    verdict = validate_filtration(FiltrationCertificate(cert.context, cert.killing,
                                                        tuple(gens)))
    assert verdict.status == "invalid" and verdict.step == 2
    assert verdict.witness == "(y^2)*((1,0)) not in stage 1"


def test_certificate_check_catches_a_faulty_packed_search(monkeypatch):
    # a packed-path fault (coordinates read back in reverse) must not
    # certify its own answer: the dict-row check refuses the chain
    M, I = _pinned_modules()[0]
    unpack = _BitCoords.unpack
    monkeypatch.setattr(_BitCoords, "unpack", lambda self, vec: unpack(self, vec)[::-1])
    with pytest.raises(InternalError, match="invalid certificate"):
        quasilength_exact(M, I)
