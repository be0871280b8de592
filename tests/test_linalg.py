import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qlc.fields import GF2, GF3, QQ
from qlc.linalg import RowSpace, nullspace


def dense(vec: dict, n, F):
    return [vec.get(i, F.zero) for i in range(n)]


def test_insert_and_dim():
    S = RowSpace(GF2)
    assert S.insert({0: 1, 1: 1}) is not None
    assert S.insert({1: 1}) is not None
    assert S.insert({0: 1}) is None  # dependent on the first two
    assert S.dim == 2


def test_reduce_is_linear_and_fresh():
    rng = random.Random(11)
    F = GF3
    S = RowSpace(F)
    for _ in range(4):
        S.insert({i: rng.randrange(3) for i in range(6)})
    for _ in range(40):
        u = {i: rng.randrange(3) for i in range(6)}
        v = {i: rng.randrange(3) for i in range(6)}
        u0, v0 = dict(u), dict(v)
        ru = S.reduce(u)
        rv = S.reduce(v)
        assert u == u0 and v == v0  # inputs untouched
        w = {i: F.add(u.get(i, 0), v.get(i, 0)) for i in range(6)}
        rw = S.reduce(w)
        combined = {}
        for i in range(6):
            s = F.add(ru.get(i, 0), rv.get(i, 0))
            if s != F.zero:
                combined[i] = s
        assert {i: c for i, c in rw.items() if c != F.zero} == combined


def test_reduce_to_zero_iff_member():
    F = QQ
    S = RowSpace(F)
    rows = [{0: F.from_int(1), 2: F.from_int(2)}, {1: F.from_int(1)}]
    for r in rows:
        S.insert(dict(r))
    member = {0: F.from_int(3), 1: F.from_int(-1), 2: F.from_int(6)}
    assert not S.reduce(member)
    assert S.reduce({2: F.one})


def test_key_is_basis_independent():
    F = GF2
    a = RowSpace(F)
    b = RowSpace(F)
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    for r in rows:
        a.insert(dict(r))
    for r in reversed(rows):
        b.insert(dict(r))
    # same span reached through different insert orders
    extra = {0: 1, 2: 1}
    a.insert(dict(extra))
    b.insert(dict(extra))
    assert a.key() == b.key()
    assert a.key() != RowSpace(F).key()


def _mat_vec(F, rows, vec):
    out = []
    for row in rows:
        acc = F.zero
        for j, c in enumerate(row):
            acc = F.add(acc, F.mul(c, vec[j]))
        out.append(acc)
    return out


def test_nullspace_solves_and_is_canonical():
    rng = random.Random(7)
    for F, draw in ((GF2, lambda: rng.randrange(2)),
                    (GF3, lambda: rng.randrange(3)),
                    (QQ, lambda: QQ.from_int(rng.randrange(-3, 4)))):
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = rng.randrange(0, 4)
            rows = [[draw() for _ in range(n)] for _ in range(m)]
            basis = nullspace(F, rows, n)
            for v in basis:
                assert any(c != F.zero for c in v)
                assert all(c == F.zero for c in _mat_vec(F, rows, v))
            again = nullspace(F, rows, n)
            assert again == basis
            # rank-nullity on an independent rank computation
            S = RowSpace(F)
            for r in rows:
                S.insert({i: c for i, c in enumerate(r) if c != F.zero})
            assert len(basis) == n - S.dim


def test_nullspace_no_constraints_is_identity():
    basis = nullspace(GF2, [], 3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# packed F_2 rows, checked against dict rows over the same field

PACKED = settings(max_examples=200, deadline=None, derandomize=True)


def _to_dict(bits: int) -> dict:
    return {i: 1 for i in range(bits.bit_length()) if (bits >> i) & 1}


@st.composite
def _packed_case(draw):
    n = draw(st.integers(1, 20))
    vec = st.integers(0, 2 ** n - 1)
    return n, draw(st.lists(vec, max_size=8)), draw(vec), draw(vec)


def test_coordinates_picks_the_row_kind_from_the_field():
    assert RowSpace.coordinates(GF2).packed
    assert not RowSpace.coordinates(GF3).packed
    assert not RowSpace.coordinates(QQ).packed
    assert not RowSpace(GF2).packed


@PACKED
@given(_packed_case())
def test_packed_rows_equal_dict_rows(case):
    _n, rows, u, _v = case
    packed, plain = RowSpace.coordinates(GF2), RowSpace(GF2)
    for r in rows:
        got, want = packed.insert(r), plain.insert(_to_dict(r))
        assert (got is None) == (want is None)
        if got is not None:
            assert _to_dict(got) == want
    assert [_to_dict(r) for r in packed.basis()] == plain.basis()
    assert _to_dict(packed.reduce(u)) == plain.reduce(_to_dict(u))
    copy = packed.copy()
    copy.insert(u)
    assert [_to_dict(r) for r in packed.basis()] == plain.basis()  # copy is separate


@PACKED
@given(_packed_case())
def test_packed_reduce_is_linear(case):
    _n, rows, u, v = case
    S = RowSpace.coordinates(GF2)
    for r in rows:
        S.insert(r)
    assert S.reduce(u ^ v) == S.reduce(u) ^ S.reduce(v)
    assert S.reduce(S.reduce(u)) == S.reduce(u)


@PACKED
@given(_packed_case(), st.lists(st.booleans(), min_size=8, max_size=8))
def test_packed_reduce_to_zero_iff_member(case, picks):
    _n, rows, u, _v = case
    S = RowSpace.coordinates(GF2)
    for r in rows:
        S.insert(r)
    member = 0
    for r, pick in zip(rows, picks):
        if pick:
            member ^= r
    assert S.reduce(member) == 0
    assert S.reduce(u ^ S.reduce(u)) == 0  # u minus its residue lies in the span
    grown = S.copy()
    assert (grown.insert(u) is None) == (S.reduce(u) == 0)


@PACKED
@given(_packed_case(), st.randoms(use_true_random=False))
def test_packed_key_is_basis_independent(case, rng):
    _n, rows, u, _v = case
    a, b = RowSpace.coordinates(GF2), RowSpace.coordinates(GF2)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    for r in rows:
        a.insert(r)
    for r in shuffled:
        b.insert(r)
    assert a.key() == b.key()
    plain = RowSpace(GF2)
    for r in rows:
        plain.insert(_to_dict(r))
    grown = a.copy()
    grown.insert(u)
    # equal keys exactly when the dict keys are equal, i.e. equal spans
    plain_grown = plain.copy()
    plain_grown.insert(_to_dict(u))
    assert (grown.key() == a.key()) == (plain_grown.key() == plain.key())


@PACKED
@given(_packed_case(), st.lists(st.integers(0, 2 ** 20 - 1), min_size=2, max_size=2))
def test_packed_close_equals_dict_close(case, seeds):
    n, rows, u, _v = case
    # two maps given by their columns: column j is a shifted seed, cut to n bits
    full = (1 << n) - 1
    maps = [[((s >> j) | (s << (n - j))) & full for j in range(n)] for s in seeds]

    def packed_images(row):
        out = []
        for cols in maps:
            img = 0
            for j in range(n):
                if (row >> j) & 1:
                    img ^= cols[j]
            out.append(img)
        return out

    def plain_images(row):
        return [_to_dict(img) for img in packed_images(sum(1 << j for j in row))]

    packed, plain = RowSpace.coordinates(GF2), RowSpace(GF2)
    packed.close(rows[:1] + [u], packed_images)
    plain.close([_to_dict(r) for r in rows[:1] + [u]], plain_images)
    assert [_to_dict(r) for r in packed.basis()] == plain.basis()
