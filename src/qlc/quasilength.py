"""Shortest one-generator-at-a-time filtrations.

A filtration certificate is a list of generators g_1, ..., g_h together with a
killing ideal I: it claims the chain M_0 = 0, M_j = M_{j-1} + R*g_j exhausts
the module while every step satisfies I*g_j <= M_{j-1}.  The minimum h over
all such chains is the quasilength of the module with respect to I.  This
module validates certificates, builds the staircase certificate for powers of
a parameter system, transports certificates along Frobenius, and computes the
minimum exactly (small modules over finite fields) or brackets it between a
length-ratio lower bound and a certified upper bound.

Certificates come in two flavours.  Ring contexts live in a quotient of a
polynomial ring: the module is R/(relations + target) and generators are
polynomials.  Module contexts carry an explicit VectorModule and generators
are coordinate vectors; they validate in-process but do not serialize.

The search works on coordinate vectors in the row kind the field picks
(RowSpace.coordinates): ints read as bit vectors over F_2, dicts of nonzero
coordinates otherwise.  One helper per search holds every action and
killing matrix as its columns, so applying a matrix visits only the nonzero
entries.  Both kinds walk the same spans in the same order.  Module
certificates are checked on dict rows whatever the field, so a fault in the
packed path cannot certify its own answer.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field as dc_field

from . import dsl
from .config import check_budget
from .groebner import IdealHandle, InternalError
from .linalg import RowSpace, identity, mat_mul, nullspace
from .poly import Polynomial, frobenius_power, grevlex
from .quotient import (NotZeroDimensional, QuotientPresentation, VectorModule,
                       length, min_generators)


class NoFiltration(Exception):
    """The module admits no finite filtration for the given killing ideal."""


class SearchLimit(Exception):
    """Exact search declined (infinite field, or dimension above the cap)."""


@dataclass(frozen=True)
class Verdict:
    status: str = "unchecked"  # unchecked | valid | invalid
    step: int | None = None    # first failing step, 1-based; h+1 means not spanning
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "valid"


@dataclass
class RingContext:
    presentation: QuotientPresentation
    target: tuple  # polynomials generating the quotiented-out ideal


@dataclass
class ModuleContext:
    module: VectorModule


@dataclass
class FiltrationCertificate:
    context: RingContext | ModuleContext
    killing: tuple
    generators: tuple  # polynomials (ring context) or dense coordinate tuples
    validated: Verdict = dc_field(default_factory=Verdict)

    def __len__(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# validation


def validate_filtration(cert: FiltrationCertificate, order=grevlex) -> Verdict:
    """Check every step of a certificate; records and returns the verdict.

    Invalid verdicts carry the 1-based step and a witness description.  A
    chain whose steps all pass but which fails to exhaust the module is
    reported as invalid at step h+1 with no witness.
    """
    if isinstance(cert.context, RingContext):
        verdict = _validate_ring(cert, order)
    elif isinstance(cert.context, ModuleContext):
        verdict = _validate_module(cert)
    else:
        raise TypeError(f"unknown certificate context {cert.context!r}")
    cert.validated = verdict
    return verdict


def _validate_ring(cert: FiltrationCertificate, order) -> Verdict:
    pres = cert.context.presentation
    stage = pres.ideal(cert.context.target)
    for j, g in enumerate(cert.generators, 1):
        for f in cert.killing:
            check_budget()
            if not stage.contains_poly(f * g, order):
                witness = f"({dsl.format_poly(f)})*({dsl.format_poly(g)}) not in stage {j - 1}"
                return Verdict("invalid", j, witness)
        stage = stage.plus(g, order)
    if not stage.is_unit_ideal(order):
        return Verdict("invalid", len(cert.generators) + 1, None)
    return Verdict("valid")


def _validate_module(cert: FiltrationCertificate) -> Verdict:
    # dict rows whatever the field, so the check shares no row code with the
    # packed F_2 search whose answers it certifies
    M = cert.context.module
    coords = _DictCoords(M, cert.killing)
    space = RowSpace(M.field)
    for j, gen in enumerate(cert.generators, 1):
        vec = coords.pack(gen)
        for f, cols in zip(cert.killing, coords.killing):
            check_budget()
            if space.reduce(coords.apply(cols, vec)):
                witness = (f"({dsl.format_poly(f)})*({M.format_vector(list(gen))})"
                           f" not in stage {j - 1}")
                return Verdict("invalid", j, witness)
        space.close([vec], coords.images)
    if space.dim != M.dim:
        return Verdict("invalid", len(cert.generators) + 1, None)
    return Verdict("valid")


# ---------------------------------------------------------------------------
# matrix plumbing


def poly_action(M: VectorModule, f: Polynomial):
    """Row-major matrix of multiplication by f on M's basis."""
    if f.ring != M.ring:
        raise ValueError("polynomial lives in a different ring than the module")
    F = M.field
    n = M.dim
    cache: dict = {}

    def var_power(vi: int, e: int):
        if e == 0:
            return identity(F, n)
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
        mat = None
        for vi, e in enumerate(mono):
            if e == 0:
                continue
            p = var_power(vi, e)
            mat = p if mat is None else mat_mul(F, mat, p)
        if mat is None:
            mat = identity(F, n)
        for i in range(n):
            row = mat[i]
            orow = out[i]
            for j in range(n):
                if row[j] != F.zero:
                    orow[j] = F.add(orow[j], F.mul(c, row[j]))
    return out


class _Coords:
    """Coordinate vectors of one module in one row kind, with every matrix
    (the variable actions, then one per killing generator) kept as its
    columns: {key of e_j: column j as a vector of the kind}.  Built once per
    search, so applying a matrix visits only the nonzero entries."""

    def __init__(self, M: VectorModule, killing):
        self.field = M.field
        self.dim = M.dim
        self.actions = [self._columns(M.actions[var]) for var in M.ring.variables]
        self.killing = [self._columns(poly_action(M, f)) for f in killing]

    def _columns(self, A) -> dict:
        rows = range(self.dim)
        return {self._unit_key(j): self.pack([A[i][j] for i in rows]) for j in rows}

    def images(self, row) -> list:
        """A row's images under every variable, for RowSpace.close."""
        # a loop: map() or a comprehension here costs the search about 1%
        # wall time on CPython 3.11
        out = []
        for cols in self.actions:
            out.append(self.apply(cols, row))
        return out


class _DictCoords(_Coords):
    """Dict rows {index: coeff} with no zero entries, over any field."""

    @staticmethod
    def _unit_key(j: int) -> int:
        return j

    def space(self) -> RowSpace:
        return RowSpace(self.field)

    def pack(self, dense) -> dict:
        zero = self.field.zero
        return {i: c for i, c in enumerate(dense) if c != zero}

    def unpack(self, vec: dict) -> tuple:
        zero = self.field.zero
        return tuple(vec.get(i, zero) for i in range(self.dim))

    @staticmethod
    def support(vecs) -> list:
        """Coordinates nonzero in some vec, ascending."""
        return sorted({i for vec in vecs for i in vec})

    def apply(self, cols: dict, vec: dict) -> dict:
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        out: dict = {}
        for j, c in vec.items():
            for i, a in cols[j].items():
                s = add(out.get(i, zero), mul(a, c))
                if s == zero:
                    del out[i]
                else:
                    out[i] = s
        return out

    def combine(self, coeffs, rows) -> dict:
        """sum of c * row over zip(coeffs, rows)."""
        F = self.field
        add, mul, zero = F.add, F.mul, F.zero
        vec: dict = {}
        for c, row in zip(coeffs, rows):
            if c == zero:
                continue
            for col, rc in row.items():
                s = add(vec.get(col, zero), mul(c, rc))
                if s == zero:
                    del vec[col]
                else:
                    vec[col] = s
        return vec


class _BitCoords(_Coords):
    """Packed rows over F_2: ints, bit i being coordinate i.  Columns are
    keyed by their unit bit, so applying a matrix XORs one column per set
    bit of the vector."""

    @staticmethod
    def _unit_key(j: int) -> int:
        return 1 << j

    def space(self) -> RowSpace:
        return RowSpace.coordinates(self.field)

    def pack(self, dense) -> int:
        vec = 0
        for i, c in enumerate(dense):
            if c:
                vec |= 1 << i
        return vec

    def unpack(self, vec: int) -> tuple:
        return tuple((vec >> i) & 1 for i in range(self.dim))

    def support(self, vecs) -> list:
        """Coordinates nonzero in some vec, ascending."""
        union = 0
        for vec in vecs:
            union |= vec
        return [i for i in range(self.dim) if (union >> i) & 1]

    @staticmethod
    def apply(cols: dict, vec: int) -> int:
        out = 0
        while vec:
            low = vec & -vec
            out ^= cols[low]
            vec ^= low
        return out

    @staticmethod
    def combine(coeffs, rows) -> int:
        """sum of c * row over zip(coeffs, rows)."""
        vec = 0
        for c, row in zip(coeffs, rows):
            if c:
                vec ^= row
        return vec


def _coordinates(M: VectorModule, I: IdealHandle):
    """The coordinate helper of one search, in the row kind that
    RowSpace.coordinates picks for the field."""
    packed = RowSpace.coordinates(M.field).packed
    return (_BitCoords if packed else _DictCoords)(M, I.generators)


def _colon_basis(coords, space: RowSpace) -> list:
    """Dense basis of {v in M : A*v in space for every killing matrix A}."""
    constraints = []
    for cols in coords.killing:
        residues = [space.reduce(col) for col in cols.values()]
        dense = [coords.unpack(r) for r in residues]
        for i in coords.support(residues):
            constraints.append([d[i] for d in dense])
    return nullspace(coords.field, constraints, coords.dim)


def _candidate_rows(coords, space: RowSpace) -> list:
    """Canonical residue basis of (space : I) / space, in the row kind."""
    res = coords.space()
    for b in _colon_basis(coords, space):
        res.insert(space.reduce(coords.pack(b)))
    return res.basis()


def _combos(coords, rows, coeff_pool):
    """Nonzero pool combinations of rows, one per projective class.

    The leading coefficient is pinned to the pool's first nonzero entry, the
    lead position runs left to right, and the tail ranges over the full pool;
    with an exhaustive pool this walks every one-dimensional class exactly
    once, in a deterministic order.
    """
    lead = coeff_pool[1] if coeff_pool[0] == coords.field.zero else coeff_pool[0]
    combine = coords.combine
    k = len(rows)
    for lead_at in range(k):
        rest = rows[lead_at:]
        for tail in itertools.product(coeff_pool, repeat=k - lead_at - 1):
            yield combine((lead,) + tail, rest)


# ---------------------------------------------------------------------------
# bounds and exact search


@dataclass
class QuasilengthBounds:
    lower: int
    upper: int | None
    exact: int | None
    certificate: FiltrationCertificate | None
    lower_method: str
    flags: tuple = ()


def lower_length_ratio(M: VectorModule, I: IdealHandle) -> int:
    """ceil(dim M / length(R/(I + K))), K the ideal M was built modulo.

    Every filtration factor is cyclic and killed by both I and K, so its
    length is at most length(R/(I + K)); dividing bounds the number of
    factors from below.  Raises NotZeroDimensional when that quotient has
    infinite length (the bound then says nothing).
    """
    if M.dim == 0:
        return 0
    gens = list(I.generators)
    if M.k_gb:
        gens.extend(M.k_gb)
    denom = length(IdealHandle(M.ring, gens))
    return -(-M.dim // denom)


def _all_nilpotent(M: VectorModule) -> bool:
    # commuting nilpotents: Nakayama applies, min_generators is a true bound
    F = M.field
    for var in M.ring.variables:
        A = M.actions[var]
        power = A
        k = 1
        while k < M.dim:
            power = mat_mul(F, power, power)
            k *= 2
        if any(c != F.zero for row in power for c in row):
            return False
    return True


def _lower_bound(M: VectorModule, I: IdealHandle) -> tuple:
    best, method = 1, "trivial"
    if _all_nilpotent(M):
        mg = min_generators(M)
        if mg > best:
            best, method = mg, "min-generators"
    try:
        ratio = lower_length_ratio(M, I)
    except NotZeroDimensional:
        ratio = 0
    if ratio > best:
        best, method = ratio, "length-ratio"
    return best, method


def _search(M: VectorModule, I: IdealHandle, coeff_pool):
    """Breadth-first search over action-closed subspaces; returns the first
    chain reaching the full module (shortest within the candidate pool)."""
    coords = _coordinates(M, I)
    images = coords.images
    start = coords.space()
    start_key = start.key()
    if M.dim == 0:
        return []
    parents: dict = {start_key: None}
    queue = deque([(start_key, start)])
    while queue:
        key, space = queue.popleft()
        rows = _candidate_rows(coords, space)
        if not rows:
            continue
        for vec in _combos(coords, rows, coeff_pool):
            check_budget()
            nxt = space.copy()
            nxt.close([vec], images)
            nkey = nxt.key()
            if nkey in parents:
                continue
            parents[nkey] = (key, vec)
            if nxt.dim == M.dim:
                chain = []
                cur = nkey
                while parents[cur] is not None:
                    cur, gen = parents[cur]
                    chain.append(coords.unpack(gen))
                chain.reverse()
                return chain
            queue.append((nkey, nxt))
    raise NoFiltration("search exhausted every reachable stage short of the module")


def _greedy_chain(M: VectorModule, I: IdealHandle) -> list:
    """Sweep upper bound: absorb a whole colon layer per round."""
    coords = _coordinates(M, I)
    images = coords.images
    space = coords.space()
    chain = []
    while space.dim < M.dim:
        check_budget()
        rows = _candidate_rows(coords, space)
        if not rows:
            raise NoFiltration("no further one-generator extension exists")
        for vec in rows:
            if not space.reduce(vec):
                continue  # absorbed by an earlier addition this round
            chain.append(coords.unpack(vec))
            space.close([vec], images)
    return chain


def _module_cert(M: VectorModule, I: IdealHandle, chain) -> FiltrationCertificate:
    cert = FiltrationCertificate(ModuleContext(M), tuple(I.generators), tuple(chain))
    verdict = validate_filtration(cert)
    if not verdict.ok:
        raise InternalError(f"search produced an invalid certificate: {verdict}")
    return cert


def exact_search_cap(field_size: int | None) -> int:
    """Largest dimension the exhaustive search takes on: 12 over F_2, else 8."""
    return 12 if field_size == 2 else 8


def quasilength_exact(M: VectorModule, I: IdealHandle) -> tuple:
    """Exact minimum filtration length with an optimal certificate.

    Only runs when the coefficient field is finite and dim M is at or below
    exact_search_cap (the candidate enumeration is exhaustive there);
    otherwise raises SearchLimit.  Raises NoFiltration when no finite chain
    exists, e.g. for a unit killing ideal on a nonzero module.
    """
    F = M.field
    if F.size is None:
        raise SearchLimit("exact search requires a finite coefficient field")
    cap = exact_search_cap(F.size)
    if M.dim > cap:
        raise SearchLimit(f"dim {M.dim} exceeds the exact-search cap {cap}")
    pool = tuple(F.from_int(i) for i in range(F.size))
    chain = _search(M, I, pool)
    return len(chain), _module_cert(M, I, chain)


def quasilength(M: VectorModule, I: IdealHandle) -> QuasilengthBounds:
    """Best available information on the minimum filtration length.

    Finite field and small dimension: exact value with an optimal
    certificate.  Infinite field and small dimension: certified upper bound
    from a search restricted to coordinates in {0, 1, -1}, exact only when it
    meets the lower bound.  Large dimension: greedy certified upper bound.
    The lower bound is the better of the length ratio and (when every
    variable acts nilpotently) the minimal generator count.
    """
    if M.dim == 0:
        cert = _module_cert(M, I, [])
        return QuasilengthBounds(0, 0, 0, cert, "exact")
    lower, method = _lower_bound(M, I)
    flags: tuple = ()
    try:
        exact, cert = quasilength_exact(M, I)
        if not (lower <= exact):
            raise InternalError("lower bound exceeds exact search result")
        return QuasilengthBounds(exact, exact, exact, cert, "exact")
    except SearchLimit as limit:
        flags += (str(limit),)
    if M.field.size is None and M.dim <= exact_search_cap(M.field.size):
        pool = (M.field.zero, M.field.one, M.field.neg(M.field.one))
        chain = _search(M, I, pool)
        flags += ("upper bound from the {0,1,-1}-coordinate pool",)
    else:
        chain = _greedy_chain(M, I)
        flags += ("upper bound from the greedy sweep",)
    cert = _module_cert(M, I, chain)
    upper = len(chain)
    if upper < lower:
        raise InternalError("certified upper bound undercuts the lower bound")
    exact = upper if upper == lower else None
    return QuasilengthBounds(lower, upper, exact, cert, method, flags)


# ---------------------------------------------------------------------------
# certificate constructions


def staircase_filtration(pres: QuotientPresentation, xs, t: int) -> FiltrationCertificate:
    """The t^d-step certificate for R/(relations + (x_1^t, ..., x_d^t)).

    Generators are the monomials in the x_i with every exponent below t,
    listed by descending total degree and, within a degree, descending
    exponent vectors; the last generator is 1.  Valid for any polynomials
    x_i: multiplying a generator by x_i either raises its exponent past t-1
    (landing in the target) or yields an earlier, higher-degree generator.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one parameter")
    target = tuple(x ** t for x in xs)
    exps = sorted(itertools.product(range(t), repeat=len(xs)),
                  key=lambda e: (-sum(e), tuple(-c for c in e)))
    gens = []
    for e in exps:
        g = pres.ambient.one()
        for x, k in zip(xs, e):
            if k:
                g = g * x ** k
        gens.append(g)
    cert = FiltrationCertificate(RingContext(pres, target), xs, tuple(gens))
    verdict = validate_filtration(cert)
    if not verdict.ok:
        raise InternalError(f"staircase certificate failed validation: {verdict}")
    return cert


def frobenius_transport(cert: FiltrationCertificate, e: int) -> FiltrationCertificate:
    """Certificate for the q = p^e bracket powers, q-th powering generators.

    Ring contexts in characteristic p only.  Membership survives q-th powers
    there (powering is additive), so validity is inherited; the result is
    validated again anyway.
    """
    if not isinstance(cert.context, RingContext):
        raise ValueError("Frobenius transport needs a ring-context certificate")
    pres = cert.context.presentation
    p = pres.ambient.field.char
    if p == 0:
        raise ValueError("Frobenius transport needs positive characteristic")
    if e < 0:
        raise ValueError("e must be nonnegative")
    q = p ** e
    moved = FiltrationCertificate(
        RingContext(pres, tuple(frobenius_power(f, q) for f in cert.context.target)),
        tuple(frobenius_power(f, q) for f in cert.killing),
        tuple(frobenius_power(g, q) for g in cert.generators),
    )
    verdict = validate_filtration(moved)
    if not verdict.ok:
        raise InternalError(f"transported certificate failed validation: {verdict}")
    return moved


# ---------------------------------------------------------------------------
# serialization (ring contexts only)


def certificate_to_json(cert: FiltrationCertificate) -> str:
    if not isinstance(cert.context, RingContext):
        raise ValueError("module-context certificates have no serialized form")
    pres = cert.context.presentation
    payload = {
        "schema": 1,
        "kind": "ring-filtration",
        "ring": pres.describe(),
        "target": [dsl.format_poly(f) for f in cert.context.target],
        "killing": [dsl.format_poly(f) for f in cert.killing],
        "generators": [dsl.format_poly(g) for g in cert.generators],
        "validated": cert.validated.status,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> FiltrationCertificate:
    """Rebuild a ring-context certificate; the verdict resets to unchecked."""
    payload = json.loads(text)
    if payload.get("kind") != "ring-filtration":
        raise ValueError(f"not a ring filtration payload: {payload.get('kind')!r}")
    pres = QuotientPresentation.parse(payload["ring"])
    ring = pres.ambient
    target = tuple(dsl.parse_poly(ring, s) for s in payload["target"])
    killing = tuple(dsl.parse_poly(ring, s) for s in payload["killing"])
    gens = tuple(dsl.parse_poly(ring, s) for s in payload["generators"])
    return FiltrationCertificate(RingContext(pres, target), killing, gens)
