"""Shortest one-generator-at-a-time filtrations.

A filtration certificate is a list of generators g_1, ..., g_h together with a
killing ideal I: it claims the chain M_0 = 0, M_j = M_{j-1} + R*g_j exhausts
the module while every step satisfies I*g_j <= M_{j-1}.  The minimum h over
all such chains is the quasilength of the module with respect to I.  This
module validates certificates, builds the staircase certificate for powers of
a parameter system, transports certificates along Frobenius, and brackets
the minimum between a lower bound and a certified upper bound, exact
whenever the two meet.

Certificates come in two flavours.  Ring contexts live in a quotient of a
polynomial ring: the module is R/(relations + target) and generators are
polynomials.  Module contexts carry an explicit VectorModule and generators
are coordinate vectors; they validate in-process and serialize for reading.

The search works on coordinate vectors in the row kind the field picks
(RowSpace.coordinates): ints read as bit vectors over F_2, dicts of nonzero
coordinates otherwise.  One helper per search holds every action and
killing matrix as its columns, so applying a matrix visits only the nonzero
entries; a killing matrix is built from the action columns, term by term,
each power of a variable by repeated squaring.
The colon (span : I) is one RowSpace elimination on the search's own rows,
so RowSpace is the only elimination the search uses and dense lists appear
only at the boundary (the module's action matrices in, certificate
generators out).  Both kinds walk the same spans in the same order.  Module
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
from .linalg import RowSpace
from .poly import Polynomial, frobenius_power
from .quotient import NotZeroDimensional, QuotientPresentation, VectorModule, length


class NoFiltration(Exception):
    """The module admits no finite filtration for the given killing ideal."""


class SearchLimit(Exception):
    """The bounds do not meet; the message is search_pool's limit."""


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


def validate_filtration(cert: FiltrationCertificate) -> Verdict:
    """Check every step of a certificate; records and returns the verdict.

    Invalid verdicts carry the 1-based step and a witness description.  A
    chain whose steps all pass but which fails to exhaust the module is
    reported as invalid at step h+1 with no witness.
    """
    if isinstance(cert.context, RingContext):
        verdict = _validate_ring(cert)
    elif isinstance(cert.context, ModuleContext):
        verdict = _validate_module(cert)
    else:
        raise TypeError(f"unknown certificate context {cert.context!r}")
    cert.validated = verdict
    return verdict


def require_valid(cert: FiltrationCertificate, source: str) -> FiltrationCertificate:
    """cert, validated; an invalid certificate built by the engine (source
    names the construction) is a bug, raised as InternalError."""
    verdict = validate_filtration(cert)
    if not verdict.ok:
        raise InternalError(f"{source} produced an invalid certificate: {verdict}")
    return cert


def _validate_ring(cert: FiltrationCertificate) -> Verdict:
    pres = cert.context.presentation
    stage = pres.ideal(cert.context.target)
    for j, g in enumerate(cert.generators, 1):
        for f in cert.killing:
            check_budget()
            if not stage.contains_poly(f * g):
                witness = f"({dsl.format_poly(f)})*({dsl.format_poly(g)}) not in stage {j - 1}"
                return Verdict("invalid", j, witness)
        stage = stage.plus(g)
    if not stage.is_unit_ideal():
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
# coordinate rows


class _Coords:
    """Coordinate vectors of one module in one row kind, with every matrix
    (the variable actions, then one per killing generator) kept as its
    columns: {key of e_j: column j as a vector of the kind}.  Built once per
    search, so applying a matrix visits only the nonzero entries."""

    def __init__(self, M: VectorModule, killing):
        self.field = M.field
        self.dim = M.dim
        self.ring = M.ring
        self.actions = [self._columns(M.actions[var]) for var in M.ring.variables]
        self.killing = [self._times(f) for f in killing]

    def _columns(self, A) -> dict:
        out = {}
        for j, col in enumerate(zip(*A)):
            check_budget()
            out[self._unit_key(j)] = self.pack(col)
        return out

    def _times(self, f: Polynomial) -> dict:
        """Columns of multiplication by f: f*e_j is the sum of c*x^m*e_j over
        the terms of f, x^m the product of one power per variable."""
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring than the module")
        identity = {self._unit_key(j): self._unit(j) for j in range(self.dim)}
        cache: dict = {}
        terms = []
        for mono in f.terms:
            cols = identity
            for i, e in enumerate(mono):
                if e:
                    cols = self._compose(cols, self.power(i, e, cache))
            terms.append(cols)
        coeffs = f.terms.values()
        return {key: self.combine(coeffs, [cols[key] for cols in terms]) for key in identity}

    def power(self, i: int, e: int, cache: dict) -> dict:
        """Columns of x_i^e (e >= 1) by square-and-multiply, the squares
        x_i^(2^k) kept in cache under (i, k): the cost grows with log e."""
        out, square, k = None, self.actions[i], 0
        while True:
            if e & 1:
                out = square if out is None else self._compose(out, square)
            e, k = e >> 1, k + 1
            if not e:
                return out
            if (i, k) not in cache:
                cache[(i, k)] = self._compose(square, square)
            square = cache[(i, k)]

    def _compose(self, A: dict, B: dict) -> dict:
        """Columns of the product A*B."""
        out = {}
        for key, col in B.items():
            check_budget()
            out[key] = self.apply(A, col)
        return out

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

    def _unit(self, j: int) -> dict:
        return {j: self.field.one}

    def space(self) -> RowSpace:
        return RowSpace(self.field)

    def pack(self, dense) -> dict:
        zero = self.field.zero
        return {i: c for i, c in enumerate(dense) if c != zero}

    def unpack(self, vec: dict) -> tuple:
        zero = self.field.zero
        return tuple(vec.get(i, zero) for i in range(self.dim))

    def shift(self, vec: dict, k: int) -> dict:
        """vec moved to the k-th block of dim columns."""
        offset = k * self.dim
        return {i + offset: c for i, c in vec.items()}

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

    _unit = _unit_key  # a unit bit is its own vector

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

    def shift(self, vec: int, k: int) -> int:
        """vec moved to the k-th block of dim columns."""
        return vec << (k * self.dim)

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


def _coordinates(M: VectorModule, killing):
    """The coordinate helper of one search, in the row kind that
    RowSpace.coordinates picks for the field."""
    packed = RowSpace.coordinates(M.field).packed
    return (_BitCoords if packed else _DictCoords)(M, killing)


def _candidate_rows(coords, space: RowSpace) -> list:
    """Canonical residue basis of (space : I) / space, in the row kind.

    One elimination: row j holds e_j in columns [0, dim) and, for the k-th
    killing matrix A_k, the residue of A_k*e_j modulo space in columns
    [k*dim, (k+1)*dim).  Pivots fall on the largest column, so the reduced
    rows whose pivot lies below dim have zero residues: they span the colon
    {v : A_k*v in space for every k}.
    """
    elim = coords.space()
    for j in range(coords.dim):
        key = coords._unit_key(j)
        row = coords._unit(j)
        for k, cols in enumerate(coords.killing, 1):
            row |= coords.shift(space.reduce(cols[key]), k)
        elim.insert(row)
    residues_start = coords._unit_key(coords.dim)
    res = coords.space()
    for pivot, row in elim.rows.items():
        if pivot < residues_start:
            res.insert(space.reduce(row))
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
        for tail in _tails(coeff_pool, k - lead_at - 1):
            yield combine((lead,) + tail, rest)


def _tails(pool, n: int):
    """Every n-tuple over pool, in itertools.product order.  product copies
    its pool first, so a pool above 2^16 elements (range(p) for a large
    prime p) is walked one coordinate per generator level instead, and
    never copied."""
    if n == 0 or len(pool) <= 1 << 16:
        yield from itertools.product(pool, repeat=n)
        return
    for head in pool:
        for rest in _tails(pool, n - 1):
            yield (head,) + rest


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


def _factor_dim(M: VectorModule, I: IdealHandle) -> int:
    """The most dimensions one factor of a nonzero M can add.

    Every filtration factor is cyclic and killed by both I and K, the ideal
    M was built modulo, so its length is at most length(R/(I + K)); dim M
    where that is infinite (a larger cap says nothing more).  Raises
    NoFiltration when I + K is the unit ideal: no nonzero factor exists then.
    """
    gens = list(I.generators)
    if M.k_gb:
        gens.extend(M.k_gb)
    try:
        denom = length(IdealHandle(M.ring, gens))
    except NotZeroDimensional:
        return M.dim
    if denom == 0:
        raise NoFiltration("I + K is the unit ideal, so every factor is zero")
    return min(denom, M.dim)


def _all_nilpotent(coords) -> bool:
    # commuting nilpotents: Nakayama applies, the generator count is a true
    # bound.  A is nilpotent iff A^dim is zero.
    return not any(any(coords.power(i, coords.dim or 1, {}).values())
                   for i in range(len(coords.actions)))


def _lower_bound(M: VectorModule, coords, denom: int) -> tuple:
    """(bound, method) on the number of factors; denom is _factor_dim."""
    best, method = 1, "trivial"
    if _all_nilpotent(coords):
        # dim M/mM, m = (all variables): the minimal generator count
        # (graded local), from the span of the action columns
        mspace = coords.space()
        for cols in coords.actions:
            for col in cols.values():
                mspace.insert(col)
        if coords.dim - mspace.dim > best:
            best, method = coords.dim - mspace.dim, "min-generators"
    ratio = -(-M.dim // denom)
    if ratio > best:
        best, method = ratio, "length-ratio"
    return best, method


def _search(coords, coeff_pool, lower: int, denom: int):
    """Shortest chain within the candidate pool, by breadth-first search over
    action-closed subspaces, bounded by the greedy sweep's chain.

    The greedy chain has some length U.  When the lower bound reaches U it is
    optimal and is returned with no search.  Otherwise every factor of a
    chain adds at most denom dimensions (_factor_dim), so a span S first
    reached at depth k needs at least ceil((dim M - dim S) / denom) more
    steps; S is recorded as seen but not expanded when k plus that reaches
    U.  No chain shorter than U passes through such a span, and the first
    parent of a span that is kept is kept too, so the walk is the unbounded
    walk with the pruned spans left out and returns the same first chain.
    When the walk runs out, no chain in the pool beats U and the greedy
    chain is returned.
    """
    greedy = _greedy_chain(coords)
    bound = len(greedy)
    if lower >= bound:
        return greedy
    images = coords.images
    start = coords.space()
    start_key = start.key()
    parents: dict = {start_key: None}
    queue = deque([(start_key, start, 0)])
    while queue:
        key, space, depth = queue.popleft()
        rows = _candidate_rows(coords, space)
        if not rows:
            continue
        depth += 1
        for vec in _combos(coords, rows, coeff_pool):
            check_budget()
            nxt = space.copy()
            nxt.close([vec], images)
            nkey = nxt.key()
            if nkey in parents:
                continue
            parents[nkey] = (key, vec)
            if nxt.dim == coords.dim:
                chain = []
                cur = nkey
                while parents[cur] is not None:
                    cur, gen = parents[cur]
                    chain.append(coords.unpack(gen))
                chain.reverse()
                return chain
            if depth + -(-(coords.dim - nxt.dim) // denom) < bound:
                queue.append((nkey, nxt, depth))
    return greedy


def _greedy_chain(coords) -> list:
    """Sweep upper bound: absorb a whole colon layer per round."""
    images = coords.images
    space = coords.space()
    chain = []
    while space.dim < coords.dim:
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
    return require_valid(FiltrationCertificate(ModuleContext(M), tuple(I.generators),
                                               tuple(chain)), "search")


def search_pool(field, dim: int) -> tuple:
    """(pool, limit) for a search on a module of dimension dim.  pool holds
    the coordinates the breadth-first search combines: every element of a
    finite field F_p, the ints 0..p-1 as a lazy range, the distinct elements
    of {0, 1, -1} over an infinite one, or None above the cap (12 over F_2,
    8 otherwise), where the greedy sweep runs.  limit says why the answer is
    not exact, None when it is."""
    cap = 12 if field.size == 2 else 8
    if dim > cap:
        return None, f"dim {dim} exceeds the exact-search cap {cap}"
    if field.size:
        return range(field.size), None
    return (tuple(dict.fromkeys((field.zero, field.one, field.neg(field.one)))),
            "exact search requires a finite coefficient field")


def quasilength_exact(M: VectorModule, I: IdealHandle) -> tuple:
    """Exact minimum filtration length with an optimal certificate, as
    quasilength finds them.  Raises SearchLimit when quasilength leaves the
    value undetermined, and NoFiltration when no finite chain exists, e.g.
    for a unit killing ideal on a nonzero module.
    """
    bounds = quasilength(M, I)
    if bounds.exact is None:
        raise SearchLimit(bounds.flags[0])
    return bounds.exact, bounds.certificate


def quasilength(M: VectorModule, I: IdealHandle) -> QuasilengthBounds:
    """Best available information on the minimum filtration length.

    The lower bound is the better of the length ratio and (when every
    variable acts nilpotently) the minimal generator count; the greedy
    sweep's chain is a certified upper bound.  Within the search cap the
    breadth-first search, pruned by the greedy length (see _search), runs
    unless the two bounds already meet.  Finite field: exact value with an
    optimal certificate.  Infinite field: the upper bound is the better of
    the greedy chain and a search restricted to coordinates in {0, 1, -1},
    exact only when it meets the lower bound.  Above the cap: the greedy
    chain alone.
    """
    if M.dim == 0:
        return QuasilengthBounds(0, 0, 0, _module_cert(M, I, []), "exact")
    coords = _coordinates(M, I.generators)
    denom = _factor_dim(M, I)
    lower, method = _lower_bound(M, coords, denom)
    pool, limit = search_pool(M.field, M.dim)
    chain = _greedy_chain(coords) if pool is None else _search(coords, pool, lower, denom)
    cert = _module_cert(M, I, chain)
    upper = len(chain)
    if upper < lower:
        raise InternalError("certified upper bound undercuts the lower bound")
    if limit is None:
        return QuasilengthBounds(upper, upper, upper, cert, "exact")
    source = "greedy sweep" if pool is None else "greedy sweep or the {0,1,-1}-coordinate pool"
    return QuasilengthBounds(lower, upper, upper if upper == lower else None, cert, method,
                             (limit, f"upper bound from the {source}"))


# ---------------------------------------------------------------------------
# certificate constructions


def _staircase_exponents(t: int, d: int):
    """The exponent vectors in [0, t)^d, lazily, by descending total and,
    within a total, descending.  No branch of the walk is empty, so each
    vector costs O(d) steps."""
    def vectors(total: int, n: int):  # n entries below t summing to total
        if n == 1:
            yield (total,)
            return
        for first in range(min(total, t - 1), max(0, total - (n - 1) * (t - 1)) - 1, -1):
            for rest in vectors(total - first, n - 1):
                yield (first,) + rest

    for total in range(d * (t - 1), -1, -1):
        yield from vectors(total, d)


def parameter_powers(xs, t: int) -> tuple:
    """(x_1^t, ..., x_d^t), the one place a parameter power is formed.
    Raises ValueError unless t >= 1 and at least one parameter is given."""
    xs = tuple(xs)
    if t < 1 or not xs:
        raise ValueError(f"need t >= 1 and at least one parameter, got t={t}")
    return tuple(x ** t for x in xs)


def staircase_filtration(pres: QuotientPresentation, xs, t: int) -> FiltrationCertificate:
    """The t^d-step certificate for R/(relations + (x_1^t, ..., x_d^t)).

    Generators are the monomials in the x_i with every exponent below t,
    listed by descending total degree and, within a degree, descending
    exponent vectors; the last generator is 1.  Valid for any polynomials
    x_i: multiplying a generator by x_i either raises its exponent past t-1
    (landing in the target) or yields an earlier, higher-degree generator.
    """
    xs = tuple(xs)
    target = parameter_powers(xs, t)
    gens = []
    for e in _staircase_exponents(t, len(xs)):
        check_budget()
        g = pres.ambient.one()
        for x, k in zip(xs, e):
            if k:
                g = g * x ** k
        gens.append(g)
    return require_valid(FiltrationCertificate(RingContext(pres, target), xs, tuple(gens)),
                         "staircase")


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
    return require_valid(moved, "Frobenius transport")


# ---------------------------------------------------------------------------
# serialization


def certificate_payload(cert: FiltrationCertificate) -> dict:
    """The JSON object of a certificate of either kind.  Ring filtrations
    read back through certificate_from_json; module filtrations (coordinates
    in the module's basis) are for reading only."""
    fmt, gens = dsl.format_poly, cert.generators
    payload = {"schema": 1, "killing": [fmt(f) for f in cert.killing],
               "validated": cert.validated.status}
    if isinstance(cert.context, RingContext):
        payload.update(kind="ring-filtration", ring=cert.context.presentation.describe(),
                       target=[fmt(f) for f in cert.context.target],
                       generators=[fmt(g) for g in gens])
    else:
        M = cert.context.module
        payload.update(kind="module-filtration", basis=list(M.labels),
                       generators=[M.format_vector(list(g)) for g in gens],
                       coordinates=[[M.field.format(c) for c in g] for g in gens])
    return payload


def certificate_to_json(cert: FiltrationCertificate) -> str:
    """The certificate file of either kind: certificate_payload as JSON."""
    return json.dumps(certificate_payload(cert), indent=2, sort_keys=True) + "\n"


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
