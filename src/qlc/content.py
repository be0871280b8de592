"""Per-exponent bounds for filtration counts of parameter-power quotients.

For a parameter system x_1, ..., x_d in a quotient ring, row t brackets the
quasilength of R/(relations + (x_1^t, ..., x_d^t)) with respect to (x_1, ...,
x_d) and records each bound's ratio against t^d.  The staircase certificate
always caps the count at t^d; sharper caps can come from an exhaustive search
(small finite-field quotients) or from a supplied certificate.  Lower bounds
come from dividing the quotient's length by the largest possible factor
length, or from an exhaustive search when one ran.

The underline variant replaces the power ideal by its limit closure: the
union of (relations + (x^(t+k))) : (x_1...x_d)^k over k, detected by waiting
for the ascending chain to hold still for a few steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT, JobConfig, check_budget
from .groebner import IdealHandle, InternalError, colon, ideal, ideal_compare
from .quasilength import (FiltrationCertificate, quasilength_exact,
                          staircase_filtration, validate_filtration)
from .quotient import (NotZeroDimensional, QuotientPresentation, is_zero_dimensional,
                       length, quotient_module)


@dataclass
class LimitClosureResult:
    ideal: IdealHandle
    k: int             # colon exponent at which the chain was last seen to move
    window: int        # consecutive identical steps required before stopping
    stabilized: bool   # False when max_k ran out first; the ideal is then a stage, not a limit


def limit_closure(pres: QuotientPresentation, xs, t: int, window: int | None = None,
                  max_k: int = 64, config: JobConfig = DEFAULT) -> LimitClosureResult:
    """Union of the ascending chain (relations + (x^(t+k))) : (prod x)^k.

    The chain genuinely ascends (multiply any member by the parameter product
    and absorb one extra power of each x_i); each step is verified.  The
    union is reported once `window` consecutive stages agree, which is a
    stopping heuristic, not a proof of stabilization: the stabilized flag
    records only that the window was observed.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    xs = tuple(xs)
    window = config.stabilization_window if window is None else window
    if window < 1:
        raise ValueError("window must be at least 1")
    ambient = pres.ambient
    prod = ambient.one()
    for x in xs:
        prod = prod * x
    rels = list(pres.relations.generators)
    current: IdealHandle | None = None
    moved_at = 0
    run = 0
    for k in range(max_k + 1):
        check_budget()
        base = ideal(ambient, rels + [x ** (t + k) for x in xs])
        stage = colon(base, ideal(ambient, [prod ** k])) if k else base
        if current is None:
            current = stage
        else:
            if not stage.contains_ideal(current):
                raise InternalError("limit-closure chain failed to ascend")
            if stage.key() == current.key():
                run += 1
                if run >= window:
                    return LimitClosureResult(current, moved_at, window, True)
            else:
                current = stage
                moved_at = k
                run = 0
    return LimitClosureResult(current, moved_at, window, False)


@dataclass
class ContentRow:
    t: int
    upper: int
    lower: int
    upper_ratio: Fraction
    lower_ratio: Fraction
    upper_from: str  # staircase | exact-search | supplied | zero
    lower_from: str  # length-ratio | exact-search | none | zero


@dataclass
class ContentTable:
    rows: tuple
    d: int
    mode: str  # plain | underline

    def as_dicts(self) -> list:
        return [
            {
                "t": r.t,
                "upper": r.upper,
                "lower": r.lower,
                "upper_ratio": str(r.upper_ratio),
                "lower_ratio": str(r.lower_ratio),
                "upper_from": r.upper_from,
                "lower_from": r.lower_from,
            }
            for r in self.rows
        ]


def _check_supplied(cert: FiltrationCertificate, K: IdealHandle, xs) -> int:
    """Length of a caller-supplied certificate, after checking it proves a
    bound for this row: same module, killing ideal at least (x_1, ..., x_d)."""
    from .quasilength import RingContext

    if not isinstance(cert.context, RingContext):
        raise ValueError("supplied certificates must be ring-context")
    pres = cert.context.presentation
    claimed = ideal(pres.ambient,
                    list(pres.relations.generators) + list(cert.context.target))
    if ideal_compare(claimed, K) != "equal":
        raise ValueError("supplied certificate presents a different module")
    if not ideal(pres.ambient, list(cert.killing)).contains_ideal(ideal(pres.ambient, list(xs))):
        raise ValueError("supplied certificate's killing ideal misses a parameter")
    verdict = validate_filtration(cert)
    if not verdict.ok:
        raise ValueError(f"supplied certificate is invalid: {verdict}")
    return len(cert)


def content_scan(pres: QuotientPresentation, xs, ts, mode: str = "plain",
                 supplied: dict | None = None,
                 config: JobConfig = DEFAULT) -> ContentTable:
    """One ContentRow per exponent t in ts.

    mode "plain" works modulo relations + (x^t); mode "underline" works
    modulo the limit closure of that ideal.  supplied maps t to a
    FiltrationCertificate whose length caps the row's upper bound (checked
    before use).
    """
    if mode not in ("plain", "underline"):
        raise ValueError(f"unknown mode {mode!r}")
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one parameter")
    d = len(xs)
    ambient = pres.ambient
    rels = list(pres.relations.generators)
    rows = []
    for t in ts:
        check_budget()
        if t < 1:
            raise ValueError("exponents must be at least 1")
        if mode == "plain":
            K = ideal(ambient, rels + [x ** t for x in xs])
        else:
            K = limit_closure(pres, xs, t, config=config).ideal
        if K.is_unit_ideal():
            rows.append(ContentRow(t, 0, 0, Fraction(0), Fraction(0), "zero", "zero"))
            continue

        upper = t ** d
        upper_from = "staircase"
        # staircase steps stay valid over any larger target ideal
        stair = staircase_filtration(QuotientPresentation(ambient, K.generators), xs, t)
        if not stair.validated.ok:
            raise InternalError("staircase failed over the row ideal")

        exact = None
        lam = None
        if is_zero_dimensional(K):
            lam = length(K)
            if ambient.field.size is not None and lam <= config.dim_cap(ambient.field.size):
                M = quotient_module(K)
                exact, _cert = quasilength_exact(M, ideal(ambient, list(xs)), config)
                if exact < upper:
                    upper = exact
                    upper_from = "exact-search"

        if supplied and t in supplied:
            cap = _check_supplied(supplied[t], K, xs)
            if cap < upper:
                upper = cap
                upper_from = "supplied"

        if exact is not None:
            lower = exact
            lower_from = "exact-search"
        elif lam is not None:
            denom = length(ideal(ambient, list(K.generators) + list(xs)))
            lower = -(-lam // denom)
            lower_from = "length-ratio"
        else:
            lower, lower_from = 0, "none"

        if lower > upper:
            raise InternalError(f"content row t={t}: lower {lower} above upper {upper}")
        rows.append(ContentRow(t, upper, lower, Fraction(upper, t ** d),
                               Fraction(lower, t ** d), upper_from, lower_from))
    return ContentTable(tuple(rows), d, mode)
