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

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import check_budget
from .groebner import IdealHandle, InternalError, colon, ideal
from .quasilength import (FiltrationCertificate, RingContext, parameter_powers,
                          quasilength, search_pool, staircase_filtration,
                          validate_filtration)
from .quotient import (NotZeroDimensional, QuotientPresentation, length,
                       quotient_module)


@dataclass
class LimitClosureResult:
    ideal: IdealHandle
    k: int             # colon exponent at which the chain was last seen to move
    window: int        # consecutive identical steps required before stopping
    stabilized: bool   # False when max_k ran out first; the ideal is then a stage, not a limit


def limit_closure(pres: QuotientPresentation, xs, t: int, window: int | None = None,
                  max_k: int = 64) -> LimitClosureResult:
    """Union of the ascending chain (relations + (x^(t+k))) : (prod x)^k.

    The chain genuinely ascends (multiply any member by the parameter product
    and absorb one extra power of each x_i); each step is verified.  The
    union is reported once `window` consecutive stages agree, which is a
    stopping heuristic, not a proof of stabilization: the stabilized flag
    records only that the window was observed.  window None means 3.
    """
    if max_k < 0:
        raise ValueError("max_k must be at least 0")
    xs = tuple(xs)
    window = 3 if window is None else window
    if window < 1:
        raise ValueError("window must be at least 1")
    ambient = pres.ambient
    prod = math.prod(xs, start=ambient.one())
    current: IdealHandle | None = None
    moved_at = 0
    run = 0
    for k in range(max_k + 1):
        check_budget()
        base = pres.ideal(parameter_powers(xs, t + k))
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
        return [{k: str(v) if isinstance(v, Fraction) else v for k, v in vars(r).items()}
                for r in self.rows]


def _check_supplied(cert: FiltrationCertificate, K: IdealHandle,
                    params: IdealHandle) -> int:
    """Length of a caller-supplied certificate, after checking it proves a
    bound for this row: same module, killing ideal at least params."""
    if not isinstance(cert.context, RingContext):
        raise ValueError("supplied certificates must be ring-context")
    pres = cert.context.presentation
    claimed = pres.ideal(cert.context.target)
    if claimed.key() != K.key():
        raise ValueError("supplied certificate presents a different module")
    if not ideal(pres.ambient, list(cert.killing)).contains_ideal(params):
        raise ValueError("supplied certificate's killing ideal misses a parameter")
    verdict = validate_filtration(cert)
    if not verdict.ok:
        raise ValueError(f"supplied certificate is invalid: {verdict}")
    return len(cert)


def content_scan(pres: QuotientPresentation, xs, ts, mode: str = "plain",
                 supplied: dict | None = None) -> ContentTable:
    """One ContentRow per exponent t in ts.

    mode "plain" works modulo relations + (x^t); mode "underline" works
    modulo the limit closure of that ideal.  supplied maps t to a
    FiltrationCertificate whose length caps the row's upper bound (checked
    before use).
    """
    if mode not in ("plain", "underline"):
        raise ValueError(f"unknown mode {mode!r}")
    xs, ts = tuple(xs), tuple(ts)
    if not ts:
        raise ValueError("need at least one exponent t")
    # every row's exponent is checked before the first row's work
    powers = [parameter_powers(xs, t) for t in ts]
    d = len(xs)
    ambient = pres.ambient
    params = ideal(ambient, xs)
    rows = []
    for t, target in zip(ts, powers):
        check_budget()
        if mode == "plain":
            K = pres.ideal(target)
        else:
            K = limit_closure(pres, xs, t).ideal
        if K.is_unit_ideal():
            rows.append(ContentRow(t, 0, 0, Fraction(0), Fraction(0), "zero", "zero"))
            continue

        upper = t ** d
        upper_from = "staircase"
        # staircase steps stay valid over any larger target ideal (checked)
        staircase_filtration(QuotientPresentation(ambient, K), xs, t)

        try:
            lam = length(K)
        except NotZeroDimensional:
            lam = None  # infinite length: no exact search and no lower bound
        exact = None
        if lam is not None and search_pool(ambient.field, lam)[1] is None:
            exact = quasilength(quotient_module(K), params).exact
            if exact < upper:
                upper = exact
                upper_from = "exact-search"

        if supplied and t in supplied:
            cap = _check_supplied(supplied[t], K, params)
            if cap < upper:
                upper = cap
                upper_from = "supplied"

        if exact is not None:
            lower = exact
            lower_from = "exact-search"
        elif lam is not None:
            denom = length(ideal(ambient, K.generators + params.generators))
            lower = -(-lam // denom)
            lower_from = "length-ratio"
        else:
            lower, lower_from = 0, "none"

        if lower > upper:
            raise InternalError(f"content row t={t}: lower {lower} above upper {upper}")
        rows.append(ContentRow(t, upper, lower, Fraction(upper, t ** d),
                               Fraction(lower, t ** d), upper_from, lower_from))
    return ContentTable(tuple(rows), d, mode)
