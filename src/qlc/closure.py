"""Forcing algebras and bounded closure-membership evidence in char p.

Everything here is finite and checkable: bracket-power membership tables for
a chosen multiplier, a degree-bounded search for a multiplier that passes
every listed exponent, vanishing tables for powers of a parameter product,
and a depth-limited search for a shorter-than-staircase filtration inside a
forcing algebra.  None of it decides an asymptotic statement by itself; the
reports carry flags saying which searches ran to completion.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dc_field

from . import dsl
from .config import DEFAULT, JobConfig, check_budget
from .groebner import (IdealHandle, InternalError, basis_key, buchberger,
                       ideal, ideal_power, normal_form)
from .poly import Polynomial, grevlex
from .quasilength import (FiltrationCertificate, RingContext, Verdict,
                          validate_filtration)
from .quotient import QuotientPresentation


# ---------------------------------------------------------------------------
# forcing algebras


@dataclass
class ForcingAlgebra:
    base: QuotientPresentation
    presentation: QuotientPresentation  # base relations plus u = sum Z_i g_i
    generators: tuple                   # the g_i, lifted
    element: Polynomial                 # u, lifted
    z_names: tuple

    def describe(self) -> str:
        return self.presentation.describe()


def _lift(f: Polynomial, big, extra: int) -> Polynomial:
    pad = (0,) * extra
    return Polynomial(big, {e + pad: c for e, c in f.terms.items()})


def generic_forcing_algebra(base: QuotientPresentation, gens, u: Polynomial,
                            prefix: str = "Z") -> ForcingAlgebra:
    """Adjoin one fresh variable per generator and the relation u = sum Z_i g_i.

    Fresh names are prefix1..prefixh; a clash with an existing variable gets
    an underscore suffix and a warning.  The construction makes u a member of
    the extended ideal of the g_i, which is asserted before returning.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator to force against")
    ambient = base.ambient
    names = []
    renamed = []
    for i in range(1, len(gens) + 1):
        name = f"{prefix}{i}"
        while name in ambient.variables or name in names:
            name = name + "_"
        if name != f"{prefix}{i}":
            renamed.append(name)
        names.append(name)
    if renamed:
        warnings.warn(f"forcing variables renamed to avoid clashes: {renamed}")
    big = ambient.extend(names)
    k = len(names)
    lifted_gens = tuple(_lift(g, big, k) for g in gens)
    lifted_u = _lift(u, big, k)
    rel = lifted_u
    for name, g in zip(names, lifted_gens):
        rel = rel - big.var(name) * g
    relations = [_lift(r, big, k) for r in base.relations.generators] + [rel]
    pres = QuotientPresentation(big, relations)
    if not pres.ideal(list(lifted_gens)).contains_poly(lifted_u):
        raise InternalError("forcing relation failed to make u a member")
    return ForcingAlgebra(base, pres, lifted_gens, lifted_u, tuple(names))


# ---------------------------------------------------------------------------
# membership tables


@dataclass
class MembershipRow:
    e: int
    q: int
    member: bool


@dataclass
class MembershipTable:
    element: Polynomial
    multiplier: Polynomial
    rows: tuple

    def all_pass(self) -> bool:
        return all(r.member for r in self.rows)

    def as_dicts(self) -> list:
        return [{"e": r.e, "q": r.q, "member": r.member} for r in self.rows]


def tight_membership_table(pres: QuotientPresentation, u: Polynomial, gens,
                           c: Polynomial, e_list) -> MembershipTable:
    """Rows (e, q=p^e, c*u^q in (g^q) + relations) for each listed e.

    Positive characteristic only, c nonzero in the quotient.  When c = 1 a
    passing row forces every later row to pass (memberships survive q-th
    powers), which is asserted on the computed rows.
    """
    p = pres.ambient.field.char
    if p == 0:
        raise ValueError("membership tables need positive characteristic")
    if pres.is_zero_element(c):
        raise ValueError("multiplier vanishes in the quotient")
    es = sorted(set(int(e) for e in e_list))
    if es and es[0] < 0:
        raise ValueError("exponents must be nonnegative")
    rows = []
    for e in es:
        check_budget()
        q = p ** e
        bracket = pres.ideal([g ** q for g in gens])
        rows.append(MembershipRow(e, q, bracket.contains_poly(c * u ** q)))
    if c.is_constant() and c.constant_value() == pres.ambient.field.one:
        seen_pass = False
        for r in rows:
            if seen_pass and not r.member:
                raise InternalError("powering broke a multiplier-free membership")
            seen_pass = seen_pass or r.member
    return MembershipTable(u, c, tuple(rows))


def _monomials_by_degree(ring, degree_bound: int):
    """1, then each degree's monomials with earlier variables first."""
    yield ring.one()
    n = ring.nvars
    for deg in range(1, degree_bound + 1):
        for combo in itertools.combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in combo:
                e[i] += 1
            yield ring.monomial(tuple(e))


def test_element_search(pres: QuotientPresentation, u: Polynomial, gens,
                        e_list, degree_bound: int = 4) -> Polynomial | None:
    """First monomial c (by degree, then earlier-variable-first) that passes
    the whole membership table and is degenerate for no listed exponent.

    Degenerate means c itself lies in (g^q) + relations for some listed q:
    such a c passes that row no matter what u is, so it certifies nothing.
    Returns None when the bounded search exhausts.
    """
    p = pres.ambient.field.char
    if p == 0:
        raise ValueError("membership search needs positive characteristic")
    gens = tuple(gens)
    es = sorted(set(int(e) for e in e_list))
    brackets = [pres.ideal([g ** (p ** e) for g in gens]) for e in es]
    powers = [u ** (p ** e) for e in es]
    for c in _monomials_by_degree(pres.ambient, degree_bound):
        check_budget()
        if pres.is_zero_element(c):
            continue
        if any(b.contains_poly(c) for b in brackets):
            continue
        if all(b.contains_poly(c * uq) for b, uq in zip(brackets, powers)):
            return c
    return None


# ---------------------------------------------------------------------------
# vanishing of parameter-product classes


@dataclass
class VanishingRow:
    k: int
    vanished: bool


@dataclass
class VanishingTable:
    rows: tuple

    def as_dicts(self) -> list:
        return [{"k": r.k, "vanished": r.vanished} for r in self.rows]


def lc_class_vanishing(pres: QuotientPresentation, xs, k_max: int) -> VanishingTable:
    """Rows (k, (x_1...x_d)^k in (x_i^(k+1)) + relations) for k = 1..k_max.

    A pass at k forces a pass at every larger k (multiply the witness by the
    product and absorb one power of each parameter); asserted on the rows.
    """
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one parameter")
    prod = pres.ambient.one()
    for x in xs:
        prod = prod * x
    rows = []
    for k in range(1, k_max + 1):
        check_budget()
        handle = pres.ideal([x ** (k + 1) for x in xs])
        rows.append(VanishingRow(k, handle.contains_poly(prod ** k)))
    seen = False
    for r in rows:
        if seen and not r.vanished:
            raise InternalError("vanishing is monotone in k; computed rows are not")
        seen = seen or r.vanished
    return VanishingTable(tuple(rows))


# ---------------------------------------------------------------------------
# short-filtration search (the disproof direction)


@dataclass
class ShortSearchResult:
    certificate: FiltrationCertificate | None
    complete: bool   # True when the bounded search space was exhausted
    nodes: int
    target_count: int


def short_filtration_search(pres: QuotientPresentation, xs, t: int,
                            max_steps: int | None = None,
                            degree_cap: int | None = None,
                            config: JobConfig = DEFAULT) -> ShortSearchResult:
    """Depth-limited search for a filtration of R/(relations + (x^t)) with
    fewer than t^d one-generator steps.

    Candidates for the next generator are monomials up to degree_cap (default
    2*t*d) whose products with every parameter already reduce to zero; the
    chain always closes with 1.  Iterative deepening tries 1, 2, ... up to
    max_steps (default t^d - 1), so a found certificate is shortest within
    the candidate pool.  Nodes are capped by the configured budget; running
    out returns complete=False and no certificate.
    """
    xs = tuple(xs)
    d = len(xs)
    if t < 1 or d < 1:
        raise ValueError("need t >= 1 and at least one parameter")
    full = t ** d
    max_steps = full - 1 if max_steps is None else max_steps
    degree_cap = 2 * t * d if degree_cap is None else degree_cap
    ambient = pres.ambient
    order = grevlex
    target = tuple(x ** t for x in xs)
    base = buchberger(list(pres.relations.generators) + list(target), order)
    pool = [m for m in _monomials_by_degree(ambient, degree_cap) if not m.is_constant()]
    param_ideal = ideal(ambient, list(xs))
    # I^r must fit inside a stage that can still finish within r steps
    power_gens = {r: ideal_power(param_ideal, r).generators for r in range(max_steps + 1)}

    budget = config.disproof_node_budget
    state = {"nodes": 0, "out_of_budget": False}
    dead: set = set()  # (basis key, remaining) that provably cannot finish

    def closing(basis) -> bool:
        return all(normal_form(x, basis, order).is_zero() for x in xs)

    def dive(basis, remaining: int, chain: list) -> list | None:
        check_budget()
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["out_of_budget"] = True
            return None
        if remaining >= 1 and closing(basis):
            return chain + [ambient.one()]
        if remaining <= 1:
            return None
        key = (basis_key(basis), remaining)
        if key in dead:
            return None
        if any(not normal_form(g, basis, order).is_zero()
               for g in power_gens[remaining]):
            dead.add(key)
            return None
        for c in pool:
            if normal_form(c, basis, order).is_zero():
                continue
            if any(not normal_form(x * c, basis, order).is_zero() for x in xs):
                continue
            nxt = buchberger([normal_form(c, basis, order)], order, seed=basis)
            found = dive(nxt, remaining - 1, chain + [c])
            if found is not None or state["out_of_budget"]:
                return found
        dead.add(key)
        return None

    for limit in range(1, max_steps + 1):
        dead.clear()
        chain = dive(base, limit, [])
        if chain is not None:
            cert = FiltrationCertificate(RingContext(pres, target), xs, tuple(chain))
            verdict = validate_filtration(cert)
            if not verdict.ok:
                raise InternalError(f"short-filtration search built an invalid chain: {verdict}")
            return ShortSearchResult(cert, True, state["nodes"], full)
        if state["out_of_budget"]:
            return ShortSearchResult(None, False, state["nodes"], full)
    return ShortSearchResult(None, True, state["nodes"], full)


# ---------------------------------------------------------------------------
# combined verdict


@dataclass
class QseqReport:
    verdict: str                      # supported | refuted | inconclusive
    multiplier: Polynomial | None
    table: MembershipTable | None
    disproof: FiltrationCertificate | None
    target_count: int
    found_count: int | None
    forcing: ForcingAlgebra
    notes: tuple = ()
    searches_complete: bool = True


def qseq_verdict_charp(pres: QuotientPresentation, params, u: Polynomial,
                       t: int = 2, e_list=(1, 2), degree_bound: int = 4,
                       config: JobConfig = DEFAULT) -> QseqReport:
    """Two bounded searches around u versus the parameter powers (x_i^t).

    Supported: some nondegenerate monomial multiplier passes the whole
    bracket-power membership table for u against (x_i^t) in the base ring.
    Refuted: the forcing algebra of u against (x_i^t) admits a filtration of
    its parameter-power quotient with fewer than t^d steps.  Both at once
    would contradict the powering argument that transports memberships, so
    that combination is asserted away.  Neither search is complete in
    general: a report can be inconclusive, and the flags say which bounded
    searches exhausted their space.
    """
    if pres.ambient.field.char == 0:
        raise ValueError("this verdict is only defined in positive characteristic")
    params = tuple(params)
    gens = [x ** t for x in params]
    notes = (
        "verdicts are bounded evidence: the multiplier search caps monomial "
        "degree and the filtration search caps depth and candidate degree",
        "hypotheses on the base presentation (domain, dimension of the "
        "parameter system) are the caller's to check",
    )
    multiplier = test_element_search(pres, u, gens, e_list, degree_bound)
    table = None
    if multiplier is not None:
        table = tight_membership_table(pres, u, gens, multiplier, e_list)
        if not table.all_pass():
            raise InternalError("search returned a multiplier whose table fails")

    forcing = generic_forcing_algebra(pres, gens, u)
    lifted_params = tuple(_lift(x, forcing.presentation.ambient, len(forcing.z_names))
                          for x in params)
    search = short_filtration_search(forcing.presentation, lifted_params, t,
                                     config=config)

    if multiplier is not None and search.certificate is not None:
        raise InternalError("membership evidence and a short filtration cannot coexist")
    if multiplier is not None:
        verdict = "supported"
    elif search.certificate is not None:
        verdict = "refuted"
    else:
        verdict = "inconclusive"
    return QseqReport(
        verdict=verdict,
        multiplier=multiplier,
        table=table,
        disproof=search.certificate,
        target_count=search.target_count,
        found_count=len(search.certificate) if search.certificate else None,
        forcing=forcing,
        notes=notes,
        searches_complete=search.complete,
    )
