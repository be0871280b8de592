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
import math
import warnings
from dataclasses import dataclass

from . import dsl
from .config import DEFAULT, JobConfig, check_budget
from .groebner import (InternalError, bracket_power, ideal, ideal_powers,
                       normal_form)
from .poly import Polynomial, frobenius_power
from .quasilength import (FiltrationCertificate, RingContext, parameter_powers,
                          require_valid)
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

    Fresh names are prefix1..prefixh, variable names of the ring syntax
    (ValueError otherwise); a clash gets an underscore suffix and a warning.
    The construction makes u a member of the extended ideal of the g_i,
    which is asserted before returning.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator to force against")
    ambient = base.ambient
    names = []
    renamed = []
    for i in range(1, len(gens) + 1):
        name = f"{prefix}{i}"
        if not dsl.IDENTIFIER.fullmatch(name):
            raise ValueError(f"prefix {prefix!r} gives {name!r}, which is not a variable name")
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


# CPython prints an int of at most 4300 digits and refuses a longer one
# (sys.set_int_max_str_digits); a q that long is reported as "p^e" instead
_PRINTABLE_Q = 10 ** 4300


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
        """One dict per row, for printing: q is the int p^e while it has at
        most 4300 digits and the text "p^e" beyond."""
        p = self.element.ring.field.char
        return [{"e": r.e, "q": r.q if r.q < _PRINTABLE_Q else f"{p}^{r.e}",
                 "member": r.member} for r in self.rows]


def tight_membership_table(pres: QuotientPresentation, u: Polynomial, gens,
                           c: Polynomial, e_list) -> MembershipTable:
    """Rows (e, q=p^e, c*u^q in (g^q) + relations) for each listed e.

    Positive characteristic only, c nonzero in the quotient.  When c = 1 a
    passing row forces every later row to pass (memberships survive q-th
    powers), which is asserted on the computed rows.
    """
    p = _frobenius_char(pres)
    if pres.relations.contains_poly(c):
        raise ValueError("multiplier vanishes in the quotient")
    es = _exponents(e_list)
    G = ideal(pres.ambient, gens)
    rows = []
    for e in es:
        check_budget()
        q = p ** e
        bracket = pres.ideal(bracket_power(G, q))
        rows.append(MembershipRow(e, q, bracket.contains_poly(c * frobenius_power(u, q))))
    if c.is_constant() and c.constant_value() == pres.ambient.field.one:
        _check_monotone([r.member for r in rows], "powering broke a multiplier-free membership")
    return MembershipTable(u, c, tuple(rows))


def _frobenius_char(pres: QuotientPresentation) -> int:
    """The characteristic p, which every q = p^e here needs positive."""
    p = pres.ambient.field.char
    if p == 0:
        raise ValueError("Frobenius powers need positive characteristic")
    return p


def _check_monotone(flags, message: str) -> None:
    """Raise InternalError(message) when a False follows a True in flags."""
    if any(a and not b for a, b in zip(flags, flags[1:])):
        raise InternalError(message)


def _exponents(e_list) -> list:
    """The listed exponents, sorted without repeats: at least one (an empty
    table would pass vacuously), none negative."""
    es = sorted(set(int(e) for e in e_list))
    if not es or es[0] < 0:
        raise ValueError(f"need nonnegative exponents, at least one, got {es}")
    return es


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
    p = _frobenius_char(pres)
    if degree_bound < 0:
        raise ValueError(f"need degree_bound >= 0, got {degree_bound}")
    G = ideal(pres.ambient, gens)
    qs = [p ** e for e in _exponents(e_list)]
    brackets = [pres.ideal(bracket_power(G, q)) for q in qs]
    powers = [frobenius_power(u, q) for q in qs]
    for c in _monomials_by_degree(pres.ambient, degree_bound):
        check_budget()
        # each bracket holds the relations, so this also skips c = 0 in the quotient
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
        return [dict(vars(r)) for r in self.rows]


def lc_class_vanishing(pres: QuotientPresentation, xs, k_max: int) -> VanishingTable:
    """Rows (k, (x_1...x_d)^k in (x_i^(k+1)) + relations) for k = 1..k_max.

    A pass at k forces a pass at every larger k (multiply the witness by the
    product and absorb one power of each parameter); asserted on the rows.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1 (an empty table passes vacuously), got {k_max}")
    xs = tuple(xs)
    prod = math.prod(xs, start=pres.ambient.one())
    rows = []
    for k in range(1, k_max + 1):
        check_budget()
        handle = pres.ideal(parameter_powers(xs, k + 1))
        rows.append(VanishingRow(k, handle.contains_poly(prod ** k)))
    _check_monotone([r.vanished for r in rows],
                    "vanishing is monotone in k; computed rows are not")
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
                            config: JobConfig = DEFAULT) -> ShortSearchResult:
    """Depth-limited search for a filtration of R/(relations + (x^t)) with
    fewer than t^d one-generator steps.

    Candidates for the next generator are monomials of degree at most 2*t*d
    whose products with every parameter already reduce to zero; the chain
    always closes with 1.  Iterative deepening tries 1, 2, ... up to t^d - 1
    steps, so a found certificate is shortest within the candidate pool.
    Nodes are capped by config.disproof_node_budget; running out returns
    complete=False and no certificate.

    The pool is screened once against base = relations + (x^t): every stage
    is base grown by plus, so a candidate inside base has normal form zero
    at every node, and the walk skipped it there anyway.  Dropping it up
    front leaves the walk, its node count and its certificate unchanged.
    """
    xs = tuple(xs)
    target = parameter_powers(xs, t)
    d = len(xs)
    full = t ** d
    max_steps = full - 1
    ambient = pres.ambient
    base = pres.ideal(target)
    pool = []
    for m in _monomials_by_degree(ambient, 2 * t * d):
        check_budget()
        if not m.is_constant() and not base.contains_poly(m):
            pool.append(m)
    # I^r must fit inside a stage that can still finish within r steps;
    # the table grows by one product per deepening step
    powers = ideal_powers(ideal(ambient, list(xs)))
    power_gens = [next(powers).generators]

    budget = config.disproof_node_budget
    state = {"nodes": 0, "out_of_budget": False}
    dead: set = set()  # (ideal key, remaining) that provably cannot finish
    products: dict = {}  # (parameter, candidate) -> their product, built on first use

    def times(j: int, i: int):
        got = products.get((j, i))
        if got is None:
            got = products[j, i] = xs[j] * pool[i]
        return got

    def dive(stage, remaining: int, chain: list) -> list | None:
        check_budget()
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["out_of_budget"] = True
            return None
        if remaining >= 1 and all(stage.contains_poly(x) for x in xs):
            return chain + [ambient.one()]
        if remaining <= 1:
            return None
        key = (stage.key(), remaining)
        if key in dead:
            return None
        if not all(stage.contains_poly(g) for g in power_gens[remaining]):
            dead.add(key)
            return None
        for i, c in enumerate(pool):
            r = normal_form(c, stage)
            if r.is_zero():
                continue
            if not all(stage.contains_poly(times(j, i)) for j in range(d)):
                continue
            found = dive(stage.plus(r), remaining - 1, chain + [c])
            if found is not None or state["out_of_budget"]:
                return found
        dead.add(key)
        return None

    for limit in range(1, max_steps + 1):
        power_gens.append(next(powers).generators)
        dead.clear()
        chain = dive(base, limit, [])
        if chain is not None:
            cert = require_valid(FiltrationCertificate(RingContext(pres, target), xs,
                                                       tuple(chain)), "short-filtration search")
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
    bracket-power membership table for u against (x_i^t) in the base ring;
    the report's table is the search's own rows, every one passing.
    Refuted: the forcing algebra of u against (x_i^t) admits a filtration of
    its parameter-power quotient with fewer than t^d steps.  Both at once
    raise ValueError: the listed exponents are too few to separate the two
    (x*y against x^2, y^2 in F2[x,y] at e = 1, where x^2 passes q = 2), or
    the hypotheses fail (say, more parameters than the dimension).  Neither
    search is complete in general: a report can be inconclusive, and the
    flags say which bounded searches exhausted their space.
    """
    p = _frobenius_char(pres)
    params = tuple(params)
    e_list = tuple(e_list)
    gens = parameter_powers(params, t)
    notes = (
        "verdicts are bounded evidence: the multiplier search caps monomial "
        "degree and the filtration search caps depth and candidate degree",
        "hypotheses on the base presentation (domain, dimension of the "
        "parameter system) are the caller's to check",
    )
    multiplier = test_element_search(pres, u, gens, e_list, degree_bound)
    table = None
    if multiplier is not None:
        table = MembershipTable(u, multiplier, tuple(
            MembershipRow(e, p ** e, True) for e in _exponents(e_list)))

    forcing = generic_forcing_algebra(pres, gens, u)
    lifted_params = tuple(_lift(x, forcing.presentation.ambient, len(forcing.z_names))
                          for x in params)
    search = short_filtration_search(forcing.presentation, lifted_params, t,
                                     config=config)

    if multiplier is not None and search.certificate is not None:
        raise ValueError("membership evidence and a short filtration coexist: too few listed "
                         "exponents to separate them, or the verdict's hypotheses fail")
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
