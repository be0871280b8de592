"""Command-line front end.

Every subcommand parses its inputs with the shared ring/polynomial DSL,
dispatches to the library, and writes one report to stdout (or --out).  The
default rendering is plain text; --json switches to a versioned JSON envelope
that echoes the inputs (every option the subcommand declares, less the output
flags and --cert-out) and contains nothing run-dependent, so identical
argument vectors produce byte-identical JSON.

Exit codes: 0 success, 1 a worked example reported a failing check, 2 usage
or input errors (DSL errors point at the offending span; also an unwritable
--out path), 3 the time budget ran out (no report: a JSON error envelope
with schema, command, incomplete: true and error, but no result, is written
instead, in text mode too).  The budget defaults to 300 seconds; QLC_BUDGET_SECS sets it to
any finite number of seconds above 0, and any other value exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import casebook, dsl
from .closure import (generic_forcing_algebra, lc_class_vanishing,
                      qseq_verdict_charp, test_element_search,
                      tight_membership_table)
from .config import BudgetExhausted, budget, default_budget_seconds
from .content import content_scan, limit_closure
from .groebner import buchberger, colon, ideal, ideal_compare, intersect
from .poly import grevlex, lex
from .quasilength import (NoFiltration, SearchLimit, certificate_from_json,
                          certificate_payload, certificate_to_json, quasilength,
                          quasilength_exact, validate_filtration)
from .quotient import QuotientPresentation, length, vector_module

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for Ctrl-C

_ORDERS = {"grevlex": grevlex, "lex": lex}


def _ints(text: str) -> tuple:
    parts = [p for chunk in text.split(";") for p in chunk.split(",")]
    try:
        return tuple(int(p) for p in parts if p.strip())
    except ValueError:
        raise ValueError(f"expected integers separated by ';', got {text!r}") from None


def _presentation(args) -> QuotientPresentation:
    return QuotientPresentation.parse(args.ring)


def _polys(pres: QuotientPresentation, text: str) -> list:
    return dsl.parse_polys(pres.ambient, text)


def _poly(pres: QuotientPresentation, text: str):
    return dsl.parse_poly(pres.ambient, text)


def _fmt(polys) -> list:
    return [dsl.format_poly(f) for f in polys]


# ---------------------------------------------------------------------------
# handlers: each returns (result payload, text lines, exit code)


def _cmd_gb(args):
    pres = _presentation(args)
    gens = pres.ideal(_polys(pres, args.ideal)).generators
    basis = buchberger(gens, _ORDERS[args.order])
    out = _fmt(basis)
    return {"basis": out}, out, EXIT_OK


def _cmd_member(args):
    pres = _presentation(args)
    inside = pres.ideal(_polys(pres, args.ideal)).contains_poly(_poly(pres, args.poly))
    return {"member": inside}, ["true" if inside else "false"], EXIT_OK


def _cmd_compare(args):
    pres = _presentation(args)
    rel = ideal_compare(pres.ideal(_polys(pres, args.left)),
                        pres.ideal(_polys(pres, args.right)))
    return {"relation": rel}, [rel], EXIT_OK


def _cmd_colon(args):
    pres = _presentation(args)
    quot = colon(pres.ideal(_polys(pres, args.ideal)),
                 ideal(pres.ambient, _polys(pres, args.by)))
    out = _fmt(quot.groebner_basis())
    return {"generators": out}, out, EXIT_OK


def _cmd_intersect(args):
    pres = _presentation(args)
    meet = intersect(pres.ideal(_polys(pres, args.left)),
                     pres.ideal(_polys(pres, args.right)))
    out = _fmt(meet.groebner_basis())
    return {"generators": out}, out, EXIT_OK


def _cmd_length(args):
    pres = _presentation(args)
    n = length(pres.ideal(_polys(pres, args.ideal)))
    return {"length": n}, [str(n)], EXIT_OK


def _module(args):
    pres = _presentation(args)
    J = pres.ideal(_polys(pres, args.top))
    K = pres.ideal(_polys(pres, args.bottom))
    return pres, vector_module(J, K)


def _cmd_vmod(args):
    pres, M = _module(args)
    F = M.field
    payload = {
        "dim": M.dim,
        "basis": list(M.labels),
        "actions": {v: [[F.format(c) for c in row] for row in M.actions[v]]
                    for v in pres.ambient.variables},
    }
    lines = [f"dim {M.dim}", "basis: " + ", ".join(M.labels)]
    for v in pres.ambient.variables:
        lines.append(f"{v}:")
        lines.extend("  [" + ", ".join(F.format(c) for c in row) + "]"
                     for row in M.actions[v])
    return payload, lines, EXIT_OK


def _write_cert(path: str, cert) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_to_json(cert))


def _cmd_ql_exact(args):
    pres, M = _module(args)
    I = pres.ideal(_polys(pres, args.killing))
    try:
        value, cert = quasilength_exact(M, I)
    except NoFiltration:
        payload = {"exact": None, "filtration_exists": False}
        return payload, ["no finite filtration"], EXIT_OK
    payload = {"exact": value, "filtration_exists": True,
               "certificate": certificate_payload(cert)}
    if args.cert_out:
        _write_cert(args.cert_out, cert)
    lines = [f"exact {value}"]
    lines.extend(f"  step {i}: {M.format_vector(list(g))}"
                 for i, g in enumerate(cert.generators, 1))
    return payload, lines, EXIT_OK


def _cmd_ql_bounds(args):
    pres, M = _module(args)
    I = pres.ideal(_polys(pres, args.killing))
    try:
        b = quasilength(M, I)
    except NoFiltration:
        payload = {"lower": None, "upper": None, "exact": None,
                   "filtration_exists": False}
        return payload, ["no finite filtration"], EXIT_OK
    payload = {
        "lower": b.lower,
        "upper": b.upper,
        "exact": b.exact,
        "filtration_exists": True,
        "lower_method": b.lower_method,
        "flags": list(b.flags),
        "certificate": certificate_payload(b.certificate),
    }
    if args.cert_out:
        _write_cert(args.cert_out, b.certificate)
    lines = [f"lower {b.lower} ({b.lower_method})", f"upper {b.upper}",
             f"exact {b.exact if b.exact is not None else 'undetermined'}"]
    lines.extend(f"  note: {f}" for f in b.flags)
    return payload, lines, EXIT_OK


def _cmd_ql_validate(args):
    with open(args.cert) as fh:
        cert = certificate_from_json(fh.read())
    verdict = validate_filtration(cert)
    payload = {"status": verdict.status, "step": verdict.step,
               "witness": verdict.witness, "steps": len(cert)}
    if verdict.ok:
        lines = [f"valid ({len(cert)} steps)"]
    else:
        lines = [f"invalid at step {verdict.step}: {verdict.witness}"]
    return payload, lines, EXIT_OK


def _cmd_content_scan(args):
    pres = _presentation(args)
    params = _polys(pres, args.params)
    table = content_scan(pres, params, _ints(args.t), mode=args.mode)
    rows = table.as_dicts()
    payload = {"mode": table.mode, "d": table.d, "rows": rows}
    lines = []
    for r in rows:
        lines.append(
            f"t={r['t']}  upper={r['upper']} ({r['upper_from']}, ratio "
            f"{r['upper_ratio']})  lower={r['lower']} ({r['lower_from']}, "
            f"ratio {r['lower_ratio']})")
    return payload, lines, EXIT_OK


def _cmd_content_limit_closure(args):
    pres = _presentation(args)
    params = _polys(pres, args.params)
    res = limit_closure(pres, params, args.t, window=args.window,
                        max_k=args.max_k)
    gens = _fmt(res.ideal.groebner_basis())
    payload = {"generators": gens, "k": res.k, "window": res.window,
               "stabilized": res.stabilized}
    lines = [f"k={res.k} stabilized={str(res.stabilized).lower()} "
             f"(window {res.window})"] + gens
    return payload, lines, EXIT_OK


def _cmd_force_build(args):
    pres = _presentation(args)
    fa = generic_forcing_algebra(pres, _polys(pres, args.gens),
                                 _poly(pres, args.element), prefix=args.prefix)
    payload = {"presentation": fa.describe(), "fresh_variables": list(fa.z_names),
               "element": dsl.format_poly(fa.element),
               "generators": _fmt(fa.generators)}
    return payload, [fa.describe()], EXIT_OK


def _cmd_force_tight_table(args):
    pres = _presentation(args)
    table = tight_membership_table(pres, _poly(pres, args.element),
                                   _polys(pres, args.gens),
                                   _poly(pres, args.multiplier),
                                   _ints(args.e))
    rows = table.as_dicts()
    payload = {"rows": rows, "all_pass": table.all_pass()}
    lines = [f"e={r['e']} q={r['q']} member={str(r['member']).lower()}" for r in rows]
    return payload, lines, EXIT_OK


def _cmd_force_test_element(args):
    pres = _presentation(args)
    found = test_element_search(pres, _poly(pres, args.element),
                                _polys(pres, args.gens), _ints(args.e),
                                degree_bound=args.degree_bound)
    rendered = dsl.format_poly(found) if found is not None else None
    payload = {"found": rendered}
    return payload, [rendered if rendered else "none"], EXIT_OK


def _cmd_force_lc_class(args):
    pres = _presentation(args)
    table = lc_class_vanishing(pres, _polys(pres, args.params), args.k_max)
    payload = {"rows": table.as_dicts()}
    lines = [f"k={r.k} vanished={str(r.vanished).lower()}" for r in table.rows]
    return payload, lines, EXIT_OK


def _cmd_force_qseq(args):
    pres = _presentation(args)
    report = qseq_verdict_charp(pres, _polys(pres, args.params),
                                _poly(pres, args.element), t=args.t,
                                e_list=_ints(args.e),
                                degree_bound=args.degree_bound)
    payload = {
        "verdict": report.verdict,
        "multiplier": (dsl.format_poly(report.multiplier)
                       if report.multiplier is not None else None),
        "table": report.table.as_dicts() if report.table else None,
        "disproof": (_fmt(report.disproof.generators)
                     if report.disproof else None),
        "target_count": report.target_count,
        "found_count": report.found_count,
        "forcing": report.forcing.describe(),
        "notes": list(report.notes),
        "searches_complete": report.searches_complete,
    }
    lines = [f"verdict: {report.verdict}"]
    if report.multiplier is not None:
        lines.append(f"multiplier: {dsl.format_poly(report.multiplier)}")
    if report.disproof is not None:
        lines.append(f"filtration with {report.found_count} < "
                     f"{report.target_count} steps: "
                     + ", ".join(_fmt(report.disproof.generators)))
    lines.append(f"searches complete: {str(report.searches_complete).lower()}")
    if args.cert_out:
        if report.disproof is not None:
            _write_cert(args.cert_out, report.disproof)
        else:
            lines.append("no disproof certificate to write")
    return payload, lines, EXIT_OK


def _example_lines(rep) -> list:
    lines = [f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} "
             f"({len(rep.checks)} checks)  {rep.summary}"]
    for c in rep.checks:
        mark = "ok" if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.description}: expected {c.expected}, "
                     f"got {c.computed}")
    return lines


def _cmd_examples_run(args):
    rep = casebook.run_example(args.name)
    code = EXIT_OK if rep.passed else EXIT_CHECK_FAILED
    return rep.as_dict(), _example_lines(rep), code


def _cmd_examples_run_all(args):
    reports = casebook.run_all(long=args.long)
    lines = []
    for rep in reports:
        lines.append(f"{rep.name}: {'PASS' if rep.passed else 'FAIL'} "
                     f"({len(rep.checks)} checks)")
        for c in rep.checks:
            if not c.passed:
                lines.append(f"  [FAIL] {c.description}: expected "
                             f"{c.expected}, got {c.computed}")
    ok = all(rep.passed for rep in reports)
    lines.append("all examples pass" if ok else "some examples FAILED")
    payload = {"reports": [rep.as_dict() for rep in reports],
               "all_passed": ok}
    return payload, lines, EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def _subcommand(sub, name, func, ring=True, **kw):
    """Register one subcommand: --ring (unless ring=False), the output flags
    and its handler, by name, so that run looks the handler up when it
    dispatches and a parser built once never holds a stale function.  Every
    other option it declares is an input, echoed in the JSON report."""
    p = sub.add_parser(name, **kw)
    if ring:
        p.add_argument("--ring", required=True,
                       help="ring DSL, e.g. \"F2[x,y]/(x*y)\" or \"Q[x,y,z]\"")
    out = p.add_argument_group("output")
    out.add_argument("--json", action="store_true",
                     help="emit the versioned JSON report instead of text")
    out.add_argument("--out", metavar="PATH",
                     help="write the report to PATH instead of stdout")
    p.set_defaults(func=func.__name__)
    return p


def build_parser(example_names) -> argparse.ArgumentParser:
    """The qlc parser; example_names are the names `examples run` accepts."""
    parser = argparse.ArgumentParser(
        prog="qlc",
        description="Exact filtration-length and closure-evidence toolkit "
                    "for quotients of polynomial rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "gb", _cmd_gb, help="reduced Groebner basis of an ideal")
    p.add_argument("--ideal", required=True, help="';'-separated generators")
    p.add_argument("--order", choices=sorted(_ORDERS), default="grevlex")

    p = _subcommand(sub, "member", _cmd_member,
                    help="ideal membership of one polynomial")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)

    p = _subcommand(sub, "compare", _cmd_compare,
                    help="mutual containment of two ideals")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = _subcommand(sub, "colon", _cmd_colon, help="ideal quotient (I : J)")
    p.add_argument("--ideal", required=True)
    p.add_argument("--by", required=True)

    p = _subcommand(sub, "intersect", _cmd_intersect,
                    help="intersection of two ideals")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = _subcommand(sub, "length", _cmd_length,
                    help="vector-space dimension of R/I")
    p.add_argument("--ideal", required=True)

    p = _subcommand(sub, "vmod", _cmd_vmod, help="finite-length subquotient as "
                    "explicit basis and action matrices")
    p.add_argument("--top", default="1", help="generators of the submodule "
                                              "(default: the whole ring)")
    p.add_argument("--bottom", required=True,
                   help="generators quotiented out")

    ql = sub.add_parser("ql", help="minimum filtration length of a module "
                                   "against a killing ideal")
    qsub = ql.add_subparsers(dest="action", required=True)
    for name, fn in (("exact", _cmd_ql_exact), ("bounds", _cmd_ql_bounds)):
        p = _subcommand(qsub, name, fn)
        p.add_argument("--top", default="1")
        p.add_argument("--bottom", required=True)
        p.add_argument("--killing", required=True)
        p.add_argument("--cert-out", metavar="PATH",
                       help="also write the certificate as JSON")
    p = _subcommand(qsub, "validate", _cmd_ql_validate, ring=False)
    p.add_argument("--cert", required=True,
                   help="certificate JSON file to re-validate")

    content = sub.add_parser("content", help="upper/lower bound tables for "
                                             "filtration lengths of parameter-"
                                             "power quotients")
    csub = content.add_subparsers(dest="action", required=True)
    p = _subcommand(csub, "scan", _cmd_content_scan)
    p.add_argument("--params", required=True)
    p.add_argument("--t", required=True, help="';'-separated exponents")
    p.add_argument("--mode", choices=["plain", "underline"], default="plain")
    p = _subcommand(csub, "limit-closure", _cmd_content_limit_closure)
    p.add_argument("--params", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--max-k", type=int, default=64)

    force = sub.add_parser("force", help="forcing algebras and bounded "
                                         "closure-membership evidence")
    fsub = force.add_subparsers(dest="action", required=True)
    p = _subcommand(fsub, "build", _cmd_force_build)
    p.add_argument("--gens", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--prefix", default="Z")
    p = _subcommand(fsub, "tight-table", _cmd_force_tight_table)
    p.add_argument("--element", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--multiplier", required=True)
    p.add_argument("--e", required=True, help="';'-separated exponents")
    p = _subcommand(fsub, "test-element", _cmd_force_test_element)
    p.add_argument("--element", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--degree-bound", type=int, default=4)
    p = _subcommand(fsub, "lc-class", _cmd_force_lc_class)
    p.add_argument("--params", required=True)
    p.add_argument("--k-max", type=int, default=4)
    p = _subcommand(fsub, "qseq", _cmd_force_qseq)
    p.add_argument("--params", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--e", default="1;2")
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--cert-out", metavar="PATH",
                   help="write the disproof certificate when one is found")

    examples = sub.add_parser("examples", help="run the built-in worked "
                                               "examples with expected values")
    esub = examples.add_subparsers(dest="action", required=True)
    p = _subcommand(esub, "run", _cmd_examples_run, ring=False)
    p.add_argument("name", choices=example_names)
    p = _subcommand(esub, "run-all", _cmd_examples_run_all, ring=False)
    p.add_argument("--long", action="store_true",
                   help="include the long-running entries")

    return parser


# ---------------------------------------------------------------------------
# driver

# Parsed attributes that are not inputs: dispatch, output flags and side files.
_NOT_INPUTS = ("command", "action", "func", "json", "out", "cert_out")

# Flags whose values are polynomials or ';'-separated lists of them.
_POLY_FLAGS = frozenset({"--ideal", "--poly", "--left", "--right", "--by", "--top",
                         "--bottom", "--killing", "--params", "--gens", "--element",
                         "--multiplier"})


def _option_strings(parser: argparse.ArgumentParser) -> set:
    """Every option string parser and its subcommands register."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _option_strings(sub)
    return out


def _glue_signed_values(argv, options) -> list:
    """argv with each polynomial flag glued to a following value that starts
    with '-' and is no option ("--poly", "-x+1" becomes "--poly=-x+1"):
    argparse would read that value as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _POLY_FLAGS and arg.startswith("-") and arg not in options:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _command_name(args) -> str:
    action = getattr(args, "action", None)
    return f"{args.command} {action}" if action else args.command


def _render(args, payload, lines) -> str:
    if args.json:
        echo = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        envelope = {"schema": 1, "command": _command_name(args),
                    "input": echo, "result": payload}
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in lines)


@functools.lru_cache(maxsize=1)
def _parser(example_names: tuple) -> tuple:
    """The parser and its option strings, built once per set of example
    names, the one thing the parser reads that can change while a process
    runs."""
    parser = build_parser(example_names)
    return parser, _option_strings(parser)


def run(argv) -> int:
    parser, options = _parser(tuple(sorted(casebook.REGISTRY)))
    try:
        args = parser.parse_args(_glue_signed_values(argv, options))
    except SystemExit as stop:
        return EXIT_OK if not stop.code else EXIT_USAGE
    try:
        with budget(default_budget_seconds()):
            payload, lines, code = globals()[args.func](args)
        text = _render(args, payload, lines)
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPTED
    except BudgetExhausted:
        envelope = {"schema": 1, "command": _command_name(args),
                    "incomplete": True,
                    "error": "time budget exhausted before the computation "
                             "finished"}
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        code = EXIT_BUDGET
    except SearchLimit as err:
        sys.stderr.write(f"error: {err} (try 'ql bounds')\n")
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
