"""The benchmark's four workloads: job lists built from a seed, and the oracle.

A workload is a list of jobs run one after another on one thread.  ``build``
parses and constructs every input (this is what ``setup_s`` times) and
returns fresh objects, so no Groebner basis cached on an ideal survives from
one pass into the next.

The seed never changes the work, only how it is presented, so every seed
has the same answers and the same cost:

- the order of the jobs in a pass;
- variable renamings that are symmetries of a presentation (x <-> y on the
  Fermat cubic and the Brenner-Monsky quartic, permutations of x, y, z on
  xyz, the dihedral group on cyclic-5), written into the ring text together
  with the order of the variables, and the order of terms in the DSL text;
- for modules, a sign change of the coordinates (the diagonal matrix
  diag(+-1) conjugating every action matrix), or swapping the two summands
  of a direct sum that x <-> y maps onto each other.

General invertible coordinate changes were tried and rejected: they keep
the answer but make the action matrices dense, which doubles the exact
search's cost and moves its state count by a few percent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import qlc
from qlc import cli, closure

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("casebook", "disproof_search", "fpt_membership", "module_search")

# The ten default worked examples; the long one runs in fpt_membership.
EXAMPLES = ("dvr", "uv", "roberts", "fermat", "square_shortcut", "cubic_forcing",
            "normalization_w", "segre", "segre_matrix", "segre_filtration")
DISPROOF_NODE_BUDGET = 3000


@dataclass
class Job:
    id: str
    spec: dict                  # the job's inputs as text, for reproducibility checks
    run: Callable[[], dict]     # runs the engine, returns the canonical answer


class SearchProbe:
    """Records node count and wall time of each short_filtration_search call.

    It is the only wrapper around engine code in untraced passes: one extra
    call per search, no clock reads inside the search.
    """

    def __init__(self):
        self.calls: list = []   # (nodes, seconds)
        self._saved = []

    def __enter__(self):
        original = closure.short_filtration_search

        def probed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.calls.append((result.nodes, time.perf_counter() - start))
            return result

        for module in (closure, qlc):
            self._saved.append((module, module.short_filtration_search))
            module.short_filtration_search = probed
        return self

    def __exit__(self, *exc):
        for module, original in reversed(self._saved):
            module.short_filtration_search = original
        self._saved = []
        return False


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _terms(rng: random.Random, terms) -> str:
    terms = list(terms)
    rng.shuffle(terms)
    return "+".join(terms)


def _exps(f) -> list:
    """Exponent vector of a monomial, None for no multiplier."""
    if f is None:
        return None
    (mono,) = f.terms
    return list(mono)


def _digest(polys) -> str:
    text = "\n".join(qlc.format_poly(g) for g in polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# casebook


def _example_job(name: str) -> Job:
    argv = ["examples", "run", name, "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        report = json.loads(out.getvalue())["result"]
        return {"exit": code, "passed": report["passed"],
                "checks": [[c["description"], c["expected"], c["computed"], c["passed"]]
                           for c in report["checks"]]}

    return Job(f"casebook/{name}", {"argv": argv}, run)


def _cyclic_text(rng: random.Random, n: int) -> list:
    """cyclic-n, written through a random dihedral symmetry (same polynomials)."""
    shift, flip = rng.randrange(n), rng.random() < 0.5
    image = [((n - i if flip else i) + shift) % n for i in range(n)]
    gens = []
    for d in range(1, n):
        gens.append(_terms(rng, ("*".join(f"x{image[(i + k) % n]}" for k in range(d))
                                 for i in range(n))))
    gens.append("*".join(f"x{image[i]}" for i in range(n)) + "-1")
    return gens


def _katsura_text(rng: random.Random, n: int) -> list:
    u = lambda k: abs(k) if abs(k) <= n else None
    gens = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = u(l), u(m - l)
            if a is None or b is None:
                continue
            mono = "*".join(sorted((f"u{a}", f"u{b}")))
            terms[mono] = terms.get(mono, 0) + 1
        body = [f"{c}*{mono}" if c > 1 else mono for mono, c in terms.items()]
        gens.append(_terms(rng, body + [f"-u{m}"]))
    gens.append(_terms(rng, ["u0"] + [f"2*u{k}" for k in range(1, n + 1)] + ["-1"]))
    return gens


def _probe_job(job_id: str, field: str, variables: list, gens_text: list) -> Job:
    ring_text = f"{field}[{','.join(variables)}]"
    ring, _ = qlc.parse_ring(ring_text)
    gens = qlc.parse_polys(ring, ";".join(gens_text))

    def run():
        handle = qlc.ideal(ring, gens)
        basis = handle.groebner_basis()
        return {"basis_size": len(basis), "digest": _digest(basis),
                "length": qlc.length(handle)}

    return Job(job_id, {"ring": ring_text, "gens": gens_text}, run)


def _casebook(rng: random.Random) -> list:
    jobs = [_example_job(name) for name in EXAMPLES]
    xs = [f"x{i}" for i in range(5)]
    jobs.append(_probe_job("casebook/cyclic5_f32003", "F32003", xs, _cyclic_text(rng, 5)))
    jobs.append(_probe_job("casebook/cyclic5_q", "Q", xs, _cyclic_text(rng, 5)))
    jobs.append(_probe_job("casebook/katsura5_q", "Q", [f"u{k}" for k in range(6)],
                           _katsura_text(rng, 5)))
    return jobs


# ---------------------------------------------------------------------------
# disproof_search


def _xy_names(rng: random.Random) -> tuple:
    """x <-> y renaming, applied to the variable order too."""
    return ("y", "x") if rng.random() < 0.5 else ("x", "y")


def _disproof(rng: random.Random) -> list:
    a, b = _xy_names(rng)
    ring_text = f"F2[{a},{b},z]/({_terms(rng, (f'{a}^3', f'{b}^3', 'z^3'))})"
    jobs = []
    for t, budget in ((3, DISPROOF_NODE_BUDGET), (2, None)):
        pres = qlc.QuotientPresentation.parse(ring_text)
        params = (pres.ambient.var(a), pres.ambient.var(b))
        u = qlc.parse_poly(pres.ambient, "z^2")
        config = qlc.JobConfig(disproof_node_budget=budget or qlc.DEFAULT.disproof_node_budget)

        def run(pres=pres, params=params, u=u, t=t, config=config):
            with SearchProbe() as probe:
                rep = qlc.qseq_verdict_charp(pres, params, u, t=t, config=config)
            (nodes, seconds), = probe.calls
            return {"verdict": rep.verdict, "multiplier": _exps(rep.multiplier),
                    "complete": rep.searches_complete, "found_count": rep.found_count,
                    "target_count": rep.target_count, "nodes": nodes,
                    "_search_s": seconds}

        label = f"t{t}_capped" if budget else f"t{t}"
        jobs.append(Job(f"disproof/fermat_{label}",
                        {"ring": ring_text, "params": [a, b], "u": "z^2", "t": t,
                         "node_budget": budget}, run))
    return jobs


# ---------------------------------------------------------------------------
# fpt_membership


def _quartic(rng: random.Random, p: int, a: str, b: str) -> str:
    terms = ("z^4", f"{a}*{b}*z^2", f"{a}^3*z", f"{b}^3*z", f"t*{a}^2*{b}^2")
    return f"F{p}(t)[{a},{b},z]/({_terms(rng, terms)})"


def _fpt(rng: random.Random) -> list:
    a, b = _xy_names(rng)
    rows = lambda table: [[r.e, r.q, r.member] for r in table.rows]

    ring2 = _quartic(rng, 2, a, b)
    pres2 = qlc.QuotientPresentation.parse(ring2)
    u2 = qlc.parse_poly(pres2.ambient, f"{a}^3*{b}^3")
    gens2_text = f"{a}^4;{b}^4;z^4"
    gens2 = qlc.parse_polys(pres2.ambient, gens2_text)

    def run_f2():
        c = qlc.test_element_search(pres2, u2, gens2, (1, 2), degree_bound=4)
        table = qlc.tight_membership_table(pres2, u2, gens2, c, (1, 2))
        return {"multiplier": _exps(c), "rows": rows(table)}

    ring3 = _quartic(rng, 3, a, b)
    pres3 = qlc.QuotientPresentation.parse(ring3)
    u3 = qlc.parse_poly(pres3.ambient, f"{a}*{b}*z")
    gens3_text = f"{a}^2;{b}^2;z^2"
    gens3 = qlc.parse_polys(pres3.ambient, gens3_text)

    def run_f3():
        table = qlc.tight_membership_table(pres3, u3, gens3, pres3.ambient.one(), (2,))
        return {"rows": rows(table)}

    return [
        Job("fpt/brenner_monsky_f2", {"ring": ring2, "u": f"{a}^3*{b}^3",
                                      "gens": gens2_text, "e": [1, 2],
                                      "degree_bound": 4}, run_f2),
        Job("fpt/quartic_f3_e2", {"ring": ring3, "u": f"{a}*{b}*z", "gens": gens3_text,
                                  "multiplier": "1", "e": [2]}, run_f3),
    ]


# ---------------------------------------------------------------------------
# module_search


def _quotient(ring, gens_text: str):
    return qlc.quotient_module(qlc.ideal(ring, qlc.parse_polys(ring, gens_text)))


def _resign(M, signs):
    """diag(signs) * A * diag(signs) for every action matrix A."""
    F = M.field
    actions = {v: [[c if si == sj else F.neg(c) for c, sj in zip(row, signs)]
                   for row, si in zip(A, signs)]
               for v, A in M.actions.items()}
    return qlc.VectorModule.from_actions(M.ring, actions, labels=M.labels, k_gb=M.k_gb)


def _module_spec(M) -> dict:
    F = M.field
    return {v: [[F.format(c) for c in row] for row in A] for v, A in M.actions.items()}


def _module_job(job_id, rng, ring, M, killing_text, exact_only: bool) -> Job:
    if M.field.size != 2:
        M = _resign(M, [rng.choice((1, -1)) for _ in range(M.dim)])
    I = qlc.ideal(ring, qlc.parse_polys(ring, killing_text))

    def run():
        if exact_only:
            return {"exact": qlc.quasilength_exact(M, I)[0]}
        bounds = qlc.quasilength(M, I)
        return {"lower": bounds.lower, "upper": bounds.upper, "exact": bounds.exact,
                "lower_method": bounds.lower_method}

    return Job(job_id, {"killing": killing_text, "actions": _module_spec(M),
                        "exact_only": exact_only}, run)


def _modules(rng: random.Random) -> list:
    f2 = qlc.QuotientPresentation.parse("F2[x,y]").ambient
    # x <-> y maps F2[x,y]/(x^2,y^3) onto F2[x,y]/(x^3,y^2) and fixes (x^2,y^2)
    summands = [_quotient(f2, "x^2;y^3"), _quotient(f2, "x^3;y^2")]
    if rng.random() < 0.5:
        summands.reverse()
    f3 = qlc.QuotientPresentation.parse("F3[x,y]").ambient
    q = qlc.QuotientPresentation.parse("Q[x,y]").ambient
    jobs = [
        _module_job("module/f2_6p6_exact", rng, f2, qlc.direct_sum(*summands),
                    "x^2;y^2", True),
        _module_job("module/f3_4p4_exact", rng, f3,
                    qlc.direct_sum(_quotient(f3, "x^2;x*y;y^3"), _quotient(f3, "x^2;y^2")),
                    "x;y^2", True),
        _module_job("module/f3_4p4_bounds", rng, f3,
                    qlc.direct_sum(_quotient(f3, "x^2;y^2"), _quotient(f3, "x^2;y^2")),
                    "x^2;y", False),
        _module_job("module/q_4p4_pool", rng, q,
                    qlc.direct_sum(_quotient(q, "x^2;y^2"), _quotient(q, "x^2;y^2")),
                    "x;y", False),
        _module_job("module/q_dim46_greedy", rng, q, _quotient(q, "x^6;y^8;x^5*y^6"),
                    "x^2;y^2", False),
    ]

    names = list("xyz")
    rng.shuffle(names)   # xyz is symmetric under every permutation
    ring_text = f"F2[{','.join(names)}]/({'*'.join(names)})"
    pres = qlc.QuotientPresentation.parse(ring_text)
    params = qlc.parse_polys(pres.ambient, ";".join(names))

    def run_scan():
        table = qlc.content_scan(pres, params, (1, 2, 3))
        return {"rows": [[r.t, r.upper, r.lower, r.upper_from, r.lower_from]
                         for r in table.rows]}

    jobs.append(Job("module/f2_xyz_content_scan",
                    {"ring": ring_text, "params": names, "t": [1, 2, 3]}, run_scan))
    return jobs


_BUILDERS = {"casebook": _casebook, "disproof_search": _disproof,
             "fpt_membership": _fpt, "module_search": _modules}


def build(workload: str, seed: int) -> list:
    """Fresh inputs for one pass, in the seed's job order."""
    rng = _rng(workload, seed)
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# oracle


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def check(expected: dict, job_id: str, answer: dict) -> str | None:
    """None when the answer matches the oracle, else a one-line reason."""
    want = expected.get(job_id)
    if want is None:
        return "no expected answer recorded"
    got = {k: v for k, v in answer.items() if not k.startswith("_")}
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"answer differs in {diff}"
    return None
