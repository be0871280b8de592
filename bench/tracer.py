"""Out-of-tree tracing of the qlc engine: wrappers around public functions.

The engine itself carries no instrumentation.  A Tracer replaces each public
function or method listed in TARGETS with a timing wrapper, everywhere a
reference to it lives: the defining module, every qlc module that imported
the name, and class attributes (including aliases such as
``Polynomial.__radd__ = __add__``).  ``uninstall`` puts every original back.

Each wrapped call is a frame on one stack.  Its self time is its duration
minus the time its wrapped children took, so private hot loops
(``_reduce_terms``, ``_search``, ``_spin_insert``, ``_udivmod``) count as
self time of the public function that encloses them.  Coarse calls also
record a span (name, start, end, parent span, trace id); leaf arithmetic is
only counted and timed in aggregate, because a span per field operation
would need gigabytes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute path, group name, records spans)
TARGETS = [
    ("qlc.poly", "Polynomial.__add__", "poly.arith", False),
    ("qlc.poly", "Polynomial.__sub__", "poly.arith", False),
    ("qlc.poly", "Polynomial.__rsub__", "poly.arith", False),
    ("qlc.poly", "Polynomial.__neg__", "poly.arith", False),
    ("qlc.poly", "Polynomial.__mul__", "poly.arith", False),
    ("qlc.poly", "Polynomial.__pow__", "poly.arith", False),
    ("qlc.poly", "Polynomial.mul_monomial", "poly.arith", False),
    ("qlc.poly", "frobenius_power", "poly.arith", False),
    ("qlc.groebner", "buchberger", "groebner.buchberger", True),
    ("qlc.groebner", "normal_form", "groebner.normal_form", True),
    ("qlc.groebner", "colon", "groebner.colon", True),
    ("qlc.groebner", "IdealHandle.contains_poly", "groebner.contains_poly", True),
    ("qlc.linalg", "RowSpace.insert", "linalg.rowspace_insert", False),
    ("qlc.linalg", "RowSpace.reduce", "linalg.rowspace_reduce", False),
    ("qlc.linalg", "RowSpace.copy", "linalg.rowspace_copy", False),
    ("qlc.linalg", "RowSpace.key", "linalg.rowspace_key", False),
    ("qlc.linalg", "mat_mul", "linalg.dense", False),
    ("qlc.linalg", "mat_vec", "linalg.dense", False),
    ("qlc.linalg", "nullspace", "linalg.dense", False),
    ("qlc.quotient", "vector_module", "quotient.spin", True),
    ("qlc.quotient", "quotient_module", "quotient.spin", True),
    ("qlc.quotient", "length", "quotient.length", True),
    ("qlc.quasilength", "quasilength_exact", "quasilength.search", True),
    ("qlc.quasilength", "quasilength", "quasilength.search", True),
    ("qlc.quasilength", "validate_filtration", "quasilength.validate", True),
    ("qlc.closure", "short_filtration_search", "closure.search", True),
    ("qlc.closure", "test_element_search", "closure.membership_search", True),
    ("qlc.closure", "tight_membership_table", "closure.membership_search", True),
    ("qlc.content", "content_scan", "content.scan", True),
    ("qlc.content", "limit_closure", "content.limit_closure", True),
    ("qlc.config", "check_budget", "config.budget_check", False),
    ("qlc.dsl", "parse_ring", "dsl.parse", True),
    ("qlc.dsl", "parse_poly", "dsl.parse", True),
    ("qlc.dsl", "parse_polys", "dsl.parse", True),
    ("qlc.casebook", "run_example", "casebook.example", True),
    ("qlc.cli", "run", "cli.run", True),
]
_FIELD_OPS = ("add", "sub", "neg", "mul", "div", "inv")

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_METRICS = [
    ("fields.fpt2_ops", "count", "lower", "wall_s on fpt_membership"),
    ("fields.fpt2_s", "s", "lower", "wall_s on fpt_membership"),
    ("fields.fpt3_ops", "count", "lower", "wall_s on fpt_membership"),
    ("fields.fpt3_s", "s", "lower", "wall_s on fpt_membership"),
    ("poly.arith_calls", "count", "lower", "wall_s on fpt_membership and casebook"),
    ("poly.arith_s", "s", "lower", "wall_s on fpt_membership and casebook"),
    ("groebner.buchberger_calls", "count", "lower",
     "wall_s on casebook, search_nodes_per_s on disproof_search"),
    ("groebner.buchberger_s", "s", "lower",
     "wall_s on casebook, search_nodes_per_s on disproof_search"),
    ("groebner.normal_form_calls", "count", "lower",
     "wall_s on casebook, search_nodes_per_s on disproof_search"),
    ("groebner.normal_form_s", "s", "lower",
     "wall_s on casebook, search_nodes_per_s on disproof_search"),
    ("groebner.colon_calls", "count", "lower", "wall_s on casebook"),
    ("groebner.colon_s", "s", "lower", "wall_s on casebook"),
    ("groebner.gb_repeat_ratio", "ratio", "lower",
     "wall_s on casebook and fpt_membership"),
    ("linalg.rowspace_inserts", "count", "lower", "wall_s on module_search"),
    ("linalg.rowspace_s", "s", "lower", "wall_s on module_search"),
    ("linalg.dense_s", "s", "lower", "wall_s on module_search"),
    ("quotient.spin_calls", "count", "lower", "wall_s on module_search and casebook"),
    ("quotient.spin_s", "s", "lower", "wall_s on module_search and casebook"),
    ("quotient.length_calls", "count", "lower", "wall_s on module_search and casebook"),
    ("quotient.length_s", "s", "lower", "wall_s on module_search and casebook"),
    ("quasilength.search_s", "s", "lower", "wall_s on module_search"),
    ("quasilength.search_states", "count", "lower", "wall_s on module_search"),
    ("quasilength.state_dedup_ratio", "ratio", "higher", "wall_s on module_search"),
    ("quasilength.validate_calls", "count", "lower",
     "wall_s on module_search and casebook"),
    ("quasilength.validate_s", "s", "lower", "wall_s on module_search and casebook"),
    ("closure.search_nodes", "count", "lower", "search_nodes_per_s on disproof_search"),
    ("closure.search_s", "s", "lower", "search_nodes_per_s on disproof_search"),
    ("closure.nf_per_node", "ratio", "lower", "search_nodes_per_s on disproof_search"),
    ("closure.gb_per_node", "ratio", "lower", "search_nodes_per_s on disproof_search"),
    ("closure.membership_checks", "count", "lower", "wall_s on fpt_membership"),
    ("closure.membership_s", "s", "lower", "wall_s on fpt_membership"),
    ("content.scan_rows", "count", "lower", "wall_s on casebook"),
    ("content.scan_s", "s", "lower", "wall_s on casebook"),
    ("content.limit_closure_stages", "count", "lower", "wall_s on casebook"),
    ("config.budget_checks", "count", "lower", "wall_s on casebook"),
    ("dsl.parse_calls", "count", "lower", "setup_s on every workload"),
    ("dsl.parse_s", "s", "lower", "setup_s on every workload"),
    ("cli.run_s", "s", "lower", "wall_s on casebook"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing itself"),
]

# Deterministic work counts: equal across runs of the same code, or an error.
COUNT_METRICS = [name for name, unit, _b, _m in LAYER_METRICS if unit == "count"]


def _gb_key(gens, order, seed) -> tuple:
    canon = lambda polys: tuple(sorted(tuple(sorted(g.terms.items())) for g in polys))
    return canon(gens), order.tag, canon(seed)


class Tracer:
    """Spans and per-group call counts and self times for one traced pass."""

    def __init__(self):
        self.installed: list = []   # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.active: dict = defaultdict(int)   # group -> open frames
        self.stack: list = []                  # [child seconds] per open frame
        self.spans: list = []
        self.current_span = -1
        self.trace_id = "setup"
        self.gb_keys: set = set()
        self.gb_repeats = 0
        self.rowspace_keys: set = set()
        self.search_nodes = 0
        self.scan_rows = 0
        self.under: dict = defaultdict(int)    # calls made inside another group
        self.membership_s = 0.0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, group, spans: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = group if group != "fields" else f"fields.fpt{args[0].p}"
            if name == "groebner.buchberger":
                tracer._buchberger_key(*args, **kwargs)
            stack = tracer.stack
            children = [0.0]
            parent = tracer.current_span
            if spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
                tracer.current_span = index
            stack.append(children)
            tracer.active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                if spans:
                    tracer.spans[index] = (name, start, end, parent, tracer.trace_id)
                    tracer.current_span = parent
            tracer._after(name, duration, result)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _buchberger_key(self, gens, order=None, seed=()) -> None:
        key = _gb_key(gens, order or sys.modules["qlc.poly"].grevlex, seed)
        if key in self.gb_keys:
            self.gb_repeats += 1
        self.gb_keys.add(key)

    def _after(self, name, duration, result) -> None:
        """Counts that depend on the caller or on the result."""
        active = self.active
        if name == "linalg.rowspace_copy" and active["quasilength.search"]:
            self.under["states"] += 1
        elif name == "linalg.rowspace_key" and active["quasilength.search"]:
            self.under["candidates"] += 1
            self.rowspace_keys.add((self.trace_id, result))
        elif name == "groebner.contains_poly" and active["closure.membership_search"]:
            self.under["membership"] += 1
            self.membership_s += duration
        elif active["closure.search"] and name in ("groebner.normal_form",
                                                   "groebner.buchberger"):
            self.under[name + "@search"] += 1
        elif name == "groebner.colon" and active["content.limit_closure"]:
            self.under["stages"] += 1
        elif name == "closure.search":
            self.search_nodes += result.nodes
        elif name == "content.scan":
            self.scan_rows += len(result.rows)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        from qlc.fields import RationalFunctionField

        originals = []
        for modname, path, group, spans in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            originals.append((vars(owner)[attr], group, spans))
        for op in _FIELD_OPS:
            originals.append((vars(RationalFunctionField)[op], "fields", False))
        replace = {id(fn): self._wrap(fn, group, spans) for fn, group, spans in originals}
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self.installed.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    @staticmethod
    def _owners() -> list:
        """Every qlc module and every class defined in one."""
        owners = []
        for name, module in sorted(sys.modules.items()):
            if name != "qlc" and not name.startswith("qlc."):
                continue
            owners.append(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    owners.append(value)
        return owners

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the pass, without trace.overhead_frac."""
        c, s = self.calls, self.self_s
        nodes = self.search_nodes
        candidates = self.under["candidates"]
        per_node = lambda key: self.under[key] / nodes if nodes else 0.0
        return {
            "fields.fpt2_ops": c["fields.fpt2"],
            "fields.fpt2_s": s["fields.fpt2"],
            "fields.fpt3_ops": c["fields.fpt3"],
            "fields.fpt3_s": s["fields.fpt3"],
            "poly.arith_calls": c["poly.arith"],
            "poly.arith_s": s["poly.arith"],
            "groebner.buchberger_calls": c["groebner.buchberger"],
            "groebner.buchberger_s": s["groebner.buchberger"],
            "groebner.normal_form_calls": c["groebner.normal_form"],
            "groebner.normal_form_s": s["groebner.normal_form"],
            "groebner.colon_calls": c["groebner.colon"],
            "groebner.colon_s": s["groebner.colon"],
            "groebner.gb_repeat_ratio": (self.gb_repeats / c["groebner.buchberger"]
                                         if c["groebner.buchberger"] else 0.0),
            "linalg.rowspace_inserts": c["linalg.rowspace_insert"],
            "linalg.rowspace_s": sum(s[g] for g in (
                "linalg.rowspace_insert", "linalg.rowspace_reduce",
                "linalg.rowspace_copy", "linalg.rowspace_key")),
            "linalg.dense_s": s["linalg.dense"],
            "quotient.spin_calls": c["quotient.spin"],
            "quotient.spin_s": s["quotient.spin"],
            "quotient.length_calls": c["quotient.length"],
            "quotient.length_s": s["quotient.length"],
            "quasilength.search_s": s["quasilength.search"],
            "quasilength.search_states": self.under["states"],
            "quasilength.state_dedup_ratio": (len(self.rowspace_keys) / candidates
                                              if candidates else 0.0),
            "quasilength.validate_calls": c["quasilength.validate"],
            "quasilength.validate_s": s["quasilength.validate"],
            "closure.search_nodes": nodes,
            "closure.search_s": s["closure.search"],
            "closure.nf_per_node": per_node("groebner.normal_form@search"),
            "closure.gb_per_node": per_node("groebner.buchberger@search"),
            "closure.membership_checks": self.under["membership"],
            "closure.membership_s": self.membership_s,
            "content.scan_rows": self.scan_rows,
            "content.scan_s": s["content.scan"],
            "content.limit_closure_stages": (c["content.limit_closure"]
                                             + self.under["stages"]),
            "config.budget_checks": c["config.budget_check"],
            "dsl.parse_calls": c["dsl.parse"],
            "dsl.parse_s": s["dsl.parse"],
            "cli.run_s": s["cli.run"],
        }

    def write_spans(self, path) -> None:
        """Spans of the pass as gzipped JSON, times relative to the first span."""
        spans = self.spans
        origin = min((sp[1] for sp in spans), default=0.0)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "trace_id"],
            "spans": [[n, round(a - origin, 7), round(b - origin, 7), p, t]
                      for n, a, b, p, t in spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
