"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS, Tracer  # noqa: E402

EXPECTED = workloads.load_expected()
# jobs under half a second each, enough to cover every input variant kind
CHEAP = ("casebook/dvr", "casebook/cyclic5_f32003", "disproof/fermat_t2",
         "module/f3_4p4_exact", "module/f3_4p4_bounds", "module/q_dim46_greedy",
         "module/f2_xyz_content_scan")


def jobs_by_id(workload: str, seed: int) -> dict:
    return {job.id: job for job in workloads.build(workload, seed)}


def cheap_jobs(seed: int) -> list:
    jobs = {}
    for w in workloads.WORKLOADS:
        jobs.update(jobs_by_id(w, seed))
    return [jobs[i] for i in CHEAP]


def traced_counts(seed: int) -> dict:
    tracer = Tracer()
    with tracer:
        for job in cheap_jobs(seed):
            tracer.trace_id = job.id
            assert workloads.check(EXPECTED, job.id, job.run()) is None
    metrics = tracer.metrics()
    return {k: metrics[k] for k in COUNT_METRICS}


def attribute_snapshot() -> dict:
    import qlc.casebook  # noqa: F401  (the tracer patches these too)
    import qlc.cli  # noqa: F401

    return {(id(owner), attr): value for owner in Tracer._owners()
            for attr, value in vars(owner).items()}


def test_wrappers_removed_after_traced_run():
    before = attribute_snapshot()
    tracer = Tracer()
    with tracer:
        assert tracer.installed
        wrapped = [v for v in attribute_snapshot().values()
                   if hasattr(v, "__bench_wrapped__")]
        assert len(wrapped) == len(tracer.installed)
        job = jobs_by_id("disproof_search", 1)["disproof/fermat_t2"]
        job.run()
    assert tracer.calls["groebner.normal_form"] > 0
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "__bench_wrapped__") for v in after.values())


def test_tracer_patches_reimported_names():
    from qlc import closure, groebner, quotient

    with Tracer():
        assert closure.normal_form is groebner.normal_form
        assert quotient.normal_form is groebner.normal_form
        assert hasattr(groebner.normal_form, "__bench_wrapped__")


def test_same_seed_regenerates_identical_inputs():
    for w in workloads.WORKLOADS:
        first = [(j.id, j.spec) for j in workloads.build(w, 7)]
        again = [(j.id, j.spec) for j in workloads.build(w, 7)]
        assert json.dumps(first) == json.dumps(again)


def test_seeds_vary_the_inputs():
    for w in workloads.WORKLOADS:
        variants = {json.dumps([(j.id, j.spec) for j in workloads.build(w, s)])
                    for s in range(1, 6)}
        assert len(variants) > 1, w


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_other_seeds_keep_the_expected_answers(seed):
    for job in cheap_jobs(seed):
        assert workloads.check(EXPECTED, job.id, job.run()) is None, job.id


def test_oracle_rejects_a_wrong_answer():
    job = jobs_by_id("module_search", 1)["module/f3_4p4_exact"]
    answer = job.run()
    assert workloads.check(EXPECTED, job.id, answer) is None
    assert workloads.check(EXPECTED, job.id, {"exact": answer["exact"] + 1})
    assert workloads.check(EXPECTED, "module/unknown", answer)


def test_known_counts_on_small_cases():
    t2 = jobs_by_id("disproof_search", 4)["disproof/fermat_t2"].run()
    assert t2["nodes"] == 180 and t2["complete"]
    f2 = jobs_by_id("module_search", 4)["module/f2_6p6_exact"].run()
    assert f2 == {"exact": 4}


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(5), traced_counts(5)
    assert first == second
    assert first["closure.search_nodes"] == 180
    assert first["quasilength.search_states"] > 0


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == [(n, u, b) for n, u, b, _moves in LAYER_METRICS]
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS


def _result(workload, seed, wall, counts=None):
    r = {"workload": workload, "seed": seed, "trace": 0 if counts is None else 1,
         "metrics": {"wall_s": wall}}
    if counts is not None:
        r["counts"] = counts
    return (workload, seed, r["trace"]), r


def test_compare_verdicts():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]

    def verdict_for(change):
        parent = dict(_result("w", s, v) for s, v in enumerate(base))
        other = dict(_result("w", s, v) for s, v in enumerate(change))
        rows, _changed = compare.compare(parent, other, spec)
        return rows[0]["verdict"]

    assert verdict_for([v * 0.7 for v in base]) == "improved"
    assert verdict_for([v * 1.3 for v in base]) == "worse"
    assert verdict_for([v * 1.01 for v in base]) == "unchanged"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]
    parent = dict(_result("w", s, v) for s, v in enumerate(noisy))
    rows, _ = compare.compare(parent, parent, spec)
    assert rows[0]["verdict"] == "unresolved"


def test_compare_flags_changed_counts():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}
    parent = dict([_result("w", 1, 1.0, {"closure.search_nodes": 180})])
    change = dict([_result("w", 1, 1.0, {"closure.search_nodes": 170})])
    _rows, changed = compare.compare(parent, change, spec)
    assert changed == [{"workload": "w", "seed": 1, "counts": ["closure.search_nodes"]}]
    _rows, same = compare.compare(parent, parent, spec)
    assert same == []


def test_runner_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "casebook",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
