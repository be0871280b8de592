"""Run one benchmark workload against the qlc source tree of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Workloads (see workloads.py): casebook, disproof_search, fpt_membership,
module_search.  Each is a closed loop with one client: one process runs the
workload's jobs one at a time on one thread, pass after pass, until S
seconds have gone by (at least MIN_PASSES passes).  Every answer is checked
against expected.json.

Times are normalised to a reference host speed.  The shared host this was
built on runs the same code up to 1.5 times slower for stretches of a few to
60 seconds, because of other tenants on the same cores.  So while a pass
runs, a timer signal runs a fixed pure-Python probe every PROBE_PERIOD_S
seconds (SpeedProbe), and each job's wall and CPU time, less the probes' own
time, is scaled by the mean of PROBE_S / probe time over the probes taken
during the job.  Only the host's momentary speed is divided out; the work the
engine does is untouched.  The run is pinned to one CPU, and wall time the
hypervisor stole from that CPU during a job (/proc/stat) is taken out of the
job's wall time before scaling.  The unnormalised times are printed as well.

--trace 0 prints the end-to-end metrics, medians over the passes:
  wall_s        wall seconds for one pass over the job list
  cpu_s         CPU seconds of this process and its children for one pass
  setup_s       seconds a fresh interpreter takes to import qlc and build
                the workload's inputs (median of SETUP_PROBES interpreters)
  peak_rss_mib  peak resident memory of this process
It also prints fail_rate and, on disproof_search, search_nodes_per_s.

--trace 1 runs untraced passes for a third of S, then traced passes (at
least two) for the rest, and prints the per-layer metrics of tracer.py
(their times are raw seconds).  Work counts must repeat exactly from one
traced pass to the next; a difference marks the run incorrect.  Spans of the
last traced pass go to bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --out DIR also writes a detailed result file
there, for compare.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
MIN_PASSES = 3
SEARCH_JOB = "disproof/fermat_t3_capped"
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Host speed probe: the median time of probe_loop on the 2-core Xeon
# (2.1 GHz) the baseline was measured on.  Normalised times are seconds at
# that speed.
PROBE_S = 0.0016
PROBE_PERIOD_S = 0.05
MIN_PROBES = 8
# One CPU for the whole run, so that its steal time is the run's steal time.
PINNED_CPU = min(os.sched_getaffinity(0))


def probe_loop() -> None:
    """A fixed slice of the kinds of work the engine does.

    Tuple-keyed dict updates (Groebner bases, row spaces), modular
    convolution of coefficient lists (F_p(t) arithmetic) and tuple building
    (monomials), in roughly 2:5:3 time shares.  A mix tracks the host's
    speed for every workload better than any one part: in a trial that timed
    the three parts separately over 22 passes of each workload, weighting
    them 2:5:3 cut the worst per-pass spread after normalising from 5.3%
    (dict updates alone) to 3.6%.
    """
    table: dict = {}
    for i in range(800):
        key = (i % 61, i % 17)
        table[key] = table.get(key, 0) + i * 3 % 7
    a = [(i * 7 + 3) % 31 for i in range(24)]
    b = [(i * 5 + 1) % 31 for i in range(24)]
    for _ in range(9):
        out = [0] * 47
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % 31
        a = out[:24]
    monomials = []
    for i in range(540):
        exps = tuple(range(i % 7, i % 7 + 5))
        monomials.append(exps[1:] + (i,))


class SpeedProbe:
    """Samples the host's momentary speed from inside this process.

    While active, a timer signal runs probe_loop every period and records
    how long it took.  ``normalise`` turns the seconds spent between two
    marks into seconds at the reference speed: it removes the probes' own
    time and multiplies by the mean of PROBE_S / probe time over the probes
    in that interval (widened to MIN_PROBES around it for short intervals).
    """

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.durations: list = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        probe_loop()
        self.durations.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.durations)

    def normalise(self, seconds: float, begin: int, end: int) -> float:
        own = sum(self.durations[begin:end])
        lo, hi = begin, end
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.durations)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.durations))
        factor = statistics.fmean(PROBE_S / d for d in self.durations[lo:hi])
        return (seconds - own) * factor

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def use_checkout_source() -> None:
    """Import qlc from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "qlc", "__init__.py")):
        sys.exit(f"error: no qlc source tree at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qlc

    if not os.path.abspath(qlc.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported qlc from {qlc.__file__}, not from {SRC}")


def steal_seconds() -> float:
    """Seconds the hypervisor has kept this process's CPU from running it.

    Read from /proc/stat for the CPU the process is pinned to; 0 where the
    kernel does not report steal time.
    """
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(f"cpu{PINNED_CPU} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import qlc and build the inputs, print seconds."""
    probe = SpeedProbe(period=PROBE_PERIOD_S / 10)
    with probe:
        begin = probe.mark()
        start = time.perf_counter()
        use_checkout_source()
        import workloads

        workloads.build(workload, seed)
        elapsed = time.perf_counter() - start
        end = probe.mark()
        while probe.mark() < end + MIN_PROBES:
            probe.sample()
    print(elapsed, probe.normalise(elapsed, begin, end))


def measure_setup(workload: str, seed: int) -> list:
    """(raw, normalised) seconds of each fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        raw, normalised = done.stdout.split()[-2:]
        probes.append((float(raw), float(normalised)))
    return probes


def run_pass(workload: str, seed: int, expected: dict, tracer=None) -> dict:
    """Build fresh inputs (untimed), then time one pass over the jobs."""
    import workloads

    jobs = workloads.build(workload, seed)
    gc.collect()
    answers, timings, steals = [], [], []
    with SpeedProbe() as probe:
        for job in jobs:
            if tracer is not None:
                tracer.trace_id = job.id
            begin = probe.mark()
            steal0 = steal_seconds()
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                answer, error = job.run(), None
            except Exception as err:  # a failed job is counted, not fatal
                answer, error = None, f"raised {type(err).__name__}: {err}"
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
            steal = steal_seconds() - steal0
            steals.append(steal)
            timings.append((wall - steal, cpu, begin, probe.mark()))
            answers.append((job.id, answer, error))
        end = probe.mark()
        while probe.mark() < end + MIN_PROBES // 2:
            probe.sample()
    walls = [probe.normalise(w, b, e) for w, _c, b, e in timings]
    cpus = [probe.normalise(c, b, e) for _w, c, b, e in timings]
    failures = []
    nodes_per_s = None
    for (job_id, answer, error), (wall, _c, b, e), steal in zip(answers, timings, steals):
        reason = error or workloads.check(expected, job_id, answer)
        if reason:
            failures.append(f"{job_id}: {reason}")
        elif job_id == SEARCH_JOB:
            scale = probe.normalise(wall, b, e) / wall
            nodes_per_s = answer["nodes"] / ((answer["_search_s"] - steal) * scale)
    steal = sum(steals)
    raw_wall = sum(w for w, _c, _b, _e in timings) + steal
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "raw_wall_s": raw_wall,
            "raw_cpu_s": sum(c for _w, c, _b, _e in timings), "steal_s": steal,
            "speed": sum(walls) / (raw_wall - steal), "jobs": len(jobs),
            "failures": failures, "search_nodes_per_s": nodes_per_s}


def run_passes(workload, seed, expected, until: float, minimum: int, tracer=None):
    passes = []
    while len(passes) < minimum or time.perf_counter() < until:
        if tracer is None:
            passes.append(run_pass(workload, seed, expected))
            continue
        tracer.reset()
        with tracer:
            record = run_pass(workload, seed, expected, tracer)
        record["layers"] = tracer.metrics()
        passes.append(record)
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for the detailed result file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_checkout_source()
    import workloads
    from tracer import COUNT_METRICS, LAYER_METRICS, Tracer

    os.sched_setaffinity(0, {PINNED_CPU})

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    expected = workloads.load_expected()
    setup = measure_setup(args.workload, args.seed)
    begin = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_probes": setup}
    problems = []

    if args.trace == 0:
        passes = run_passes(args.workload, args.seed, expected,
                            begin + args.seconds, MIN_PASSES)
        plain = passes
        metrics = {
            "wall_s": median_of(passes, "wall_s"),
            "cpu_s": median_of(passes, "cpu_s"),
            "setup_s": statistics.median(norm for _raw, norm in setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units, moves = UNITS, {}
    else:
        plain = run_passes(args.workload, args.seed, expected,
                           begin + args.seconds / 3, 1)
        tracer = Tracer()
        traced = run_passes(args.workload, args.seed, expected,
                            begin + args.seconds, 2, tracer)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_spans(os.path.join(
            HERE, "out", f"spans-{args.workload}-s{args.seed}.json.gz"))
        first = traced[0]["layers"]
        for p in traced[1:]:
            moved = [k for k in COUNT_METRICS if p["layers"][k] != first[k]]
            if moved:
                problems.append(f"work counts differ between traced passes: {moved}")
        metrics = {name: first[name] if name in COUNT_METRICS
                   else median_of([p["layers"] for p in traced], name)
                   for name in first}
        metrics["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                          / median_of(plain, "wall_s") - 1)
        units = {name: unit for name, unit, _better, _moves in LAYER_METRICS}
        moves = {name: f"(moves {m})" for name, _u, _b, m in LAYER_METRICS}
        result["counts"] = {k: first[k] for k in COUNT_METRICS}
        passes = plain + traced

    attempted = sum(p["jobs"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems.extend(failures)
    raw = {"raw_wall_s": median_of(plain, "raw_wall_s"),
           "raw_cpu_s": median_of(plain, "raw_cpu_s"),
           "raw_setup_s": statistics.median(raw for raw, _norm in setup),
           "host_speed": median_of(plain, "speed"),
           "steal_s": median_of(plain, "steal_s")}
    rates = [p["search_nodes_per_s"] for p in plain if p["search_nodes_per_s"]]
    if rates:
        raw["search_nodes_per_s"] = statistics.median(rates)
    result.update(raw, passes=[{k: v for k, v in p.items() if k != "layers"}
                               for p in passes],
                  attempted=attempted, failed=len(failures),
                  fail_rate=len(failures) / attempted, metrics=metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs per pass {passes[0]['jobs']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} {moves.get(name, '')}")
    print(f"  {'fail_rate':32s} {result['fail_rate']:14.6g} ratio"
          f"  ({len(failures)} of {attempted} jobs failed)")
    if rates:
        print(f"  {'search_nodes_per_s':32s} {raw['search_nodes_per_s']:14.6g} 1/s"
              f"  (median of {len(rates)} passes)")
    print(f"  unnormalised: wall {raw['raw_wall_s']:.4f} s, cpu {raw['raw_cpu_s']:.4f} s,"
          f" setup {raw['raw_setup_s']:.4f} s; host speed factor {raw['host_speed']:.3f},"
          f" steal {raw['steal_s']:.3f} s per pass")
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        with open(os.path.join(args.out, name), "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
