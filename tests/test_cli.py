"""End-to-end command tests: rendering, exit codes, determinism."""

import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys
import time

import pytest

from qlc import casebook, cli, groebner
from qlc.cli import (EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_INTERRUPTED, EXIT_OK,
                     EXIT_USAGE, run)
from qlc.fields import PRIME_BOUND


def test_length_text_output(capsys):
    code = run(["length", "--ring", "F3[x,y]", "--ideal", "x^2; x*y; y^3"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "4\n"


@pytest.mark.parametrize("t", ["0", "-1"])
def test_qseq_checks_t_before_any_groebner_basis(t, capsys, monkeypatch):
    # t used to be checked by the filtration search, after the multiplier
    # search had computed its bracket bases (and t = -1 failed in powering)
    calls = []
    original = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    code = run(["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y",
                "--element", "x", "--t", t])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"error: need t >= 1 and at least one parameter, got t={t}\n"
    assert calls == []


@pytest.mark.parametrize("mode", ["plain", "underline"])
def test_scan_checks_every_t_before_the_first_row(mode, capsys, monkeypatch):
    # a bad t late in the list used to be refused only after the rows
    # before it had computed their Groebner bases
    calls = []
    original = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    seen = []
    for ts in ("3;0", "0;3"):
        calls.clear()
        code = run(["content", "scan", "--ring", "F2[x,y]/(x^2*y)", "--params", "x;y",
                    "--t", ts, "--mode", mode])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == "error: need t >= 1 and at least one parameter, got t=0\n"
        seen.append(len(calls))
    assert seen[0] == seen[1]  # the parent stopped after 12 and 1 calls (plain)


def test_member_text_output(capsys):
    code = run(["member", "--ring", "Q[x]", "--ideal", "x", "--poly", "1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "false\n"


@pytest.mark.parametrize("argv, want", [
    (["--ideal", "x", "--poly=-x^2"], "true\n"),
    (["--ideal", "x", "--poly", "-x^2"], "true\n"),
    (["--ideal", "x", "--poly", "-x+1"], "false\n"),
    (["--ideal", "-x", "--poly", "-1+x^2"], "false\n"),
], ids=["equals-form", "poly", "poly-with-unit", "ideal-and-poly"])
def test_a_leading_minus_value_is_a_polynomial(argv, want, capsys):
    # argparse alone reads "-x^2" after --poly as an option
    assert run(["member", "--ring", "Q[x]"] + argv) == EXIT_OK
    assert capsys.readouterr().out == want


def test_an_option_after_a_polynomial_flag_stays_an_option(capsys):
    assert run(["member", "--ring", "Q[x]", "--ideal", "x", "--poly", "--json"]) == EXIT_USAGE
    assert "expected one argument" in capsys.readouterr().err


def test_json_envelope_shape(capsys):
    code = run(["length", "--ring", "F3[x,y]", "--ideal", "x^2; x*y; y^3",
                "--json"])
    assert code == EXIT_OK
    env = json.loads(capsys.readouterr().out)
    assert env["schema"] == 1
    assert env["command"] == "length"
    assert env["input"] == {"ring": "F3[x,y]", "ideal": "x^2; x*y; y^3"}
    assert env["result"] == {"length": 4}


def test_identical_argv_byte_identical_json(tmp_path):
    argv = ["content", "scan", "--ring", "F2[x,y]", "--params", "x;y",
            "--t", "1;2", "--json", "--out"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + [str(a)]) == EXIT_OK
    assert run(argv + [str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    env = json.loads(a.read_text())
    assert env["command"] == "content scan"
    assert [r["upper"] for r in env["result"]["rows"]] == [1, 4]


def test_gb_and_compare(capsys):
    assert run(["gb", "--ring", "Q[x,y]", "--ideal", "x^2 - y; y^2 - x",
                "--order", "lex"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("y^4" in ln or "x" in ln for ln in lines)
    assert run(["compare", "--ring", "Q[x]", "--left", "x^2", "--right",
                "x"]) == EXIT_OK
    assert capsys.readouterr().out == "left-in-right\n"


def test_gb_over_q_prints_fractional_and_negative_coefficients(capsys):
    argv = ["gb", "--ring", "Q[x,y,z]", "--ideal", "x^2-y/3;y^2-2*z/7;z^2-x"]
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == "z^2-x\ny^2-2/7*z\nx^2-1/3*y\n"
    assert run(argv + ["--json"]) == EXIT_OK
    assert capsys.readouterr().out == (
        '{\n  "command": "gb",\n  "input": {\n'
        '    "ideal": "x^2-y/3;y^2-2*z/7;z^2-x",\n    "order": "grevlex",\n'
        '    "ring": "Q[x,y,z]"\n  },\n  "result": {\n    "basis": [\n'
        '      "z^2-x",\n      "y^2-2/7*z",\n      "x^2-1/3*y"\n    ]\n  },\n'
        '  "schema": 1\n}\n')
    assert run(["gb", "--ring", "Q[x,y]", "--ideal",
                "3/4*x^2-5/6*y; -7/10*x*y+1/15"]) == EXIT_OK
    assert capsys.readouterr().out == "y^2-3/35*x\nx*y-2/21\nx^2-10/9*y\n"


def test_vmod_json_payload(capsys):
    code = run(["vmod", "--ring", "F2[x]", "--top", "x", "--bottom", "x^4",
                "--json"])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["dim"] == 3
    # spin order: first the generator's highest reduction, then its shifts
    assert result["basis"] == ["x^3", "x^2", "x"]
    assert result["actions"]["x"] == [["0", "1", "0"],
                                      ["0", "0", "1"],
                                      ["0", "0", "0"]]


def test_ql_exact_and_bounds(capsys):
    code = run(["ql", "exact", "--ring", "F2[x]", "--top", "x", "--bottom",
                "x^4", "--killing", "x^2", "--json"])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["exact"] == 2 and result["filtration_exists"]
    assert result["certificate"]["kind"] == "module-filtration"
    assert len(result["certificate"]["generators"]) == 2

    code = run(["ql", "bounds", "--ring", "F2[x]", "--top", "x", "--bottom",
                "x^4", "--killing", "x^2", "--json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == EXIT_OK
    assert result["lower"] <= result["exact"] <= result["upper"]
    assert result["exact"] == 2


def test_ql_exact_no_filtration(capsys):
    code = run(["ql", "exact", "--ring", "F2[x]", "--top", "x", "--bottom",
                "x^2", "--killing", "1", "--json"])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"exact": None, "filtration_exists": False}
    # over an infinite field and above the cap alike: no search limit to report
    for ring, bottom in (("Q[x,y]", "x^2-y;y^3"), ("F2[x,y]", "x^4;y^4")):
        code = run(["ql", "exact", "--ring", ring, "--bottom", bottom, "--killing", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "no finite filtration\n"


@pytest.mark.parametrize("argv", [
    ["--ring", "F3[x]", "--top", "1", "--bottom", "x^2", "--killing", "x+1"],
    ["--ring", "Q[x,y]", "--bottom", "x^2-y;y^3", "--killing", "1"],
], ids=["F3-unit-sum", "Q-unit-killing"])
def test_ql_bounds_unit_sum_has_no_filtration(argv, capsys):
    # I + K is the unit ideal, so the length ratio would divide by zero
    assert run(["ql", "bounds"] + argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "no finite filtration\n"
    assert "Traceback" not in captured.err
    assert run(["ql", "bounds"] + argv + ["--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"lower": None, "upper": None, "exact": None,
                      "filtration_exists": False}


def test_ql_exact_search_limit_suggests_bounds(capsys):
    # dim 9 above the cap, bounds 5..6; over Q too the cap is why no search ran
    for ring in ("F3[x,y]", "Q[x,y]"):
        code = run(["ql", "exact", "--ring", ring, "--bottom", "x^3;y^3",
                    "--killing", "x;y^2"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: dim 9 exceeds the exact-search cap 8 (try 'ql bounds')\n")


@pytest.mark.parametrize("ring, bottom, killing, value", [
    ("Q[x,y]", "x^2;y^2", "x;y", 4),
    ("F2[x,y]", "x^4;y^4", "x^2;y^2", 4),        # dim 16, above the F2 cap
    ("Q[x]", "1", "x", 0),                        # the zero module
    ("F5(t)[x,y]", "x^2;y^2", "x;y", 4),
    ("F3[x]", "x^9", "x^3", 3),                   # dim 9, above the F3 cap
    ("F2[x,y]", "x^12;y^12", "x^3;y^2", 24),     # dim 144
])
def test_ql_exact_answers_where_the_bounds_meet(ring, bottom, killing, value, capsys):
    argv = ["ql", "exact", "--ring", ring, "--bottom", bottom, "--killing", killing]
    assert run(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"exact {value}" and len(lines) == 1 + value
    assert run(argv + ["--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["exact"] == value and result["filtration_exists"]
    assert result["certificate"]["validated"] == "valid"
    assert len(result["certificate"]["generators"]) == value


def test_finite_module_past_degree_64_answers(capsys):
    code = run(["ql", "bounds", "--ring", "F2[x]", "--bottom", "x^66",
                "--killing", "x"])
    assert code == EXIT_OK
    assert "exact 66" in capsys.readouterr().out.splitlines()


def test_infinite_length_module_is_a_usage_error(capsys):
    code = run(["vmod", "--ring", "F2[x,y]", "--bottom", "x^2"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "infinite length" in captured.err


@pytest.mark.parametrize("command", [["vmod"], ["ql", "exact"], ["ql", "bounds"]])
def test_module_commands_take_no_degree_bound(command, capsys):
    argv = command + ["--ring", "F2[x]", "--bottom", "x^4", "--degree-bound", "8"]
    if command[0] == "ql":
        argv += ["--killing", "x"]
    assert run(argv) == EXIT_USAGE
    assert "--degree-bound" in capsys.readouterr().err


def test_validate_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = run(["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y",
                "--element", "x*y", "--t", "2", "--cert-out", str(cert)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: refuted" in out and "3 < 4" in out

    assert run(["ql", "validate", "--cert", str(cert), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "valid" and result["steps"] == 3

    # tamper with the chain order and re-validate
    payload = json.loads(cert.read_text())
    payload["generators"] = payload["generators"][::-1]
    cert.write_text(json.dumps(payload))
    assert run(["ql", "validate", "--cert", str(cert), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "invalid" and result["step"] is not None

    # a missing file is a usage error, not a crash
    assert run(["ql", "validate", "--cert", str(tmp_path / "nope.json")]) \
        == EXIT_USAGE


def test_examples_run_pass_and_fail(capsys, monkeypatch):
    assert run(["examples", "run", "dvr"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dvr: PASS" in out

    def broken():
        bad = casebook.Check("always wrong", "1", "2", False)
        return casebook.ExampleReport("broken", "forced failure", (bad,), {})

    monkeypatch.setitem(casebook.REGISTRY, "broken", (broken, False))
    assert run(["examples", "run", "broken"]) == EXIT_CHECK_FAILED
    assert "[FAIL] always wrong" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert run(["gb", "--ring", "F2[x", "--ideal", "x"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert run(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    assert run([]) == EXIT_USAGE
    capsys.readouterr()
    # non-artinian length request surfaces as an input error
    assert run(["length", "--ring", "Q[x,y]", "--ideal", "x"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    # malformed exponent list
    assert run(["content", "scan", "--ring", "Q[x]", "--params", "x",
                "--t", "one"]) == EXIT_USAGE
    capsys.readouterr()


def _child_env(**extra) -> dict:
    """The environment for a child Python that imports this qlc."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("bad", [
    ["examples", "run", "no-such-example"],
    ["gb", "--ring", "Q[x]"],
], ids=["unknown-example", "missing-option"])
def test_runs_in_one_process_print_what_fresh_processes_print(bad, capsys, monkeypatch):
    # the parser is built once per process; a usage error must leave it
    # as a fresh one
    good = ["examples", "run", "dvr", "--json"]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    fresh = [subprocess.run([sys.executable, "-m", "qlc.cli", *argv], env=_child_env(),
                            capture_output=True, text=True, timeout=60)
             for argv in (bad, good)]
    codes = [run(bad), run(good)]
    captured = capsys.readouterr()
    assert codes == [p.returncode for p in fresh] == [EXIT_USAGE, EXIT_OK]
    assert captured.out == "".join(p.stdout for p in fresh)
    assert captured.err == "".join(p.stderr for p in fresh)


def test_default_examples_match_the_golden_file(capsys):
    # tests/golden/examples.json is `examples run-all --json` as committed;
    # CI compares the --long set with examples-long.json the same way
    golden = pathlib.Path(__file__).parent / "golden" / "examples.json"
    assert run(["examples", "run-all", "--json"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "subcommand" in capsys.readouterr().out.lower() or True
    assert run(["ql", "--help"]) == EXIT_OK
    capsys.readouterr()


def test_budget_exhaustion_marks_incomplete(capsys, monkeypatch):
    monkeypatch.setenv("QLC_BUDGET_SECS", "0.001")
    code = run(["examples", "run", "segre_filtration"])
    assert code == EXIT_BUDGET
    env = json.loads(capsys.readouterr().out)
    assert env["incomplete"] is True and "budget" in env["error"]
    assert "result" not in env


@pytest.mark.parametrize("value", ["nan", "abc"])
def test_malformed_budget_is_a_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("QLC_BUDGET_SECS", value)
    start = time.monotonic()
    code = run(["member", "--ring", "Q[x,y,z]", "--ideal", "x",
                "--poly", "(x+y+z+1)^300"])
    assert code == EXIT_USAGE
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "QLC_BUDGET_SECS" in captured.err
    assert captured.out == ""


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "missing" / "report.json")
    assert run(["length", "--ring", "F3[x,y]", "--ideal", "x^2;y^2",
                "--out", path]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    # the budget-exhausted envelope goes through the same writer
    monkeypatch.setenv("QLC_BUDGET_SECS", "0.001")
    assert run(["examples", "run", "segre_filtration", "--out", path]) \
        == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_out_writes_file_and_stdout_stays_quiet(tmp_path, capsys):
    path = tmp_path / "report.txt"
    assert run(["gb", "--ring", "Q[x]", "--ideal", "x^2; x^3",
                "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_text() == "x^2\n"


def test_tight_table_and_test_element_commands(capsys):
    code = run(["force", "tight-table", "--ring", "F7[x,y,z]/(x^3+y^3+z^3)",
                "--element", "z^2", "--gens", "x;y", "--multiplier", "z",
                "--e", "1"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "e=1 q=7 member=true\n"
    code = run(["force", "test-element", "--ring", "F2[x,y]",
                "--element", "x*y", "--gens", "x^2;y^2", "--e", "1;2",
                "--degree-bound", "2", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"] == {"found": None}


def test_powering_respects_the_budget(monkeypatch):
    budget = 1
    monkeypatch.setenv("QLC_BUDGET_SECS", str(budget))
    start = time.monotonic()
    code = run(["member", "--ring", "Q[x,y,z]", "--ideal", "x",
                "--poly", "(x+y+z+1)^300"])
    assert code == EXIT_BUDGET
    assert time.monotonic() - start < budget + 1


def test_one_long_gcd_respects_the_budget(monkeypatch):
    # each pair of denominators is quick to build, but their gcd alone runs
    # for several seconds: the budget has to reach into Euclid's algorithm,
    # on the lazily reduced slots of F5(t) and on the bit planes of F3(t)
    budget = 1
    monkeypatch.setenv("QLC_BUDGET_SECS", str(budget))
    for ring, poly in (("F5(t)[x]", "x/((t+1)^30000+t)+x/((t^2+1)^14999+1)"),
                       ("F3(t)[x]", "x/(t^300000+t+1)+x/(t^299997+t+2)")):
        start = time.monotonic()
        code = run(["member", "--ring", ring, "--ideal", "x^2", "--poly", poly])
        assert code == EXIT_BUDGET, ring
        assert time.monotonic() - start < budget + 1, ring


def test_fermat_t3_search_respects_the_budget(monkeypatch):
    # the short-filtration search at t=3 runs far past the budget; most of
    # its normal forms are one-term lookups that take no budget check, so
    # the check per search node and per reduced term must still be enough
    budget = 1
    monkeypatch.setenv("QLC_BUDGET_SECS", str(budget))
    start = time.monotonic()
    code = run(["force", "qseq", "--ring", "F2[x,y,z]/(x^3+y^3+z^3)",
                "--params", "x;y", "--element", "z^2", "--t", "3"])
    assert code == EXIT_BUDGET
    assert time.monotonic() - start < budget + 1


@pytest.mark.parametrize("argv, out", [
    (["force", "tight-table", "--ring", "F3[x,y,z]", "--element", "x+y+z",
      "--gens", "x;y", "--multiplier", "1", "--e", "8"], "e=8 q=6561 member=false\n"),
    (["force", "test-element", "--ring", "F3[x,y,z]", "--element", "x+y+z",
      "--gens", "x;y;z", "--e", "8"], "1\n"),
], ids=["tight-table", "test-element"])
def test_frobenius_powers_answer_within_the_budget(argv, out, monkeypatch, capsys):
    # u^q and the bracket (g^q) are formed term by term: squaring x+y+z up
    # to q = 6561 over F3 alone would run far past the budget
    monkeypatch.setenv("QLC_BUDGET_SECS", "5")
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [
    ["length", "--ring", "F2[x]", "--ideal", "x^100000000"],
    ["content", "scan", "--ring", "F2[x,y]", "--params", "x^100000000;y",
     "--t", "1"],
    ["ql", "bounds", "--ring", "F2[x,y]", "--bottom", "x^40;y^40",
     "--killing", "x;y"],
    ["ql", "exact", "--ring", "F2[x,y]", "--bottom", "x^30;y^30",
     "--killing", "x;y"],
])
def test_huge_length_respects_the_budget(argv, monkeypatch, capsys):
    # the standard monomials of (x^e) are counted one at a time, and a module
    # is spun one row at a time (dim 1600 here; every normal form in its spin
    # is a one-term lookup, which takes no budget check of its own); ql exact
    # on the dim-900 module builds it, then its greedy sweep checks the
    # budget once per round
    budget = 1
    monkeypatch.setenv("QLC_BUDGET_SECS", str(budget))
    start = time.monotonic()
    assert run(argv) == EXIT_BUDGET
    assert time.monotonic() - start < budget + 1
    assert json.loads(capsys.readouterr().out)["incomplete"] is True


_TIMED_RUN = """
import sys, time
from qlc.cli import run
start = time.monotonic()
code = run(sys.argv[1:])
sys.stderr.write(f"elapsed {time.monotonic() - start}\\n")
sys.exit(code)
"""


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(argv, budget):
    """Run argv in a child process with QLC_BUDGET_SECS=budget, a 2 GiB
    address space and a hard timeout; the child's last word on stderr is
    the seconds run took."""
    return subprocess.run([sys.executable, "-c", _TIMED_RUN, *argv],
                          env=_child_env(QLC_BUDGET_SECS=str(budget)),
                          preexec_fn=_capped_address_space, capture_output=True,
                          text=True, timeout=budget + 10)


@pytest.mark.parametrize("argv", [
    ["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y", "--element", "x*y",
     "--t", "100000"],
    ["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y", "--element", "x*y",
     "--t", "10"],
    ["content", "scan", "--ring", "F2[x,y]", "--params", "x;y", "--t", "100000000"],
], ids=["qseq-candidate-pool", "qseq-power-table", "content-staircase"])
def test_huge_t_respects_the_budget_in_bounded_memory(argv):
    # the disproof search's candidate pool, its table of the powers I^r (up
    # to r = t^d - 1) and the staircase's exponent vectors are built one at
    # a time under the budget.  A child process
    # with a 2 GiB address space and a hard timeout runs the argv, so that a
    # build that ignores the budget fails here rather than eating the machine.
    budget = 1
    proc = _run_capped(argv, budget)
    assert proc.returncode == EXIT_BUDGET, proc.stderr[-500:]
    assert json.loads(proc.stdout)["incomplete"] is True
    assert float(proc.stderr.split()[-1]) < budget + 1


@pytest.mark.parametrize("argv, code", [
    (["ql", "exact", "--ring", "F1000000007[x]", "--bottom", "x^2", "--killing", "x"],
     EXIT_OK),
    # lower 2 < greedy 3, so the search runs
    (["ql", "exact", "--ring", "F1000000007[x,y]", "--bottom", "x^2;y^2",
      "--killing", "x^2;x*y;y^2"], EXIT_BUDGET),
], ids=["answers", "runs-out"])
def test_large_prime_exact_search_respects_the_budget_in_bounded_memory(argv, code):
    # the exhaustive pool of F_p is the lazy range 0..p-1 and its tail
    # combinations are walked without copying it, so a search over
    # F_1000000007 either answers from its first candidates or stops at the
    # budget; a child process with a 2 GiB address space runs the argv
    budget = 1
    proc = _run_capped(argv, budget)
    assert proc.returncode == code, proc.stderr[-500:]
    assert float(proc.stderr.split()[-1]) < budget + (code == EXIT_BUDGET)


def test_huge_killing_exponent_answers_within_the_budget(monkeypatch, capsys):
    # the killing matrix of x^e is built by repeated squaring, not e products
    budget = 1
    monkeypatch.setenv("QLC_BUDGET_SECS", str(budget))
    start = time.monotonic()
    code = run(["ql", "exact", "--ring", "F2[x]", "--top", "1", "--bottom",
                "x^2", "--killing", "x^1000000000", "--json"])
    assert time.monotonic() - start < budget + 1
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["exact"] == 1


def test_field_size_beyond_the_primality_bound_is_a_usage_error(capsys):
    code = run(["gb", "--ring", f"F{PRIME_BOUND}[x]", "--ideal", "x"])
    assert code == EXIT_USAGE
    assert "primality" in capsys.readouterr().err


def test_interrupt_has_its_own_exit_code(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_gb", interrupted)
    code = run(["gb", "--ring", "Q[x]", "--ideal", "x", "--json"])
    assert code == EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""


# One sample argv per subcommand and the input echo its JSON must carry.
# CERT stands for a certificate path under the test's tmp_path.
_ECHO_CASES = [
    (["gb", "--ring", "Q[x,y]", "--ideal", "x^2 - y; y^2 - x", "--order", "lex"],
     {"ring": "Q[x,y]", "ideal": "x^2 - y; y^2 - x", "order": "lex"}),
    (["member", "--ring", "Q[x]", "--ideal", "x", "--poly", "x^2"],
     {"ring": "Q[x]", "ideal": "x", "poly": "x^2"}),
    (["compare", "--ring", "Q[x]", "--left", "x^2", "--right", "x"],
     {"ring": "Q[x]", "left": "x^2", "right": "x"}),
    (["colon", "--ring", "F2[x,y]", "--ideal", "x^2;x*y", "--by", "x"],
     {"ring": "F2[x,y]", "ideal": "x^2;x*y", "by": "x"}),
    (["intersect", "--ring", "Q[x,y]", "--left", "x", "--right", "y"],
     {"ring": "Q[x,y]", "left": "x", "right": "y"}),
    (["length", "--ring", "F3[x,y]", "--ideal", "x^2; x*y; y^3"],
     {"ring": "F3[x,y]", "ideal": "x^2; x*y; y^3"}),
    (["vmod", "--ring", "F2[x]", "--bottom", "x^4"],
     {"ring": "F2[x]", "top": "1", "bottom": "x^4"}),
    (["ql", "exact", "--ring", "F2[x]", "--top", "x", "--bottom", "x^4",
      "--killing", "x^2"],
     {"ring": "F2[x]", "top": "x", "bottom": "x^4", "killing": "x^2"}),
    (["ql", "bounds", "--ring", "F2[x]", "--bottom", "x^3", "--killing", "x",
      "--cert-out", "CERT"],
     {"ring": "F2[x]", "top": "1", "bottom": "x^3", "killing": "x"}),
    (["ql", "validate", "--cert", "CERT"],
     {"cert": "CERT"}),
    (["content", "scan", "--ring", "F2[x,y]", "--params", "x;y", "--t", "1;2",
      "--mode", "underline"],
     {"ring": "F2[x,y]", "params": "x;y", "t": "1;2", "mode": "underline"}),
    (["content", "limit-closure", "--ring", "F2[x,y]", "--params", "x;y",
      "--t", "1"],
     {"ring": "F2[x,y]", "params": "x;y", "t": 1, "window": None,
      "max_k": 64}),
    (["force", "build", "--ring", "Q[x,y,z]", "--gens", "x;y",
      "--element", "z^2"],
     {"ring": "Q[x,y,z]", "gens": "x;y", "element": "z^2", "prefix": "Z"}),
    (["force", "tight-table", "--ring", "F7[x,y,z]/(x^3+y^3+z^3)",
      "--element", "z^2", "--gens", "x;y", "--multiplier", "z", "--e", "1"],
     {"ring": "F7[x,y,z]/(x^3+y^3+z^3)", "element": "z^2", "gens": "x;y",
      "multiplier": "z", "e": "1"}),
    (["force", "test-element", "--ring", "F2[x,y]", "--element", "x*y",
      "--gens", "x^2;y^2", "--e", "1;2", "--degree-bound", "2"],
     {"ring": "F2[x,y]", "element": "x*y", "gens": "x^2;y^2", "e": "1;2",
      "degree_bound": 2}),
    (["force", "lc-class", "--ring", "Q[x,y]", "--params", "x;y",
      "--k-max", "2"],
     {"ring": "Q[x,y]", "params": "x;y", "k_max": 2}),
    (["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y",
      "--element", "x*y", "--cert-out", "CERT"],
     {"ring": "F2[x,y]", "params": "x;y", "element": "x*y", "t": 2,
      "e": "1;2", "degree_bound": 4}),
    (["examples", "run", "dvr"],
     {"name": "dvr"}),
    (["examples", "run-all"],
     {"long": False}),
]


def _command_of(argv) -> str:
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


@pytest.mark.parametrize("argv, expected", _ECHO_CASES,
                         ids=[_command_of(a) for a, _e in _ECHO_CASES])
def test_json_input_echo(argv, expected, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    argv = [cert if a == "CERT" else a for a in argv]
    expected = {k: cert if v == "CERT" else v for k, v in expected.items()}
    if argv[:2] == ["ql", "validate"]:
        assert run(["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y",
                    "--element", "x*y", "--cert-out", cert]) == EXIT_OK
        capsys.readouterr()
    assert run(argv + ["--json"]) == EXIT_OK
    env = json.loads(capsys.readouterr().out)
    assert env["input"] == expected
    assert env["command"] == _command_of(argv)


def _readme_transcript() -> list:
    """[argv, expected stdout lines, elided] per `$ qlc` line of README's
    "Command line" block; a `...` line elides the rest of that output."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("$ qlc "):
            commands.append([shlex.split(line[len("$ qlc "):]), [], False])
        elif line == "...":
            commands[-1][2] = True
        elif not commands[-1][2]:
            commands[-1][1].append(line)
    return commands


def test_readme_transcript_replays(capsys):
    commands = _readme_transcript()
    assert len(commands) == 6
    for argv, expected, elided in commands:
        assert run(argv) == EXIT_OK, argv
        out = capsys.readouterr().out.splitlines()
        got = out[:len(expected)] if elided else out
        assert got == expected, argv
