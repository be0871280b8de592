"""Generated command lines: every subcommand over F2, F3, Q and F_p(t) with
small polynomials (0, 1 and units among them), run in-process under a
one-second budget.

Each argv must exit 0, 2 or 3 without an exception escaping, print the same
bytes on a second run (JSON that parses, under --json), and every disproof
certificate `force qseq --cert-out` writes must pass `ql validate`.  The
search is derandomized, so every run checks the same cases.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlc
from qlc import cli
from qlc.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE

FIELDS = ("F2", "F3", "Q", "F2(t)", "F3(t)")
RELATIONS = ("", "", "", "", "/(x^2)", "/(x*y)", "/(x^2-y^3)", "/(1)")
ATOMS = ("0", "1", "-1", "2", "x", "y", "x^2", "x*y", "y^2", "x+y", "x^2-y",
         "x*y+1", "y^3", "x^2+y^2")
FIELD_ATOMS = {"Q": ("1/2", "3/4*x"), "F3": ("1/2",),
               "F2(t)": ("t", "t*x+1", "x/(t+1)"), "F3(t)": ("t", "t*x+1", "x/(t+1)")}
PARAMS = ("x;y", "x", "y", "x^2;y", "x+y;y", "x;x", "1;y", "0;y")
BOTTOMS = ("x^2;y^2", "x^3;x*y;y^2", "x^2;y", "x^2;x*y;y^3")
CHEAP_EXAMPLES = ("cubic_forcing", "dvr", "normalization_w", "roberts",
                  "segre_matrix", "square_shortcut", "uv")

# usage errors that the engine once answered with a crash (max_k < 0, an
# empty qseq list, two parameters in a curve), a vacuous table (an empty
# exponent list, no k up to --k-max), a search over no candidates (a
# negative degree bound, where only 1 was tried) or a ring it could not read
# back (a --prefix whose fresh names are not variable names); a qseq run on
# one exponent, where a multiplier and a short filtration both turn up,
# exits 2 as well
BUG_ARGVS = (
    ["content", "limit-closure", "--ring", "F3[x,y]", "--params", "x;y",
     "--t", "1", "--max-k", "-1"],
    ["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y", "--element", "x",
     "--e", ";"],
    ["force", "test-element", "--ring", "F2[x,y]", "--element", "x",
     "--gens", "y", "--e", ";"],
    ["force", "tight-table", "--ring", "F2[x,y]", "--element", "x",
     "--gens", "y", "--multiplier", "1", "--e", ";"],
    ["force", "qseq", "--ring", "F2[x,y]/(x^2-y^3)", "--params", "x;y",
     "--element", "x*y"],
    ["force", "lc-class", "--ring", "F2[x,y]", "--params", "x;y", "--k-max", "0"],
    ["force", "lc-class", "--ring", "F2[x,y]", "--params", "x;y", "--k-max", "-1"],
    ["content", "scan", "--ring", "F2[x,y]", "--params", "x;y", "--t", ";"],
    ["force", "test-element", "--ring", "F2[x,y]", "--element", "x*y",
     "--gens", "x;y", "--e", "1", "--degree-bound", "-1"],
    ["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y", "--element", "x*y",
     "--degree-bound", "-1"],
    ["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y", "--element", "x*y",
     "--t", "2", "--e", "1"],
    ["force", "build", "--ring", "F2[x,y]", "--gens", "x", "--element", "x",
     "--prefix", ""],
    ["force", "build", "--ring", "F2[x,y]", "--gens", "x", "--element", "x",
     "--prefix", "1"],
)

CERT = "CERT"  # stands for a certificate path in the case's own directory


@st.composite
def _ring_and_polys(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = f"{field}[x,y]" + draw(st.sampled_from(RELATIONS))
    atom = st.sampled_from(ATOMS + FIELD_ATOMS.get(field, ()))
    poly = st.lists(atom, min_size=1, max_size=2).map("+".join)
    polys = st.lists(poly, min_size=1, max_size=3).map(";".join)
    return ring, poly, polys


def _exponents(low=0, high=2):
    return st.lists(st.integers(low, high), min_size=1, max_size=2).map(
        lambda es: ";".join(map(str, es)))


@st.composite
def ring_argvs(draw):
    """One argv of a subcommand that takes --ring."""
    ring, poly, polys = draw(_ring_and_polys())
    params = st.sampled_from(PARAMS)
    small = st.integers(0, 3).map(str)
    command = draw(st.sampled_from((
        "gb", "member", "compare", "colon", "intersect", "length", "vmod",
        "ql exact", "ql bounds", "content scan", "content limit-closure",
        "force build", "force tight-table", "force test-element",
        "force lc-class", "force qseq")))
    argv = command.split() + ["--ring", ring]
    if command == "gb":
        argv += ["--ideal", draw(polys), "--order", draw(st.sampled_from(["grevlex", "lex"]))]
    elif command == "member":
        argv += ["--ideal", draw(polys), "--poly", draw(poly)]
    elif command in ("compare", "intersect"):
        argv += ["--left", draw(polys), "--right", draw(polys)]
    elif command == "colon":
        argv += ["--ideal", draw(polys), "--by", draw(polys)]
    elif command == "length":
        argv += ["--ideal", draw(polys)]
    elif command in ("vmod", "ql exact", "ql bounds"):
        argv += ["--top", draw(st.one_of(st.sampled_from(["1", "x", "x;y"]), polys)),
                 "--bottom", draw(st.one_of(st.sampled_from(BOTTOMS), polys))]
        if command != "vmod":
            argv += ["--killing", draw(polys), "--cert-out", CERT]
    elif command == "content scan":
        argv += ["--params", draw(params), "--t", draw(_exponents(0, 2)),
                 "--mode", draw(st.sampled_from(["plain", "underline"]))]
    elif command == "content limit-closure":
        argv += ["--params", draw(params), "--t", draw(st.integers(1, 2).map(str)),
                 "--max-k", draw(small)]
        if draw(st.booleans()):
            argv += ["--window", draw(st.integers(1, 2).map(str))]
    elif command == "force build":
        argv += ["--gens", draw(polys), "--element", draw(poly),
                 "--prefix", draw(st.sampled_from(["Z", "x"]))]
    elif command == "force tight-table":
        argv += ["--element", draw(poly), "--gens", draw(polys),
                 "--multiplier", draw(poly), "--e", draw(_exponents())]
    elif command == "force test-element":
        argv += ["--element", draw(poly), "--gens", draw(polys),
                 "--e", draw(_exponents()), "--degree-bound", draw(small)]
    elif command == "force lc-class":
        argv += ["--params", draw(params), "--k-max", draw(small)]
    else:  # force qseq
        argv += ["--params", draw(params), "--element", draw(poly),
                 "--t", draw(st.sampled_from(["2", "1"])), "--e", draw(_exponents()),
                 "--degree-bound", draw(small), "--cert-out", CERT]
    return argv


other_argvs = st.one_of(
    st.sampled_from(CHEAP_EXAMPLES).map(lambda name: ["examples", "run", name]),
    st.sampled_from(["missing", "garbage", "module", "ring"]).map(
        lambda source: ["ql", "validate", "--cert", source]),
)


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.run under a one-second budget."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with qlc.budget(1):
            code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _certificate_file(source: str, folder: str) -> str:
    """A file for `ql validate`: missing, not JSON, a module certificate (no
    serialized ring form), or a disproof certificate from `force qseq`."""
    path = os.path.join(folder, f"{source}.json")
    if source == "garbage":
        with open(path, "w") as fh:
            fh.write("{not json")
    elif source == "module":
        _run(["ql", "bounds", "--ring", "F2[x]", "--bottom", "x^3", "--killing", "x",
              "--cert-out", path])
    elif source == "ring":
        _run(["force", "qseq", "--ring", "F2[x,y]", "--params", "x;y",
              "--element", "x*y", "--cert-out", path])
    return path


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=st.one_of(ring_argvs(), other_argvs), as_json=st.booleans())
@example(argv=BUG_ARGVS[0], as_json=False)
@example(argv=BUG_ARGVS[1], as_json=True)
@example(argv=BUG_ARGVS[2], as_json=False)
@example(argv=BUG_ARGVS[3], as_json=True)
@example(argv=BUG_ARGVS[4], as_json=False)
@example(argv=BUG_ARGVS[5], as_json=True)
@example(argv=BUG_ARGVS[6], as_json=False)
@example(argv=BUG_ARGVS[7], as_json=True)
@example(argv=BUG_ARGVS[8], as_json=False)
@example(argv=BUG_ARGVS[9], as_json=True)
@example(argv=BUG_ARGVS[10], as_json=False)
@example(argv=BUG_ARGVS[11], as_json=True)
@example(argv=["examples", "run-all"], as_json=True)
def test_generated_argvs_exit_cleanly_and_repeat(argv, as_json):
    with tempfile.TemporaryDirectory() as folder:
        cert = os.path.join(folder, "cert.json")
        argv = [cert if a == CERT else a for a in argv]
        if argv[:2] == ["ql", "validate"]:
            argv[-1] = _certificate_file(argv[-1], folder)
        argv += ["--json"] if as_json else []
        first = _run(argv)
        if os.path.exists(cert):
            os.remove(cert)
        second = _run(argv)
        for code, out, err in (first, second):
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET), (argv, code)
            assert "Traceback" not in err
            if as_json and code != EXIT_USAGE:
                json.loads(out)
        if EXIT_BUDGET not in (first[0], second[0]):
            assert first[:2] == second[:2], argv
        if argv[:2] == ["force", "qseq"] and os.path.exists(cert):
            code, out, _err = _run(["ql", "validate", "--cert", cert, "--json"])
            assert code == EXIT_OK
            assert json.loads(out)["result"]["status"] == "valid", argv


@pytest.mark.parametrize("argv", BUG_ARGVS, ids=["limit-closure max-k", "qseq empty e",
                                                 "test-element empty e",
                                                 "tight-table empty e", "qseq curve",
                                                 "lc-class k-max 0", "lc-class k-max -1",
                                                 "scan empty t", "test-element degree -1",
                                                 "qseq degree -1", "qseq too few exponents",
                                                 "build empty prefix", "build digit prefix"])
def test_bug_argvs_are_usage_errors(argv):
    # a negative max_k leaves no stage, an empty exponent list (or k range)
    # would make every table pass vacuously, a negative degree bound would
    # try 1 alone, a qseq verdict that is both supported and refuted shows
    # too few exponents or failed hypotheses, and a prefix that makes a
    # variable named 1 prints a ring the syntax cannot read
    for flags in ([], ["--json"]):
        code, out, err = _run(argv + flags)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")


# Frobenius powers whose q = 3^e has more than 4300 digits, which CPython
# refuses to print: at e = 10000 the table was computed and the command then
# exited 2 with that refusal, and at e = 100000 it ran 16 s past a one-second
# budget, dividing q by p once per unit of e.  Such a q prints as "3^e".
FROBENIUS_ARGVS = {
    "tight-table e=10000": ["force", "tight-table", "--ring", "F3[x,y]", "--element", "x",
                            "--gens", "x;y", "--multiplier", "1", "--e", "10000"],
    "qseq e=10000": ["force", "qseq", "--ring", "F3[x,y]", "--params", "x;y",
                     "--element", "x", "--t", "1", "--e", "10000"],
    "tight-table e=100000": ["force", "tight-table", "--ring", "F3[x,y]", "--element", "x",
                             "--gens", "x;y", "--multiplier", "1", "--e", "100000"],
}


def test_a_huge_q_prints_as_a_power():
    code, out, err = _run(FROBENIUS_ARGVS["tight-table e=10000"])
    assert (code, out, err) == (EXIT_OK, "e=10000 q=3^10000 member=true\n", "")
    code, out, _err = _run(FROBENIUS_ARGVS["tight-table e=10000"] + ["--json"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["rows"] == [{"e": 10000, "q": "3^10000", "member": True}]
    code, out, _err = _run(FROBENIUS_ARGVS["qseq e=10000"] + ["--json"])
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert (result["verdict"], result["table"]) == (
        "supported", [{"e": 10000, "q": "3^10000", "member": True}])


@pytest.mark.parametrize("e, q", [(9012, str(3 ** 9012)), (9013, "3^9013")])
def test_q_prints_in_full_up_to_4300_digits(e, q):
    # 3^9012 has 4300 digits and 3^9013 has 4301
    argv = FROBENIUS_ARGVS["tight-table e=10000"][:-1] + [str(e)]
    assert _run(argv) == (EXIT_OK, f"e={e} q={q} member=true\n", "")


def test_a_huge_q_answers_within_the_budget():
    start = time.monotonic()
    code, out, _err = _run(FROBENIUS_ARGVS["tight-table e=100000"])
    assert time.monotonic() - start < 2
    assert code in (EXIT_OK, EXIT_BUDGET)
    if code == EXIT_OK:
        assert out == "e=100000 q=3^100000 member=true\n"
