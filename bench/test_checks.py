"""Each checker accepts the program's real output and catches one corrupted copy.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from anthyphairesis import cli  # noqa: E402


def anth(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_atlas_csv_regenerated_byte_for_byte():
    code, out = anth("sweep", "400", "--format", "csv", "--jobs", "1")
    assert code == 0 and out == checks.expected_atlas(400)
    # flip the case of one row (N = 19 has period 6, case I)
    bad = out.replace("\n19,4,6,yes,I,6,,\n", "\n19,4,6,yes,II,6,,\n")
    assert bad != out and bad != checks.expected_atlas(400)


def test_pell_solution_and_negative_solution():
    for n in (61, 46, 1000003):  # odd, even and a long period
        code, out = anth("pell", str(n), "--negative-pell", "--format", "json")
        assert code == 0 and out == checks.expected_pell(n)
    code, out = anth("pell", "61", "--negative-pell", "--format", "json")
    bad = out.replace('"y":"226153980"', '"y":"226153981"')
    assert bad != out and bad != checks.expected_pell(61)
    assert checks.pell(46)[1] is None  # even period: no -1 solution
    (x, y), (a, b) = checks.pell(61)
    assert x * x - 61 * y * y == 1 and a * a - 61 * b * b == -1


def test_trace_steps_follow_the_recurrence():
    code, out = anth("trace", "54")
    assert code == 0 and out == run.GOLDEN.read_text(encoding="utf-8")
    assert checks.check_trace(54, out) is None
    for n in (2, 19, 46, 2999):
        assert checks.check_trace(n, anth("trace", str(n))[1]) is None
    bad = out.replace("quotient:  I_3 = 6", "quotient:  I_3 = 5")
    assert checks.check_trace(54, bad) is not None
    bad = out.replace("lambda_3 = 9, mu_3 = 6", "lambda_3 = 9, mu_3 = 5")
    assert checks.check_trace(54, bad) is not None
    assert run._check_trace(54, out.replace("apotome", "binomial", 1)) is not None


def test_verify_needs_nine_ok_lines():
    code, out = anth("verify", "46")
    assert code == 0 and checks.check_verify(46, out) is None
    bad = out.replace("check omega identities: ok", "check omega identities: FAIL (x)")
    assert checks.check_verify(46, bad) is not None
    code, out = anth("verify", "2")  # the pigeonhole fault: exit 1, FAILED
    assert code == 1 and checks.check_verify(2, out) is not None


def test_surd_expansion_and_rational_euclid():
    labels = {
        "(7+sqrt(54))/5": (7, 54, 5),
        "(-3+sqrt(13))/-4": (-3, 13, -4),
        "sqrt(7/3)": (0, 21, 3),
        "sqrt(5/1)": (0, 5, 1),
        "sqrt(8/18)": (0, 144, 18),
        "(5+sqrt(49))/-8": (5, 49, -8),
    }
    for label, surd in labels.items():
        code, out = anth("expand", label, "--format", "json")
        assert code == 0 and out == checks.expected_surd(label, *surd), label
    code, out = anth("expand", "(7+sqrt(54))/5", "--format", "json")
    bad = out.replace('"period":["2"', '"period":["3"')
    assert bad != out and bad != checks.expected_surd("(7+sqrt(54))/5", 7, 54, 5)
    assert checks.euclid(checks.Fraction(-12, 8)) == [-2, 2]


def test_runner_counts_the_named_faults_and_flags_others():
    ops = run.proof_ops(random.Random("proof:1"))[:8]  # verify/trace of 2, 3, 54 and one draw
    runner = run.Runner(cli, ops, run.Clock())
    runner.run_round()
    correct, failed, items, problems = runner.verdict()
    assert (correct, failed, items) == (True, 2, 2), problems
    ops[0].known_fault = False
    assert runner.verdict()[0] is False
    ops[0].known_fault = True
    ops[4].check = lambda out: "corrupted"  # verify 54
    assert runner.verdict()[0] is False


def test_workload_draws_depend_only_on_the_seed():
    for name in ("atlas", "proof", "surds"):
        first = [op.argv for op in run.WORKLOADS[name](random.Random(f"{name}:5"))]
        again = [op.argv for op in run.WORKLOADS[name](random.Random(f"{name}:5"))]
        other = [op.argv for op in run.WORKLOADS[name](random.Random(f"{name}:6"))]
        assert first == again and first != other
