"""cli: output formats, exit codes, golden compare, sweep determinism."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from anthyphairesis import cli, palindrome
from anthyphairesis.cli import InputError, _parse_spec, main
from anthyphairesis.convergents import pell_solutions
from anthyphairesis.engine import Expansion, expand_sqrt
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.surd import QuadraticSurd, ResourceLimitExceeded, StepLimitExceeded
from test_cli_transcript import CASES as TRANSCRIPT_CASES

GOLDEN_54 = os.path.join(os.path.dirname(__file__), "..", "goldens", "trace54.txt")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_surd_spec():
    assert _parse_spec("19")[0] == QuadraticSurd(0, 19, 1)
    assert _parse_spec("sqrt(7/3)")[0] == QuadraticSurd(0, 21, 3)
    assert _parse_spec("sqrt(8)")[0] == QuadraticSurd(0, 8, 1)
    assert _parse_spec(" ( 7 + sqrt(54) ) / 5 ")[0] == QuadraticSurd(7, 54, 5)
    assert _parse_spec("(-3+sqrt(2))/1")[0] == QuadraticSurd(-3, 2, 1)
    for bad in ("-5", "sqrt(7/0)", "(1+sqrt(2))/0", "2+sqrt(3)", "sqrt(x)"):
        with pytest.raises(InputError):
            _parse_spec(bad)


def test_expand_plain_outputs(capsys):
    code, out, _ = run(capsys, "expand", "19")
    assert code == 0
    assert out == "sqrt(19) = [4; (2,1,3,1,2,8)] palindromic=yes\n"

    code, out, _ = run(capsys, "expand", "16")
    assert code == 0
    assert out == "rational: [4]\n"

    code, out, _ = run(capsys, "expand", "sqrt(7/3)", "--steps", "100")
    assert code == 0
    assert out == "sqrt(7/3) = [1; (1,1,8,1,1,2)] palindromic=yes\n"

    code, out, _ = run(capsys, "expand", "(7+sqrt(54))/5")
    assert code == 0
    assert out == "(7+sqrt(54))/5 = [(2,1,6,1,2,14)] palindromic=n/a\n"


def test_expand_pell_flags(capsys):
    code, out, _ = run(capsys, "expand", "19", "--pell")
    assert code == 0
    assert "pell=(170,39)" in out

    code, _, err = run(capsys, "expand", "(7+sqrt(54))/5", "--pell")
    assert code == 2


def test_expand_json_round_trip(capsys):
    code, out, _ = run(capsys, "expand", "19", "--format", "json", "--pell")
    assert code == 0
    line = out.strip()
    record = json.loads(line)
    assert record["pell_x"] == "170" and record["pell_y"] == "39"
    assert record["period"] == ["2", "1", "3", "1", "2", "8"]
    rerendered = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert rerendered == line


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "19", "--format", "csv", "--pell")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,m,period_len,palindrome,case,distinct_logoi,pell_x,pell_y"
    assert lines[1] == "sqrt(19),4,6,yes,I,6,170,39"


def test_exit_codes(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "expand", "sqrt(5/0)")
    assert code == 2

    monkeypatch.setenv("ANTH_MAX_STEPS", "2")
    code, _, err = run(capsys, "expand", "54")
    assert code == 3
    monkeypatch.delenv("ANTH_MAX_STEPS")

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n", encoding="utf-8")
    code, _, err = run(capsys, "trace", "54", "--golden", str(bad))
    assert code == 4


@pytest.mark.parametrize("n", ["54", "61"])  # 61: period 11, Case II
def test_trace_golden_match(capsys, n):
    golden = os.path.join(os.path.dirname(__file__), "..", "goldens", f"trace{n}.txt")
    code, out, _ = run(capsys, "trace", n, "--golden", golden)
    assert code == 0
    with open(golden, encoding="utf-8") as fh:
        assert out == fh.read()


def test_trace_trivial_row_count(capsys):
    code, out, _ = run(capsys, "trace", "2")
    assert code == 0
    assert out.count("step ") == 2


def test_trace_rejects_square(capsys):
    code, _, err = run(capsys, "trace", "16")
    assert code == 2


def test_sweep_plain_count_and_summary(capsys):
    code, out, _ = run(capsys, "sweep", "100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 91  # 90 non-squares plus the summary
    assert lines[-1] == "# 90 non-squares <= 100, 0 palindrome failures"
    assert lines[39] == "N=46 m=6 period_len=12 palindrome=yes case=I distinct_logoi=12"


def test_sweep_csv_schema(capsys):
    code, out, err = run(capsys, "sweep", "30", "--format", "csv", "--pell")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,m,period_len,palindrome,case,distinct_logoi,pell_x,pell_y"
    assert len(lines) == 1 + 25  # squares 4, 9, 16, 25 dropped from 2..30
    assert lines[1] == "2,1,1,yes,II,1,3,2"


def test_sweep_json_round_trip(capsys):
    code, out, _ = run(capsys, "sweep", "20", "--format", "json")
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line


def test_expand_and_sweep_report_the_same_record(capsys):
    """For each non-square N <= 300: expand's CSV row past its label is sweep's row, and
    expand's JSON is sweep's record under expand's names, less m, plus the quotients."""
    flags = ("--pell", "--negative-pell")
    _, out, _ = run(capsys, "sweep", "300", *flags, "--format", "csv")
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    _, out, _ = run(capsys, "sweep", "300", *flags, "--format", "json")
    records = {r["N"]: r for r in map(json.loads, out.splitlines()[:-1])}
    assert list(rows) == list(records) and len(rows) == 299 - 16  # 2..300 less the squares 4..289
    renames = {"N": "input", "period_len": "period_length", "palindrome": "palindromic"}
    for n, row in rows.items():
        _, out, _ = run(capsys, "expand", n, *flags, "--format", "csv")
        assert out.splitlines()[1] == f"sqrt({n}),{row}"
        e = expand_sqrt(int(n))
        expected = {renames.get(key, key): v for key, v in records[n].items() if key != "m"}
        expected |= {"input": f"sqrt({n})", "terminated": False, "preperiod": list(map(str, e.preperiod)),
                     "period": list(map(str, e.period))}
        _, out, _ = run(capsys, "expand", n, *flags, "--format", "json")
        assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


def test_sweep_jobs_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["sweep", "200", "--out", str(a)]) == 0
    assert main(["sweep", "200", "--jobs", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SWEEP_3000_SHA256 = {  # sha256 of repr((exit code, stdout, stderr)) of sweep 3000 in each format
    "plain": "824ee1ed53677c0479923d1b97cfe5146fc3cc9a20e0592e41f16748899e6d93",
    "json": "e819570b82a475593f526ad6c1009560577126ae5aefd2832e6b9664eda34915",
    "csv": "2dd26ad9140be25ffa38bedcc856178546e470ee64b151465bbd5b57706372f6",
}


@pytest.mark.parametrize("fmt", sorted(SWEEP_3000_SHA256))
def test_sweep_3000_bytes_are_pinned(capsys, fmt):
    result = run(capsys, "sweep", "3000", "--format", fmt)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == SWEEP_3000_SHA256[fmt]


@pytest.mark.parametrize("cpus", [None, 1, 3, pytest.param(os.cpu_count(), id="this_host")])
def test_sweep_starts_at_most_one_worker_per_cpu(capsys, monkeypatch, cpus):
    # a stand-in Pool records the size asked for and maps in this process: no worker starts
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    expected = run(capsys, "sweep", "30", "--jobs", "1")
    assert run(capsys, "sweep", "30", "--jobs", "1000000") == expected
    assert sizes == ([cpus] if cpus and cpus > 1 else [])


def test_sweep_failure_exit_code(capsys, monkeypatch):
    real = cli._sweep_record

    def sabotaged(task):
        rec = real(task)
        if rec is not None and rec["N"] == 7:
            rec["palindrome"] = False
        return rec

    monkeypatch.setattr(cli, "_sweep_record", sabotaged)
    code, out, _ = run(capsys, "sweep", "10")
    assert code == 5
    assert "1 palindrome failures" in out


def test_sweep_streams_rows_as_they_are_computed(capsys, monkeypatch):
    real = cli._sweep_record
    seen = {}

    def watching(task):
        if task[0] == 50:
            seen["out"] = capsys.readouterr().out
        return real(task)

    monkeypatch.setattr(cli, "_sweep_record", watching)
    assert main(["sweep", "50", "--jobs", "1"]) == 0
    assert seen["out"].startswith("N=2 m=1 period_len=1 ")


def test_sweep_opens_its_out_file_before_expanding(tmp_path, capsys, monkeypatch):
    from anthyphairesis import engine

    calls = []

    def counting(n, *rest):
        calls.append(n)
        return engine.expand_sqrt(n, *rest)

    monkeypatch.setattr(cli, "expand_sqrt", counting)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "sweep", "1000", "--out", str(target))
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_pell_command(capsys):
    code, out, _ = run(capsys, "pell", "61")
    assert code == 0
    assert out == "pell(61): x=1766319049 y=226153980\n"

    code, out, _ = run(capsys, "pell", "13", "--negative-pell", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"N": "13", "x": "649", "y": "180", "negative_pell": {"x": "18", "y": "5"}}

    code, _, err = run(capsys, "pell", "9")
    assert code == 2


def test_approx_command(capsys):
    code, out, _ = run(capsys, "approx", "19", "--steps", "6")
    assert code == 0
    assert out.splitlines() == [
        "k=0 4/1", "k=1 9/2", "k=2 13/3", "k=3 48/11", "k=4 61/14", "k=5 170/39",
    ]


def test_approx_json_is_the_canonical_record(capsys, tmp_path):
    for spec in ("19", "sqrt(7/3)", "16"):
        code, out, _ = run(capsys, "approx", spec, "--steps", "30", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        target = tmp_path / "approx.json"
        assert main(["approx", spec, "--steps", "30", "--format", "json", "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == out
    assert [c["index"] for c in record["convergents"]] == ["0"]  # sqrt(16) = 4 has one convergent
    assert record["input"] == "sqrt(16)"


@pytest.mark.parametrize("spec", ["+19", "019", " 19 ", "+0019"])
def test_integer_spec_is_labelled_by_its_value(capsys, spec):
    code, out, _ = run(capsys, "expand", spec)
    assert (code, out) == (0, "sqrt(19) = [4; (2,1,3,1,2,8)] palindromic=yes\n")
    code, out, _ = run(capsys, "expand", spec, "--format", "csv")
    assert out.splitlines()[1].startswith("sqrt(19),4,6,")
    code, out, _ = run(capsys, "approx", spec, "--steps", "2", "--format", "json")
    assert json.loads(out)["input"] == "sqrt(19)"


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "54")
    assert code == 0
    assert "verify 54: all checks passed" in out
    assert "FAIL" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["expand", "13", "--format", "json", "--out", str(target)]) == 0
    record = json.loads(target.read_text(encoding="utf-8"))
    assert record["period"] == ["1", "1", "1", "1", "6"]


def test_out_file_in_a_missing_directory_is_bad_input(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "expand", "19", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_out_file_write_error_is_bad_input(capsys):
    # /dev/full opens, then every write fails with ENOSPC: one command's few
    # lines and a short sweep's rows when the file closes, a long sweep's rows
    # mid-stream, when a buffer fills; no CSV summary follows rows not written
    for argv in (
        ["expand", "19"], ["pell", "13"], ["approx", "19"], ["verify", "54"], ["trace", "54"],
        ["sweep", "50", "--format", "json"], ["sweep", "50"],
        ["sweep", "50", "--format", "csv"], ["sweep", "3000", "--format", "csv"],
    ):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert (code, out) == (2, ""), argv
        assert err == "error: cannot write /dev/full: No space left on device\n", argv
    # an empty FILE is a file that cannot be opened, not stdout
    code, out, err = run(capsys, "expand", "19", "--out", "")
    assert (code, out, err) == (2, "", "error: cannot write : No such file or directory\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stdout_closed_by_its_reader_exits_141_silently(jobs):
    proc = subprocess.Popen(
        [sys.executable, "-m", "anthyphairesis.cli", "sweep", "20000", "--jobs", jobs],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        assert proc.stdout.readline() == b"N=2 m=1 period_len=1 palindrome=yes case=II distinct_logoi=1\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


def test_missing_golden_file_is_bad_input(tmp_path, capsys):
    golden = tmp_path / "missing.txt"
    code, out, err = run(capsys, "trace", "54", "--golden", str(golden))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {golden}: No such file or directory\n"


def test_long_preperiod_expands_within_the_default_budget(capsys):
    code, out, _ = run(capsys, "expand", "(-7920+sqrt(2))/-4894")
    assert code == 0
    assert out == "(-7920+sqrt(2))/-4894 = [1,1,1,1,1,1,1,1,1,1,1; (2)] palindromic=n/a\n"
    code, out, err = run(capsys, "expand", "(-7920+sqrt(2))/-4894", "--steps", "10")
    assert (code, out) == (3, "")
    assert err.startswith("error: step limit exhausted")


@pytest.mark.parametrize("n", [2, 3])
def test_verify_smallest_radicands(capsys, n):
    code, out, _ = run(capsys, "verify", str(n))
    assert code == 0
    assert out.count(": ok\n") == 9
    assert out.endswith(f"verify {n}: all checks passed\n")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "anthyphairesis.cli", "expand", "46"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "sqrt(46) = [6; (1,3,1,1,2,6,2,1,1,3,1,12)] palindromic=yes\n"


ROOT = os.path.join(os.path.dirname(__file__), "..")
ENTRY_POINT_SCRIPT = os.path.join(ROOT, "ci", "entry_point.sh")


def test_workflow_runs_the_entry_point_script_after_install():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        workflow = fh.read()
    step = workflow.split("- name: Installed entry point\n", 1)[1].split("\n      - name: ", 1)[0]
    assert [line.strip() for line in step.splitlines()] == ["run: |", "python -m pip install .", "bash ci/entry_point.sh"]
    with open(ENTRY_POINT_SCRIPT, encoding="utf-8") as fh:
        script = fh.read()
    commands = [line for line in script.splitlines() if line and not line.startswith("#")]
    assert commands[0] == "set -e"
    assert not any("pipefail" in line for line in commands)  # `sweep 20000 | head -n 1` checks only its stderr


def test_entry_point_script_stops_at_its_first_failing_check(tmp_path):
    # with an `anth` that succeeds silently, the first check that wants another exit code
    # fails; set -e stops there, and the ERR trap names its line
    (tmp_path / "ci").mkdir()
    script = tmp_path / "ci" / "entry_point.sh"
    with open(ENTRY_POINT_SCRIPT, encoding="utf-8") as fh:
        script.write_text(fh.read(), encoding="utf-8")
    (tmp_path / "bin").mkdir()
    anth = tmp_path / "bin" / "anth"
    anth.write_text('#!/bin/sh\nprintf \'%s\\n\' "$*" >> "$ANTH_LOG"\n', encoding="utf-8")
    anth.chmod(0o755)
    log = tmp_path / "anth.log"
    env = dict(os.environ, PATH=f"{tmp_path / 'bin'}{os.pathsep}{os.environ['PATH']}", ANTH_LOG=str(log))
    proc = subprocess.run(["bash", str(script)], env=env, capture_output=True, text=True, timeout=60)
    lines = script.read_text(encoding="utf-8").splitlines()
    (failing,) = [i for i, line in enumerate(lines, 1) if "anth pell 54" in line]
    assert proc.returncode == 1
    assert proc.stderr == f"ci/entry_point.sh: check at line {failing} failed\n"
    ran = log.read_text(encoding="utf-8").splitlines()
    assert ran[0] == "expand 19" and ran[-1] == "pell 54"
    assert len(ran) == sum(line.lstrip().startswith(("anth ", "timeout 30 anth ")) for line in lines[:failing - 1]) + 1


@pytest.fixture
def low_int_str_limit():
    """Python's lowest int-to-str digit limit while the test runs, where the limit exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_dec_renders_past_the_int_str_limit(low_int_str_limit):
    values = [0, 7, -7, 10**600, 10**5000, -(10**5000) - 1, 3**20000, 10**4000 * 7 + 5, 10**700]
    rendered = [cli._dec(v) for v in values]
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    assert [int(text) for text in rendered] == values
    assert rendered[3] == "1" + "0" * 600


def test_dec_makes_no_str_call_that_must_fail(low_int_str_limit):
    # below about 14,430 bits, Python 3.11 converts an int past the limit in full before str() raises
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("needs Python's int-to-str digit limit")
    calls = []

    class Recorded(int):
        def __str__(self):
            calls.append(self.bit_length())  # not the int: its repr may be past the limit
            return int.__str__(self)

    values = [10**640, -(10**640), 10**640 + 1, 7 * 10**700, 3**20000]  # 641 digits or more, the limit 640
    rendered = [cli._dec(Recorded(v)) for v in values]
    assert calls == []
    sys.set_int_max_str_digits(0)
    assert [int(text) for text in rendered] == values
    assert cli._dec(Recorded(7)) == "7" and calls == [3]


@pytest.mark.parametrize("limit", [640, 641, 4300, 0])
def test_dec_is_str_at_the_edges_of_its_fast_path_and_of_its_split(limit):
    # below 1,920 bits _dec returns str(n) before it reads the limit: at most 578 digits, under every limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("needs Python's int-to-str digit limit")
    assert len(str(2**1919 - 1)) == 578
    edges = [2**1920 - 1, 2**1920, 2**1920 + 1]
    for split in (640, 641, 4300):  # the largest int of 3*split - 1 bits, the smallest of 3*split bits
        edges += [2 ** (3 * split - 1) - 1, 2 ** (3 * split - 1)]
    values = edges + [-v for v in edges]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        rendered = [cli._dec(v) for v in values]
    finally:
        sys.set_int_max_str_digits(0)
        expected = [str(v) for v in values]
        sys.set_int_max_str_digits(old)
    assert rendered == expected


def test_pell_over_4300_digits_renders(capsys, low_int_str_limit):
    # x of N = 92590649 has 4348 digits and y 4344; the -1 solution half as many
    n = 92590649
    code, out, _ = run(capsys, "pell", str(n), "--negative-pell", "--format", "json")
    assert code == 0
    pell_record = json.loads(out)
    code, out, _ = run(capsys, "expand", str(n), "--pell", "--negative-pell", "--format", "json")
    assert code == 0
    expand_record = json.loads(out)
    code, out, _ = run(capsys, "expand", str(n), "--pell", "--format", "csv")
    assert code == 0
    csv_row = out.splitlines()[1].split(",")
    code, out, _ = run(capsys, "pell", str(n))
    assert code == 0
    plain = out
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    x, y = int(pell_record["x"]), int(pell_record["y"])
    assert len(pell_record["x"]) == 4348
    assert x * x - n * y * y == 1
    a, b = int(pell_record["negative_pell"]["x"]), int(pell_record["negative_pell"]["y"])
    assert a * a - n * b * b == -1
    assert (expand_record["pell_x"], expand_record["pell_y"]) == (pell_record["x"], pell_record["y"])
    assert expand_record["negative_pell"] == pell_record["negative_pell"]
    assert csv_row[-2:] == [pell_record["x"], pell_record["y"]]
    assert plain == f"pell({n}): x={pell_record['x']} y={pell_record['y']}\n"


@pytest.mark.parametrize(
    "argv, expansions",
    [
        (["pell", "61", "--negative-pell"], 1),
        (["expand", "61", "--pell", "--negative-pell"], 1),
        (["verify", "61"], 2),
        (["sweep", "30", "--pell", "--negative-pell"], 29),  # every N in 2..30: a square ends at its one quotient
    ],
)
def test_pell_commands_expand_each_n_once(capsys, monkeypatch, argv, expansions):
    # expansions counts full expansions and expansions to the centre of the period alike;
    # a full expansion of sqrt(N) is the recurrence from the start (0, N, 1), through
    # expand_sqrt or expand_surd, so verify's re-expanded tail is not one
    from anthyphairesis import engine

    full, centre = [], []
    recurrence = engine._anthyphairesis

    def counting_full(p, d, q, *rest):
        if (p, q) == (0, 1):
            full.append(d)
        return recurrence(p, d, q, *rest)

    def counting_centre(n, *rest):
        centre.append(n)
        return engine._to_centre(n, *rest)

    monkeypatch.setattr(engine, "_anthyphairesis", counting_full)
    monkeypatch.setattr(sys.modules["anthyphairesis.convergents"], "_to_centre", counting_centre)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    calls = full + centre
    assert len(calls) == expansions
    if argv[0] == "pell":  # pell alone stops at the centre
        assert (full, centre) == ([], [61])
    elif argv[0] == "verify":  # its pell check compares the full period's solution with the centre stop's
        assert (full, centre) == ([61], [61])
    else:
        assert centre == [] and len(full) == len(set(full))


@pytest.mark.parametrize("argv", [["sweep", "30"], ["expand", "13"]])
def test_csv_computes_no_negative_pell_pair(capsys, monkeypatch, argv):
    # the CSV schema has no negative-Pell column, so --negative-pell there prints and computes nothing more
    calls = []
    solutions = cli.pell_solutions

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solutions(*args, **kwargs)

    without = run(capsys, *argv, "--format", "csv")
    monkeypatch.setattr(cli, "pell_solutions", counted)
    assert run(capsys, *argv, "--negative-pell", "--format", "csv") == without
    assert calls == []


@pytest.mark.parametrize(
    "argv, verdicts",
    [
        (["sweep", "200"], 186),
        (["expand", "19"], 1),
        (["expand", "sqrt(7/3)"], 1),
        (["expand", "(7+sqrt(54))/5"], 0),
        (["expand", "(0+sqrt(5))/-3"], 0),
        (["expand", "sqrt(3/7)"], 0),
    ],
)
def test_palindrome_is_verified_once_per_record_whose_normal_form_starts_at_p_0(capsys, monkeypatch, argv, verdicts):
    # only where the normal form starts at p = 0 < q and the first quotient m is at least 1
    calls = []
    real = cli.verify_palindrome

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(cli, "verify_palindrome", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == verdicts


@pytest.mark.parametrize("argv", [["expand", "16", "--pell"], ["expand", "1", "--negative-pell"]])
def test_expand_rejects_a_square_for_pell_before_expanding_it(capsys, monkeypatch, argv):
    from anthyphairesis import engine

    def expanding(*args):
        raise AssertionError(f"expanded {args}")

    monkeypatch.setattr(engine, "_anthyphairesis", expanding)
    assert run(capsys, *argv) == (2, "", f"error: Pell needs a non-square N >= 2, got {argv[1]}\n")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_anth_max_steps_below_one_is_bad_input(capsys, monkeypatch, value):
    monkeypatch.setenv("ANTH_MAX_STEPS", value)
    code, out, err = run(capsys, "expand", "19")
    assert (code, out) == (2, "")
    assert err == f"error: ANTH_MAX_STEPS must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [["pell", "54"], ["approx", "54"], ["verify", "54"], ["sweep", "60"], ["sweep", "60", "--jobs", "2"]],
)
def test_anth_max_steps_reaches_every_expanding_command(capsys, monkeypatch, argv):
    # the whole line, so a worker's exception that lost its message on the way back fails
    message = {
        "pell": "sqrt(54): centre of the period not reached within 2 steps",
        "approx": "sqrt(54): 8 quotients asked for, 2 steps allowed",
        "verify": "sqrt(54): no state repeated within 2 steps",
        "sweep": "sqrt(7): no state repeated within 2 steps",
    }[argv[0]]
    monkeypatch.setenv("ANTH_MAX_STEPS", "2")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == f"error: step limit exhausted: {message}\n"


@pytest.mark.parametrize("n, period", [(54, 6), (13, 5), (46, 12)])
def test_pell_step_budget_counts_steps_to_the_centre(capsys, monkeypatch, n, period):
    # pell expands only to the centre of the period and needs period // 2 steps;
    # expand --pell runs and checks the whole period and needs all of them
    for steps in range(period // 2 + 1, period):
        monkeypatch.setenv("ANTH_MAX_STEPS", str(steps))
        code, out, err = run(capsys, "pell", str(n))
        assert (code, err) == (0, "")
        assert out.startswith(f"pell({n}): x=")
        code, out, err = run(capsys, "expand", str(n), "--pell")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and err.startswith("error: step limit exhausted: ")
    monkeypatch.setenv("ANTH_MAX_STEPS", str(period // 2))
    assert run(capsys, "pell", str(n))[0] == 0
    monkeypatch.setenv("ANTH_MAX_STEPS", str(period // 2 - 1))
    code, _, err = run(capsys, "pell", str(n))
    assert code == 3 and err.startswith("error: step limit exhausted: sqrt")
    monkeypatch.setenv("ANTH_MAX_STEPS", str(period))
    assert run(capsys, "expand", str(n), "--pell")[0] == 0


def test_trace_step_budget_exit_code(capsys):
    code, out, err = run(capsys, "trace", "54", "--steps", "2")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: step limit exhausted")


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "19", "--steps", "0"],
        ["expand", "19", "--steps", "-1"],
        ["trace", "54", "--steps", "0"],
        ["approx", "19", "--steps", "-2"],
        ["sweep", "10", "--jobs", "0"],
        ["sweep", "10", "--jobs", "-3"],
        ["expand", "19", "--steps", "x"],  # not an int at all
        ["sweep", "10", "--jobs", "x"],
    ],
)
def test_flag_values_below_one_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag, value = argv[-2:]
    reason = f"invalid int value: {value!r}" if value == "x" else f"must be at least 1, got {value}"
    assert capsys.readouterr().err.splitlines()[-1] == f"anth {argv[0]}: error: argument {flag}: {reason}"


def test_bad_input_exit_2_and_internal_faults_propagate(capsys, monkeypatch):
    zeros = ["0", "sqrt(0/1)", "(0+sqrt(0))/1", "sqrt(0/5)", "(0+sqrt(0))/5", "(0+sqrt(0))/-5"]  # sqrt(0) however written
    bad = [["expand", "1000000", "--pell"], ["expand", "16", "--negative-pell"]]
    for argv in bad + [[command, zero] for command in ("expand", "approx") for zero in zeros]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ")

    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "verify_palindrome", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["expand", "19"])


def test_parser_is_built_once():
    assert cli._parsers() is cli._parsers()


# argv that end in help, a usage error or an abbreviation, each run through
# both parsers below next to every argv of the golden transcript (which
# holds trace -4)
_PARSE_BATTERY = [
    [], ["-h"], ["--help"], ["-h", "expand"], ["expand", "-h"], ["expand", "19", "--help"],
    ["frobnicate", "19"], ["Expand", "19"], [""], ["expand", "19", "--bogus"], ["--bogus", "expand", "19"],
    ["expand", "19", "--form", "json"], ["expand", "19", "--format=json"], ["expand", "19", "--format", "xml"],
    ["expand", "19", "--neg"], ["pell", "13", "--neg"], ["expand", "--", "19"], ["trace", "--", "-4"],
    ["expand", "19", "--format"], ["expand"], ["expand", "19", "--format", "json", "--format", "csv"],
    ["trace", "1e3"], ["expand", "19", "20"], ["verify", "54", "--format", "json"],
    ["sweep", "10", "--jobs", "0"], ["sweep", "10", "--jobs=2", "-x"],
    ["expand", "19", "--out", "-"], ["expand", ""], ["pell", "１３"], ["expand", "19", "--steps", "-5"],
]


def _parse_outcome(capsys, parse, argv):
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", [argv for _, argv in TRANSCRIPT_CASES] + _PARSE_BATTERY, ids=shlex.join)
def test_main_parses_as_the_top_level_parser_does(capsys, argv):
    full = _parse_outcome(capsys, cli._parsers()[0].parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == full


def _command_options() -> dict[str, dict[str, object]]:
    """Each command's option strings mapped to their actions, read off its parser, less -h and --help."""
    return {
        name: {s: a for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in cli._parsers()[1].items()
    }


_OPTION_VALUES = ["19", "54", "2", "json", "csv", "plain", "xml", "0", "1e3", "sqrt(2)", "o.txt", "１３", "١٩", ""]
_OPTIONS = sorted({s for options in _command_options().values() for s in options})
_TOKENS = _OPTIONS + _OPTION_VALUES + [
    "-h", "--help", "--form", "--neg", "--st", "--jo", "--gold", "--pel", "--format=json", "--steps=3",
    "--jobs=2", "--out=o.txt", "--pell=1", "-4", "-5", "-", "--", "-x",
]


def _captured(parse, argv):
    """vars() of the namespace or the SystemExit code, then stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _argv_of(command: str):
    """command, then mostly a positional, then stray tokens, flags of command's own and its
    valued options with a value: repeats, missing values and bad values among them."""
    own = _command_options().get(command, {})
    flags = [s for s, a in own.items() if a.nargs == 0] or _TOKENS
    valued = [s for s, a in own.items() if a.nargs != 0] or _OPTIONS
    pair = st.tuples(st.sampled_from(valued), st.sampled_from(_OPTION_VALUES)).map(list)
    chunk = st.one_of(st.sampled_from(_TOKENS).map(lambda t: [t]), st.sampled_from(flags).map(lambda t: [t]), pair, pair, pair)
    parts = st.tuples(st.lists(st.sampled_from(_OPTION_VALUES), max_size=1), st.lists(chunk, max_size=4))
    return parts.map(lambda p: [command, *p[0], *(t for chunk in p[1] for t in chunk)])


_argv = st.sampled_from(sorted(cli._parsers()[1]) + ["Expand", "", "-h"]).flatmap(_argv_of)


@settings(max_examples=500, deadline=None)
@given(_argv)
def test_parse_equals_parse_args_on_drawn_argv(argv):
    assert _captured(cli._parse, argv) == _captured(cli._parsers()[0].parse_args, argv)


_WELL_FORMED = [
    ["expand", "19", "--steps", "50", "--pell", "--negative-pell", "--format", "json", "--out", "o.txt"],
    ["expand", "--format", "csv", "(7+sqrt(54))/5"],
    ["trace", "54", "--steps", "3", "--golden", "g.txt", "--out", "o.txt"],
    ["sweep", "--jobs", "2", "100", "--pell", "--negative-pell", "--format", "csv", "--out", "o.txt"],
    ["pell", "１３", "--negative-pell", "--format", "json", "--out", "o.txt"],
    ["approx", "sqrt(7/3)", "--steps", "4", "--format", "plain", "--out", "o.txt"],
    ["verify", "54", "--out", "", "--out", "o.txt"],
]


@pytest.mark.parametrize(
    "argv, calls",
    [(argv, 0) for argv in _WELL_FORMED]
    + [
        (["expand", "19", "--form", "json"], 1),
        (["expand", "19", "--format=json"], 1),
        (["trace", "-4"], 1),
        (["expand", "19", "--out", "-"], 1),
        (["expand", "19", "--format", "xml"], 1),
    ],
    ids=lambda v: shlex.join(v) if isinstance(v, list) else f"{v} calls",
)
def test_command_parsers_run_only_off_the_quick_path(monkeypatch, argv, calls):
    seen = []
    for p in cli._parsers()[1].values():
        monkeypatch.setattr(p, "parse_known_args", lambda *a, _f=p.parse_known_args: seen.append(a) or _f(*a))
    outcome = _captured(cli._parse, argv)
    assert len(seen) == calls
    monkeypatch.undo()
    assert outcome == _captured(cli._parsers()[0].parse_args, argv)


def test_well_formed_cases_use_every_option():
    used = {(argv[0], t) for argv in _WELL_FORMED for t in argv[1:]}
    assert {(name, s) for name, options in _command_options().items() for s in options} <= used


@pytest.mark.parametrize(
    "argv, calls",
    [(argv, 0) for argv in _WELL_FORMED]
    + [
        (["expand", "19", "--format", "json"], 0),
        (["pell", "13", "--negative-pell"], 0),
        (["sweep", "3000", "--format", "csv", "--jobs", "1"], 0),  # one argv of each benchmark workload's shape
        (["pell", "100000007", "--negative-pell", "--format", "json"], 0),
        (["verify", "54"], 0),
        (["trace", "61"], 0),
        (["expand", "(7+sqrt(54))/5", "--format", "json"], 0),
        (["expand", "sqrt(7/3)", "--format", "json"], 0),
        (["expand", "19", "--form", "json"], 1),
        (["expand", "19", "--format=json"], 1),
        (["expand", "19", "--format", "xml"], 1),
        (["expand", "19", "--out", "-"], 1),
        (["expand", "19", "--bogus"], 1),
        (["trace", "-4"], 1),
    ],
    ids=lambda v: shlex.join(v) if isinstance(v, list) else f"{v} calls",
)
def test_top_level_parser_runs_once_off_the_quick_path_and_never_on_it(monkeypatch, argv, calls):
    parser = cli._parsers()[0]
    seen = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda *a: seen.append(a) or parse_args(*a))
    _captured(cli._parse, argv)
    assert len(seen) == calls


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or not 0 < sys.get_int_max_str_digits() < 5000,
    reason="needs Python's int-from-str digit limit in force",
)
def test_input_over_the_digit_limit_is_bad_input(capsys):
    code, out, err = run(capsys, "expand", "1" * 5000)
    assert (code, out) == (2, "")
    assert "Exceeds the limit" in err


def test_decs_renders_a_list_like_dec(low_int_str_limit):
    small = [0, 7, -7, 2**1999 - 1, -(2**1999)]
    assert cli._decs(small) == [str(v) for v in small]
    mixed = [3, -(10**700), 5, 10**5000]
    assert cli._decs(mixed) == [cli._dec(v) for v in mixed]
    assert cli._decs([]) == []
    edges = [-1, 255, 256, 257]  # either side of the table of small ints
    assert cli._decs(edges) == ["-1", "255", "256", "257"]
    hits_and_misses = [0, 1, 255, 256, -1, 1000, 7, -256, 12345678901234567890, 254, 10**700, 3]
    assert cli._decs(hits_and_misses) == [cli._dec(v) for v in hits_and_misses]
    long = [(k * 37) % 300 - 20 for k in range(100_000)]
    assert cli._decs(long) == [str(v) for v in long]


def _anth_in_child(*argv, address_space=None, timeout=60):
    """anth run in a child process; address_space, if given, is RLIMIT_AS in bytes for that child alone."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "anthyphairesis.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=limit if address_space else None,
    )


def test_memory_budget_fires_before_memory_runs_out():
    # the period of sqrt(10^22+3) is far longer than a 600 MB address space can hold
    start = time.perf_counter()
    proc = _anth_in_child("expand", str(10**22 + 3), address_space=600_000 * 1024)
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: memory limit reached: ")


@pytest.mark.parametrize("argv", [["expand", str(10**13 + 3)], ["pell", str(10**13 + 3)]])
def test_long_periods_fit_the_memory_budget(capsys, argv):
    # period 171,126
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1


@pytest.fixture
def room_for_ten_trail_steps(monkeypatch):
    from anthyphairesis import engine, surd

    monkeypatch.setattr(surd, "_memory_steps", lambda bytes_per_step: 10 * engine._TRAIL_STEP_BYTES // bytes_per_step)


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "46"],
        ["expand", "46", "--steps", "1000"],
        ["verify", "46"],
        ["verify", "43"],  # its 10 trail steps fit; its trace, charged 1 KB + 32 B a step beside the trail, fits 9
        ["trace", "46"],
        ["sweep", "60"],
        pytest.param(
            ["sweep", "60", "--jobs", "2"],
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork", reason="workers must inherit the patched budget"
            ),
        ),
    ],
)
def test_memory_cap_exits_3_with_one_line(capsys, room_for_ten_trail_steps, argv):
    # sqrt(46) has 13 quotients; the patched memory holds 10 trail steps (1 KB each)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: memory limit reached: ")


def test_a_smaller_step_budget_still_fires_first(capsys, room_for_ten_trail_steps):
    code, _, err = run(capsys, "expand", "46", "--steps", "5")
    assert code == 3
    assert err.startswith("error: step limit exhausted: ")


@pytest.mark.parametrize("n", [46, 54, 13, 61])  # periods 12, 6, 5 and 11
def test_pell_memory_cap_charges_48_bytes_per_step_to_the_centre(capsys, monkeypatch, n):
    # memory for s steps of 48 bytes lets pell take s steps to the centre: the
    # l // 2 of a period of length l fit in 48 * (l // 2) bytes, and one byte less stops it
    from anthyphairesis import surd

    half = len(expand_sqrt(n).period) // 2
    for memory in (48 * half, 48 * half - 1):
        monkeypatch.setattr(surd, "_memory_steps", lambda bytes_per_step: memory // bytes_per_step)
        code, out, err = run(capsys, "pell", str(n))
        if memory == 48 * half:
            assert (code, err) == (0, "") and out.startswith(f"pell({n}): x=")
        else:
            assert (code, out) == (3, "")
            assert err == (
                f"error: memory limit reached: sqrt({n}): centre of the period not reached"
                f" within {half - 1} steps, all that fit in memory\n"
            )


def test_pell_memory_budget_fires_before_memory_runs_out():
    # 128 MB holds 2,796,202 steps to the centre at 48 bytes each; sqrt(10^15+3) needs more than 4,100,000
    start = time.perf_counter()
    proc = _anth_in_child("pell", str(10**15 + 3), address_space=128 * 1024 * 1024)
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        f"error: memory limit reached: sqrt({10**15 + 3}): centre of the period not reached"
        " within 2796202 steps, all that fit in memory\n"
    )


def test_verify_convergent_check_memory_is_linear_in_the_period(capsys):
    # period 5,314: all convergents of two periods at once peak near 29 MB, one at a time near 6 MB
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", str(10**8 + 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith("all checks passed\n")
    assert peak < 12_000_000


def test_verify_omega_and_oracle_checks_hold_one_copy_of_what_they_compare(capsys, monkeypatch):
    # period 1,238: a second copy of the trail views doubles the omega pass, and a second list
    # of the oracle's 3l + 1 quotients takes its check from about 12 to about 18 B a step
    import tracemalloc

    from anthyphairesis import engine

    n = 10**7 + 3
    e = expand_sqrt(n)
    steps = 3 * len(e.period) + 1
    marks = {}

    def mark():
        marks["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def peak() -> int:
        return tracemalloc.get_traced_memory()[1] - marks["base"]

    def omegas_then_mark(*args):  # the oracle check runs next
        omega_sequence(*args)
        mark()

    def trace_after_oracle(*args):
        marks["oracle"] = peak()
        return trace_quotients(*args)

    omega_sequence, trace_quotients = palindrome.omega_sequence, palindrome._trace_quotients
    monkeypatch.setattr(palindrome, "omega_sequence", omegas_then_mark)
    monkeypatch.setattr(palindrome, "_trace_quotients", trace_after_oracle)
    tracemalloc.start()
    try:
        mark()
        palindrome.omega_sequence(e)
        omegas = peak()
        mark()
        engine.increment_factors(e)
        increments = peak()
        code, out, _ = run(capsys, "verify", str(n))
    finally:
        tracemalloc.stop()
    assert code == 0 and out.endswith("all checks passed\n")
    assert omegas < 1.2 * increments
    assert marks["oracle"] < 14 * steps


def test_verify_runs_each_symbolic_certifier_once(capsys, monkeypatch):
    # the omega check is omega_sequence, which runs increment_factors after its own identities
    from anthyphairesis import engine, palindrome

    calls = []
    for module, name in ((palindrome, "omega_sequence"), (engine, "increment_factors")):
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        for holder in (cli, engine, palindrome):
            if getattr(holder, name, None) is fn:
                monkeypatch.setattr(holder, name, counted)
    code, out, _ = run(capsys, "verify", "54")
    assert code == 0 and out.endswith("all checks passed\n")
    assert calls == ["omega_sequence", "increment_factors"]


def test_verify_reads_the_quotients_a_fixed_number_of_times(capsys, monkeypatch):
    # periods 2, 16 and 458: a read per step of a check would grow with the period
    quotients = Expansion.quotients.fget
    reads = []

    def counted(e):
        reads.append(e)
        return quotients(e)

    monkeypatch.setattr(Expansion, "quotients", property(counted))
    counts = []
    for n in (3, 94, 1000003):
        reads.clear()
        code, out, _ = run(capsys, "verify", str(n))
        assert code == 0 and out.endswith("all checks passed\n")
        counts.append(len(reads))
    assert counts[0] == counts[1] == counts[2]


F60_F59 = "(1548008755920+sqrt(0))/956722026041"  # F(60)/F(59): 58 quotients, 1, ..., 1, 2


@pytest.mark.parametrize("spec", ["19", "16", "sqrt(7/3)", "(-3+sqrt(5))/4", "(3+sqrt(4))/-7", F60_F59])
@pytest.mark.parametrize("steps", [1, 12, 40])
def test_approx_reads_exactly_the_quotients_it_prints(capsys, monkeypatch, spec, steps):
    from anthyphairesis import engine

    calls = []

    def counted(s, k):
        calls.append(k)
        return oracle_expand(s, k)

    def no_period_search(*args):
        raise AssertionError("approx expanded a period")

    monkeypatch.setattr(cli, "oracle_expand", counted)
    for name in ("expand_sqrt", "expand_surd", "_anthyphairesis"):
        monkeypatch.setattr(engine, name, no_period_search)
    for name in ("expand_sqrt", "expand_surd"):
        monkeypatch.setattr(cli, name, no_period_search)
    code, out, err = run(capsys, "approx", spec, "--steps", str(steps))
    assert (code, err) == (0, "")
    assert calls == [steps]
    assert 1 <= out.count("\n") <= steps


@pytest.mark.parametrize("spec", ["19", "sqrt(19/1)", "(0+sqrt(1000003))/1"])
@pytest.mark.parametrize("at, delta", [(0, 1), (1, 1), (5, 1), (11, 1), (0, -1)])
def test_approx_of_sqrt_n_fails_on_a_wrong_quotient(capsys, monkeypatch, spec, at, delta):
    # one quotient off by one makes its convergent break the sign rule (+1 here) or Lagrange's bound (-1 at 0):
    # a fault, not bad input
    printed = []

    def one_wrong(s, k):
        quots = list(oracle_expand(s, k))
        quots[at] += delta
        return tuple(quots)

    monkeypatch.setattr(cli, "oracle_expand", one_wrong)
    monkeypatch.setattr(cli, "_emit", lambda lines, out, end="\n": printed.extend(lines))
    with pytest.raises(AssertionError, match=f"convergent {at} of sqrt"):
        main(["approx", spec, "--steps", "12"])
    assert len(printed) == at
    monkeypatch.undo()
    assert run(capsys, "approx", spec, "--steps", "12")[0] == 0


@pytest.mark.parametrize("spec", [str(10**42 + 3), "(1+sqrt(2))/100000000000000000000"])
def test_approx_of_a_huge_period_prints_its_first_convergents(spec):
    # each period is far too long to find; three convergents need three quotients
    proc = _anth_in_child("approx", spec, "--steps", "3", timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split(" ")[0] for line in proc.stdout.splitlines()] == ["k=0", "k=1", "k=2"]


def test_approx_of_a_long_rational_stays_linear():
    # Euclid on F(60)/F(59) in 58 steps: scaling p and q at each step without reducing them would double their bits
    proc = _anth_in_child("approx", F60_F59, "--steps", "60", timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 58
    assert lines[0] == "k=0 1/1" and lines[-1] == "k=57 1548008755920/956722026041"


def test_anth_max_steps_caps_the_quotients_approx_reads(capsys, monkeypatch):
    monkeypatch.setenv("ANTH_MAX_STEPS", "6")
    code, out, err = run(capsys, "approx", "19", "--steps", "6")
    assert (code, out.count("\n"), err) == (0, 6, "")
    code, out, err = run(capsys, "approx", "19", "--steps", "7", "--format", "json")
    assert (code, out) == (3, "")
    assert err == "error: step limit exhausted: sqrt(19): 7 quotients asked for, 6 steps allowed\n"


def test_anth_max_steps_passes_a_rational_that_ends_inside_it(capsys, monkeypatch):
    # sqrt(16) and 7/3 = [2; 3] have one and two quotients, so a budget of 2 covers them at any --steps
    monkeypatch.setenv("ANTH_MAX_STEPS", "2")
    assert run(capsys, "approx", "16") == (0, "k=0 4/1\n", "")
    assert run(capsys, "approx", "(7+sqrt(0))/3", "--steps", "40") == (0, "k=0 2/1\nk=1 7/3\n", "")
    code, out, err = run(capsys, "approx", "(10+sqrt(0))/7")  # 10/7 = [1; 2, 3]
    assert (code, out) == (3, "")
    assert err == "error: step limit exhausted: (10+sqrt(0))/7: 8 quotients asked for, 2 steps allowed\n"


def test_approx_keeps_one_convergent_at_a_time():
    # the digits of the k-th convergent grow with k: all 5,000 at once peak near 6 MB, one at a time near 0.3 MB
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["approx", "19", "--steps", "5000", "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


def test_approx_json_keeps_one_convergent_at_a_time():
    # the JSON record is written piece by piece: all 5,000 convergents at once peak near 42 MB, one at a time near 0.3 MB
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["approx", "19", "--steps", "5000", "--format", "json", "--out", os.devnull])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000


def test_memory_error_in_a_verify_check_exits_3_not_failed(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(palindrome, "oracle_expand", exhausted)
    code, out, err = run(capsys, "verify", "54")
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("error: memory limit reached: ")
    assert "FAILED" not in out + err


def _swap_first_two_quotients(e):
    period = list(e.period)
    period[0], period[1] = period[1], period[0]
    return e._replace(period=tuple(period))


def _tamper_trail(at, value):
    def tamper(e):
        trail = list(e.trail)
        trail[at] = value(trail[at])
        return e._replace(trail=tuple(trail))

    return tamper


_VERIFY_CHECKS = (
    "recurrence identities", "state bounds and pigeonhole", "palindrome (both routes)", "omega identities",
    "oracle agreement (3 periods)", "symbolic trace agreement", "convergent quality", "pell fundamental",
    "purely periodic tail",
)


# seeded faults of sqrt(19)'s expansion, each with the message of every check it fails
TAMPERED = [
    (
        _swap_first_two_quotients,
        {
            "recurrence identities": "sum identity fails at step 2",
            "palindrome (both routes)": "period is not palindromic",
            "omega identities": "omega_2*(I_1*beta + omega_1) != beta^2 for sqrt(19)",
            "oracle agreement (3 periods)": "oracle quotients diverge from the engine",
            "symbolic trace agreement": "symbolic trace quotients diverge from the engine",
            "convergent quality": "quality identity fails at convergent 1",
            "pell fundamental": "period of sqrt(19) is not palindromic",
            "purely periodic tail": "re-expanded tail is not purely periodic with the same period",
        },
    ),
    (
        _tamper_trail(5, lambda v: v + 1),  # q_2, which is lam_3
        {
            "recurrence identities": "product identity fails at step 3",
            "omega identities": "omega_2 is not the inverse of (phi_2)* for sqrt(19)",
            "convergent quality": "quality identity fails at convergent 1",
        },
    ),
    (
        _tamper_trail(4, lambda v: v + 1),  # p_2, which is mu_2
        {
            "recurrence identities": "sum identity fails at step 2",
            "palindrome (both routes)": "quotient-level and reflection-level palindrome verdicts disagree",
            "omega identities": "omega_2 is not the inverse of (phi_2)* for sqrt(19)",
            "convergent quality": "companion identity fails at convergent 1",
        },
    ),
    (
        _tamper_trail(3, lambda v: 19),  # a lambda, set to N
        {
            "recurrence identities": "product identity fails at step 2",
            "state bounds and pigeonhole": "state bounds fail at step 2",
            "omega identities": "omega_1 is not the inverse of (phi_1)* for sqrt(19)",
            "convergent quality": "quality identity fails at convergent 0",
            "purely periodic tail": "re-expanded tail is not purely periodic with the same period",
        },
    ),
    (
        lambda e: e._replace(period=e.period * 2),  # still palindromic: its Pell pair solves x^2 - N*y^2 = 1 but is the fundamental one squared
        {
            "palindrome (both routes)": "quotient-level and reflection-level palindrome verdicts disagree",
            "symbolic trace agreement": "symbolic trace quotients diverge from the engine",
            "convergent quality": "period of 12 quotients is longer than the 6 states of the trail",
            "pell fundamental": "the full period and the centre stop give different solutions",
            "purely periodic tail": "re-expanded tail is not purely periodic with the same period",
        },
    ),
    (
        _tamper_trail(3, lambda v: 0),  # a lambda, set to 0
        {
            "recurrence identities": "product identity fails at step 2",
            "state bounds and pigeonhole": "state bounds fail at step 2",
            "omega identities": "omega_1 is not the inverse of (phi_1)* for sqrt(19)",
            "convergent quality": "quality identity fails at convergent 0",
            "purely periodic tail": "denominator must be non-zero",
        },
    ),
    (
        _tamper_trail(3, lambda v: -5),  # a lambda, made negative
        {
            "recurrence identities": "product identity fails at step 2",
            "state bounds and pigeonhole": "state bounds fail at step 2",
            "omega identities": "omega_1 is not the inverse of (phi_1)* for sqrt(19)",
            "convergent quality": "quality identity fails at convergent 0",
            "purely periodic tail": "re-expanded tail is not purely periodic with the same period",
        },
    ),
]
TAMPERED_IDS = ["swapped quotients", "mu off by one", "mu_2 off by one", "lambda set to N", "period doubled", "lambda set to 0", "lambda negative"]


@pytest.mark.parametrize("tamper, failures", TAMPERED, ids=TAMPERED_IDS)
def test_a_tampered_expansion_fails_verify(capsys, monkeypatch, tamper, failures):
    monkeypatch.setattr(cli, "expand_sqrt", lambda n, *rest: tamper(expand_sqrt(n, *rest)))
    code, out, err = run(capsys, "verify", "19")
    lines = [f"check {name}: " + (f"FAIL ({failures[name]})" if name in failures else "ok") for name in _VERIFY_CHECKS]
    assert (code, out, err) == (1, "\n".join(lines) + "\nverify 19: FAILED\n", "")


def test_verify_compares_the_period_end_convergent_with_pell(capsys, monkeypatch):
    # a Pell pair off by one: both Pell paths agree with each other, the convergents do not
    def off_by_one(source, **budget):
        (x, y), negative = pell_solutions(source, **budget)
        return (x + 1, y), negative

    monkeypatch.setattr(palindrome, "pell_solutions", off_by_one)
    code, out, err = run(capsys, "verify", "19")
    failures = {"convergent quality": "convergent 5 is not the fundamental Pell solution"}
    lines = [f"check {name}: " + (f"FAIL ({failures[name]})" if name in failures else "ok") for name in _VERIFY_CHECKS]
    assert (code, out, err) == (1, "\n".join(lines) + "\nverify 19: FAILED\n", "")


@pytest.mark.parametrize("n, k", [(19, 5), (200000089, 75909)], ids=["period 6", "odd period 37955"])
def test_verify_fails_a_pell_pair_that_is_not_fundamental(capsys, monkeypatch, n, k):
    # both Pell paths return the square of the fundamental unit, which solves x^2 - N*y^2 = 1 as well;
    # only the period-end convergent shows it, at every period length (sqrt(200000089)'s ends at 75,910)
    def squared(source, **budget):
        (x, y), negative = pell_solutions(source, **budget)
        return (x * x + n * y * y, 2 * x * y), negative

    monkeypatch.setattr(palindrome, "pell_solutions", squared)
    code, out, err = run(capsys, "verify", str(n))
    failures = {"convergent quality": f"convergent {k} is not the fundamental Pell solution"}
    lines = [f"check {name}: " + (f"FAIL ({failures[name]})" if name in failures else "ok") for name in _VERIFY_CHECKS]
    assert (code, out, err) == (1, "\n".join(lines) + f"\nverify {n}: FAILED\n", "")


def test_verify_expands_pell_from_the_trail_once(capsys, monkeypatch):
    calls = []

    def counted(source, **budget):
        calls.append(isinstance(source, Expansion))
        return pell_solutions(source, **budget)

    monkeypatch.setattr(palindrome, "pell_solutions", counted)
    assert run(capsys, "verify", "19")[0] == 0
    assert calls == [True, False]  # the trail's, then the centre stop's


def test_verify_reports_a_raising_pell_in_each_check_that_asks(capsys, monkeypatch):
    def raising(source, **budget):
        if isinstance(source, Expansion):
            raise ArithmeticError("pell from the trail fails")
        return pell_solutions(source)

    monkeypatch.setattr(palindrome, "pell_solutions", raising)
    code, out, err = run(capsys, "verify", "19")
    failures = {name: "pell from the trail fails" for name in ("convergent quality", "pell fundamental")}
    lines = [f"check {name}: " + (f"FAIL ({failures[name]})" if name in failures else "ok") for name in _VERIFY_CHECKS]
    assert (code, out, err) == (1, "\n".join(lines) + "\nverify 19: FAILED\n", "")


@pytest.mark.parametrize("n, period", [(19, 6), (54, 6), (13, 5), (2, 1)])
def test_anth_max_steps_reaches_the_verify_checks(capsys, monkeypatch, n, period):
    # a budget that the expansion's l steps fit but the oracle's 3l + 1 quotients
    # do not stops verify with exit 3 and one line, not with a failed check
    _, passed, _ = run(capsys, "verify", str(n))
    for steps in (period, 3 * period):
        monkeypatch.setenv("ANTH_MAX_STEPS", str(steps))
        assert run(capsys, "verify", str(n)) == (
            3,
            "",
            f"error: step limit exhausted: sqrt({n}): oracle agreement needs {3 * period + 1} steps, more than {steps} steps\n",
        )
    monkeypatch.setenv("ANTH_MAX_STEPS", str(3 * period + 1))
    assert run(capsys, "verify", str(n)) == (0, passed, "")


def test_verify_passes_its_step_budget_to_the_trace_the_centre_stop_and_the_tail(capsys, monkeypatch):
    budgets = {}

    def recorded(name, fn):
        def call(*args, **kwargs):
            budgets.setdefault(name, []).append(kwargs.get("max_steps", args[-1]))
            return fn(*args, **kwargs)

        return call

    for holder, name in ((palindrome, "_trace_quotients"), (palindrome, "pell_solutions"), (palindrome, "expand_surd")):
        monkeypatch.setattr(holder, name, recorded(name, getattr(holder, name)))
    monkeypatch.setenv("ANTH_MAX_STEPS", "40")
    assert run(capsys, "verify", "19")[0] == 0
    # pell_solutions(e) from the trail takes no steps; the centre stop gets the budget
    assert budgets["_trace_quotients"] == [40] and budgets["pell_solutions"][-1] == 40 and budgets["expand_surd"] == [40]


@pytest.mark.parametrize("error", [StepLimitExceeded, ResourceLimitExceeded, MemoryError])
def test_a_check_that_runs_out_of_budget_exits_3_with_one_line(capsys, monkeypatch, error):
    def exhausted(*args):
        raise error("sqrt(19): oracle out of budget")

    monkeypatch.setattr(palindrome, "oracle_expand", exhausted)
    code, out, err = run(capsys, "verify", "19")
    assert (code, out) == (3, "")
    reason = "step limit exhausted" if error is StepLimitExceeded else "memory limit reached"
    assert err == f"error: {reason}: sqrt(19): oracle out of budget\n"


def _json_reference(record: dict) -> str:
    """What the JSON writer must print for a record, by the stdlib encoder."""

    def plain(v):
        if v is None or isinstance(v, (bool, str)):
            return v
        if isinstance(v, int):
            return cli._dec(v)
        if isinstance(v, tuple):
            return {"x": cli._dec(v[0]), "y": cli._dec(v[1])}
        return [cli._dec(a) for a in v]

    fields = {}
    for key, v in record.items():
        if key == "pell":
            fields["pell_x"], fields["pell_y"] = cli._dec(v[0]), cli._dec(v[1])
        else:
            fields[key] = plain(v)
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


_RECORD_KEYS = (
    "N", "case", "distinct_logoi", "index", "input", "m", "n_max", "negative_pell", "p", "palindrome",
    "palindrome_failures", "palindromic", "period", "period_len", "period_length", "preperiod", "q",
    "quotients", "records", "terminated", "x", "y",
)  # every key a command writes, except pell, which becomes pell_x and pell_y
_edge_ints = st.sampled_from([-1, 0, 255, 256, 10**700 + 1, -(10**700), 7**6000])  # 7**6000: 5071 digits
_ints = st.one_of(_edge_ints, st.integers(-(2**70), 2**70))
_labels = st.one_of(
    st.sampled_from(["sqrt(٧/٣)", "(１+sqrt(٥))/७", 'a"b', "back\\slash", "\x00\x1f\x7f\n\t", " \ud800"]),
    st.text(),
)
_int_lists = st.one_of(
    st.lists(_ints, max_size=12),
    st.lists(st.integers(-3, 300), min_size=1, max_size=7).map(lambda xs: (xs * 100_000)[:100_000]),
)
_pairs = st.tuples(_ints, _ints)
_records = st.tuples(
    st.dictionaries(
        st.sampled_from(_RECORD_KEYS),
        st.one_of(st.none(), st.booleans(), _ints, _labels, _int_lists, _pairs),
        max_size=8,
    ),
    st.one_of(st.just({}), _pairs.map(lambda xy: {"pell": xy})),
).map(lambda parts: parts[0] | parts[1])


# No shrink phase: shrinking a failure of these large records took about 5 minutes.
@settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(_records)
def test_json_line_writes_what_json_dumps_writes(record):
    assert cli._json_line(record) == _json_reference(record)


def _mutated(forms):
    """Texts from forms, mutated by Unicode digits and inserted whitespace."""
    unicode_digits = st.sampled_from(["", "", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"])

    @st.composite
    def mutated(draw):
        text = draw(forms)
        script = draw(unicode_digits)
        if script:
            text = text.translate(str.maketrans("0123456789", script))
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2003"])) + text[at:]
        return text

    return mutated()


_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_digits = st.one_of(
    st.integers(0, 10**12).map(str),
    st.integers(0, 99).map(str),
    st.sampled_from(["0", "00", "007", "1", "4", "16"]),
    st.integers(1, 3).map(lambda k: "7" * (_STR_LIMIT + k)),  # past the int-to-str limit
)
_signed = st.tuples(st.sampled_from(["", "", "+", "-", "--"]), _digits).map("".join)


def _near_limit(share):
    """Digits, share of the int-to-str limit long: each such int parses, while the surd the spec normalizes to need not fit one str()."""
    return st.sampled_from("1379").map(lambda c: c * int(_STR_LIMIT * share))


# (0, P*Q, Q) for sqrt(P/Q), and (P*Q, D*Q*Q, Q*Q) for (P+sqrt(D))/Q when Q does not divide D - P^2
_SQRT_RATIO_NEAR_LIMIT = "sqrt({}/{}1)".format("7" * int(_STR_LIMIT * 3 / 5), "3" * int(_STR_LIMIT * 3 / 5 - 1))
_SURD_NEAR_LIMIT = "(1+sqrt({}))/{}1".format("7" * int(_STR_LIMIT * 3 / 5), "3" * int(_STR_LIMIT / 4 - 1))
# surd specs from the grammar, and integers for the commands that take N
_surd_specs = _mutated(
    st.one_of(
        _signed,
        st.builds("sqrt({})".format, _digits),
        st.builds("sqrt({}/{})".format, _digits, _digits),
        st.builds("({}+sqrt({}))/{}".format, _signed, _digits, _signed),
        st.builds("sqrt({}/{})".format, _near_limit(3 / 5), _near_limit(3 / 5)),
        st.tuples(st.integers(-9, 9), _near_limit(3 / 5), _near_limit(1 / 4))
        .filter(lambda t: (int(t[1]) - t[0] ** 2) % int(t[2]))
        .map(lambda t: "({}+sqrt({}))/{}".format(*t)),
    )
)
_n_texts = _mutated(_signed)


def _run_in_process(argv, budget):
    """main(argv) under ANTH_MAX_STEPS=budget: its exit code, stdout, stderr and whether argparse exited."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ANTH_MAX_STEPS": str(budget)}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), True
    return code, out.getvalue(), err.getvalue(), False


@settings(max_examples=150, deadline=None)
@given(_surd_specs, _n_texts, st.integers(1, 8), st.integers(1, 12), st.sampled_from(["plain", "json", "csv"]))
@example(_SQRT_RATIO_NEAR_LIMIT, "19", 1, 1, "plain")
@example(_SURD_NEAR_LIMIT, "19", 1, 1, "json")
def test_every_command_exits_0_2_or_3_with_at_most_one_error_line(spec, n, budget, steps, fmt):
    runs = [
        ["expand", spec, "--format", fmt],
        ["expand", spec, "--pell", "--negative-pell"],
        ["approx", spec, "--steps", str(steps), "--format", "json" if fmt == "json" else "plain"],
        ["approx", n],
        ["trace", n],
        ["trace", spec],
        ["sweep", n, "--format", fmt],
        ["pell", n, "--negative-pell"],
        ["verify", n],
    ]
    for argv in runs:
        code, _, err, by_argparse = _run_in_process(argv, budget)
        assert code in (0, 2, 3), argv
        lines = err.splitlines()
        if by_argparse:  # argparse rejected argv: its usage, then one error line
            assert code == 2 and lines[0].startswith("usage: anth ") and lines[-1].startswith(f"anth {argv[0]}: error: ")
        elif argv[0] == "sweep" and fmt == "csv" and code == 0:  # a CSV sweep's summary goes to stderr
            assert len(lines) == 1 and "palindrome failures" in lines[0]
        elif code == 0:
            assert lines == [], argv
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
