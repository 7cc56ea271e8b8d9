"""cli: a golden transcript of exit codes, stdout and stderr, compared byte for byte.

Each entry of goldens/cli_transcript.txt is the command line, a line with
the exit code and the sizes of stdout and stderr, then stdout and stderr
verbatim. Rewrite the file from the current code with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff: the file pins every output format, every Pell
rendering and every bad-input message of the `anth` command.
"""

import io
import pathlib
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from anthyphairesis.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "goldens" / "cli_transcript.txt"
MISSING_DIR = "no-such-dir"

_FORMATS = ("plain", "json", "csv")
_PELL_FLAGS = ([], ["--pell"], ["--negative-pell"], ["--pell", "--negative-pell"])

CASES = [
    # expand: every format, the Pell flags alone and together, odd and even periods
    *(({}, ["expand", "13", *flags, "--format", fmt]) for fmt in _FORMATS for flags in _PELL_FLAGS),
    *(({}, ["expand", "19", *flags, "--format", fmt]) for fmt in _FORMATS for flags in _PELL_FLAGS),
    # squares, sqrt(P/Q) (periodic and rational) and general surds
    *(({}, ["expand", spec, "--format", fmt]) for fmt in _FORMATS for spec in (
        "16", "1", "sqrt(9/4)", "sqrt(1/16)", "sqrt(7/3)", "(7+sqrt(54))/5",
        "(-7920+sqrt(2))/-4894", "(0+sqrt(5))/-3", "(3+sqrt(9))/2",
    )),
    ({}, ["expand", "sqrt(7/3)", "--steps", "100"]),
    # a Pell solution of 667 digits, past 640, the lowest int-to-str limit Python accepts
    ({}, ["expand", "101581", "--pell", "--negative-pell", "--format", "json"]),
    ({}, ["expand", "101581", "--pell", "--format", "csv"]),
    # Pell pairs under a label other than sqrt(N)
    *(({}, ["expand", "(0+sqrt(13))/1", "--pell", "--negative-pell", "--format", fmt]) for fmt in _FORMATS),
    *(({}, ["expand", "sqrt(19/1)", "--pell", "--format", fmt]) for fmt in _FORMATS),
    # trace
    ({}, ["trace", "54"]),
    ({}, ["trace", "2"]),
    ({}, ["trace", "54", "--golden", "goldens/trace54.txt"]),
    ({}, ["trace", "19", "--golden", "goldens/trace54.txt"]),
    # sweep: every format with and without Pell, one and two workers
    *(({}, ["sweep", "30", *flags, "--format", fmt]) for fmt in _FORMATS for flags in _PELL_FLAGS),
    *(({}, ["sweep", "30", "--pell", "--negative-pell", "--jobs", "2", "--format", fmt]) for fmt in _FORMATS),
    ({}, ["sweep", "2"]),
    ({}, ["sweep", "3", "--format", "csv"]),
    # pell and approx: every format
    *(({}, ["pell", n, *flags, "--format", fmt])
      for fmt in ("plain", "json") for n in ("13", "19", "61") for flags in ([], ["--negative-pell"])),
    ({}, ["pell", "101581", "--negative-pell"]),
    *(({}, ["approx", spec, "--format", fmt])
      for fmt in ("plain", "json") for spec in ("19", "sqrt(7/3)", "(7+sqrt(54))/5", "16", "sqrt(9/4)")),
    ({}, ["approx", "19", "--steps", "6"]),
    # verify
    ({}, ["verify", "54"]),
    ({}, ["verify", "2"]),
    # bad input: exit 2 with one line
    ({}, ["expand", "(7+sqrt(54))/5", "--pell"]),
    ({}, ["expand", "sqrt(9/4)", "--negative-pell"]),
    ({}, ["expand", "16", "--pell"]),
    ({}, ["expand", "1", "--negative-pell"]),
    ({}, ["expand", "0", "--pell"]),
    ({}, ["expand", "0"]),
    ({}, ["approx", "0"]),
    ({}, ["expand", "sqrt(5/0)"]),
    ({}, ["expand", "(1+sqrt(2))/0"]),
    ({}, ["expand", "-5"]),
    ({}, ["approx", "2+sqrt(3)"]),
    ({}, ["trace", "16"]),
    ({}, ["trace", "1"]),
    ({}, ["trace", "-4"]),
    ({}, ["sweep", "1"]),
    ({}, ["sweep", "-10", "--format", "csv"]),
    ({}, ["pell", "9"]),
    ({}, ["pell", "1", "--format", "json"]),
    ({}, ["pell", "-7"]),
    ({}, ["verify", "25"]),
    ({}, ["verify", "0"]),
    ({"ANTH_MAX_STEPS": "abc"}, ["expand", "19"]),
    ({}, ["expand", "19", "--out", f"{MISSING_DIR}/x.txt"]),
    ({}, ["sweep", "20", "--out", f"{MISSING_DIR}/x.csv"]),
    ({}, ["trace", "54", "--golden", f"{MISSING_DIR}/g.txt"]),
    # step budgets: exit 3
    ({}, ["expand", "54", "--steps", "3"]),
    ({"ANTH_MAX_STEPS": "2"}, ["expand", "54"]),
    ({}, ["trace", "54", "--steps", "2"]),
    ({}, ["expand", "(-7920+sqrt(2))/-4894", "--steps", "10"]),
]


def command_line(env, argv) -> str:
    return shlex.join([f"{k}={v}" for k, v in env.items()] + ["anth", *argv])


def run(env, argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of argv run through cli.main from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        mp.delenv("ANTH_MAX_STEPS", raising=False)
        for key, value in env.items():
            mp.setenv(key, value)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def entry(env, argv) -> str:
    """argv's transcript entry."""
    code, out, err = run(env, argv)
    return f"$ {command_line(env, argv)}\nexit {code}, stdout {len(out)} chars, stderr {len(err)} chars\n{out}{err}"


_SIZES = re.compile(r"exit (\S+), stdout (\d+) chars, stderr (\d+) chars")


def golden_entries() -> dict[str, str]:
    """The golden file's entries by command line."""
    text = GOLDEN.read_text(encoding="utf-8")
    entries, i = {}, 0
    while i < len(text):
        head_end = text.index("\n", i)
        sizes_end = text.index("\n", head_end + 1)
        sizes = _SIZES.fullmatch(text[head_end + 1 : sizes_end])
        end = sizes_end + 1 + int(sizes[2]) + int(sizes[3])
        entries[text[i + 2 : head_end]] = text[i:end]
        i = end
    return entries


def test_transcript_lists_every_case_once():
    lines = [command_line(env, argv) for env, argv in CASES]
    assert len(set(lines)) == len(lines)
    assert list(golden_entries()) == lines
    assert not (ROOT / MISSING_DIR).exists()


@pytest.mark.parametrize("env, argv", CASES, ids=[command_line(env, argv) for env, argv in CASES])
def test_cli_matches_the_golden_transcript(env, argv):
    assert entry(env, argv) == golden_entries()[command_line(env, argv)]


def golden_run(text: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one golden entry."""
    _, sizes, body = text.split("\n", 2)
    sizes = _SIZES.fullmatch(sizes)
    return int(sizes[1]), body[: int(sizes[2])], body[int(sizes[2]) :]


def _succeeding():
    """The cases whose golden entry exits 0; none while the golden file is missing."""
    entries = golden_entries() if GOLDEN.exists() else {}
    return [(env, argv) for env, argv in CASES
            if command_line(env, argv) in entries and golden_run(entries[command_line(env, argv)])[0] == 0]


SUCCEEDING = _succeeding()


@pytest.mark.parametrize("env, argv", SUCCEEDING, ids=[command_line(env, argv) for env, argv in SUCCEEDING])
def test_out_file_holds_the_transcript_stdout(env, argv, tmp_path):
    # --out FILE moves stdout into FILE byte for byte; the exit code and stderr stay
    code, out, err = golden_run(golden_entries()[command_line(env, argv)])
    target = tmp_path / "out"
    assert run(env, [*argv, "--out", str(target)]) == (code, "", err)
    assert target.read_bytes() == out.encode("utf-8")


def test_a_golden_mismatch_writes_no_out_file(tmp_path):
    target = tmp_path / "out"
    argv = ["trace", "19", "--golden", "goldens/trace54.txt", "--out", str(target)]
    assert run({}, argv) == (4, "", "golden mismatch against goldens/trace54.txt\n")
    assert not target.exists()


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(entry(env, argv) for env, argv in CASES)
    sys.exit(0)
