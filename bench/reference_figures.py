"""Reference figures that the benchmark does not gate; prints a Markdown table.

    python3 bench/reference_figures.py

Re-measures the baseline table of ROADMAP.md, the --jobs 2 scaling of
`anth sweep 20000` (the two settings alternated three times), and the wall
time of the tier-1 test suite. Wall times are raw, not scaled: they move
with the load of the machine, which is why none of them is gated.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "results"
sys.path.insert(0, str(SRC))

from anthyphairesis import cli, engine, surd  # noqa: E402
from anthyphairesis.bookx import SurdLine, euler_trace  # noqa: E402
from anthyphairesis.convergents import pell_fundamental  # noqa: E402
from anthyphairesis.palindrome import omega_sequence  # noqa: E402


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def child(argv: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB of the child and its workers) of one command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):  # pytest's 1 means failed tests, still timed
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024


def sweep(n_max: int, jobs: int) -> tuple[float, float]:
    OUT.mkdir(exist_ok=True)
    argv = [sys.executable, "-m", "anthyphairesis.cli", "sweep", str(n_max), "--format", "csv"]
    return child(argv + ["--jobs", str(jobs), "--out", str(OUT / f"sweep{n_max}-jobs{jobs}.csv")])


def each(fn, values) -> None:
    for v in values:
        fn(v)


def main() -> int:
    # Children first: a child's ru_maxrss starts from this process's size at fork.
    table = []
    for jobs in (1, 2):
        wall, rss = sweep(100_000, jobs)
        table.append((f"`anth sweep 100000 --format csv`, `--jobs {jobs}`", f"{wall:.2f}", f"{rss:.0f}"))
    same = (OUT / "sweep100000-jobs1.csv").read_bytes() == (OUT / "sweep100000-jobs2.csv").read_bytes()
    walls = {1: [], 2: []}
    for _ in range(3):
        for jobs in (1, 2):
            walls[jobs].append(sweep(20_000, jobs)[0])
    for jobs, seconds in walls.items():
        table.append((f"`anth sweep 20000`, `--jobs {jobs}`, 3 runs alternated", f"{min(seconds):.2f}–{max(seconds):.2f}", ""))
    tests = child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"])[0]
    table.append(("tier-1 suite (`pytest tests`)", f"{tests:.1f}", ""))

    nonsquares = [n for n in range(2, 10**5 + 1) if surd.isqrt(n) ** 2 != n]
    small = [n for n in nonsquares if n <= 1000]
    expansions = {n: engine.expand_sqrt(n) for n in small}
    rows = [
        ("`expand_sqrt` for every N ≤ 1e5", lambda: each(engine.expand_sqrt, nonsquares)),
        ("`surd.isqrt` on 0..1e5-1", lambda: each(surd.isqrt, range(10**5))),
        ("1e4 `SurdLine` constructions", lambda: each(lambda k: SurdLine(Fraction(1, k), -k, 46), range(1, 10**4 + 1))),
        ("`omega_sequence`, N ≤ 1000", lambda: each(lambda n: omega_sequence(expansions[n], n), small)),
        ("`euler_trace`, N ≤ 1000", lambda: each(euler_trace, small)),
        ("sweep records with Pell, N ≤ 1e4", lambda: each(cli._sweep_record, [(n, True, False) for n in range(2, 10**4 + 1)])),
        ("`pell_fundamental(1e10+3)`", lambda: pell_fundamental(10**10 + 3)),
    ]
    table[:0] = [(what, f"{timed(fn):.2f}", "") for what, fn in rows]

    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs; sweep outputs of --jobs 1 and 2 identical: {same}\n")
    print("| What | Time (s) | Peak RSS (MB) |")
    print("|---|---|---|")
    for row in table:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
