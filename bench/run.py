"""Benchmark for anthyphairesis: one command, four single-process workloads.

    python3 bench/run.py --workload {atlas,pell_long,proof,surds} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from its
src/ directory. The process imports anthyphairesis.cli once and calls
cli.main once per operation, capturing stdout and the exit code; an
exception or a non-zero exit code is a failed operation. A run repeats
whole rounds of the same operations until S seconds have passed, so the
share of failed operations is the same in every run. Python's default
int-to-str limit stays in force while operations are timed; outputs are
checked afterwards, with the limit lifted, against checks.py.

Every duration is scaled by how fast the machine ran a fixed calibration
loop next to it (see calibrate()). With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics; with --trace 1 the first
half of the run is untraced, then the public functions of every module
are wrapped (tracing.py) and the second half gives the per-layer metrics
and the tracing overhead. Result and span files go to bench/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable, Optional

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN = ROOT / "goldens" / "trace54.txt"

SETUP_SAMPLES = 11
SPAN_CAP = 50_000

# Every workload draws its inputs in strata and, inside a stratum, keeps
# the first seeded candidate whose period length is a fixed share of
# sqrt(radicand) (nearest of TRIES candidates otherwise). That pins the
# work of each stratum, so a round costs about the same for every seed.
TRIES = 64

ATLAS_N_MAX = (2_900, 3_100)

PELL_DRAWS = 142  # one per log-stratum of PELL_RANGE
PELL_RANGE = (10**5, 10**8.5)
PELL_PERIOD_BAND = (0.35, 0.45)  # period / sqrt(N): inside the longest quarter of periods
PELL_DIGIT_LIMIT = 4300
# Non-square N whose fundamental x has more than 4300 digits. The CLI
# renders Pell solutions with str() under Python's int-to-str limit, so
# these fail (exit 2) on every run; they stay in every round so the
# fault shows at a fixed share whatever the seed. Seeded draws above the
# limit are redrawn, since they would fail on some seeds only.
PELL_OVER_LIMIT = (92590649, 150008437, 130903966, 225039497, 223392157, 207533894, 113298511, 148693591)

PROOF_DRAWS = 60  # one per stratum of PROOF_RANGE
PROOF_RANGE = (4, 3000)
PROOF_PERIOD_BAND = (0.4, 0.6)
PROOF_FIXED = (2, 3, 54)  # verify 2 and verify 3 fail: pigeonhole bound 1 and 2

SURD_DRAWS = 150  # of each form, one per log-stratum of SURD_RADICAND
SURD_RADICAND = (10, 10**8)  # radicand after normalization
SURD_STEP_BAND = (0.25, 0.35)  # quotients to the first repeat / sqrt(radicand)
SURD_RATIONAL_EVERY = 10  # every tenth input of each form is rational


@dataclass
class Op:
    argv: list[str]
    item: object  # an item is complete when every op that names it succeeded
    weight: float  # work items the op's item stands for
    check: Callable[[str], Optional[str]]  # None when the output is right, else why not
    known_fault: bool = False  # fails by a fault of the program named in README.md


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int, strata: int) -> int:
    u = (stratum + rng.random()) / strata
    return int(lo * (hi / lo) ** u)


def _pick(draw, ratio, band, ok=lambda c: True):
    """First drawn candidate whose ratio lies in band and passes ok, else the nearest one."""
    lo, hi = band
    near = []
    for _ in range(TRIES):
        cand = draw()
        r = ratio(cand)
        if r is None:
            continue
        gap = max(lo - r, r - hi, 0.0)
        if gap == 0.0 and ok(cand):
            return cand
        near.append((gap, cand))
    for _, cand in sorted(near, key=lambda t: t[0]):
        if ok(cand):
            return cand
    raise RuntimeError("no admissible candidate in a stratum")


def _period_ratio(n: int) -> Optional[float]:
    return None if _is_square(n) else len(checks.sqrt_period(n)[1]) / n**0.5


def _expect(expected: Callable[[], str], name: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if out == expected() else f"{name}: output differs from the reference"


def atlas_ops(rng: random.Random) -> list[Op]:
    n_max = rng.randint(*ATLAS_N_MAX)
    items = n_max - 1 - (isqrt(n_max) - 1)
    argv = ["sweep", str(n_max), "--format", "csv", "--jobs", "1"]
    return [Op(argv, 0, items, _expect(lambda: checks.expected_atlas(n_max), f"sweep {n_max}"))]


def pell_ops(rng: random.Random) -> list[Op]:
    limit = 10**PELL_DIGIT_LIMIT
    ns = [
        _pick(
            lambda: _log_uniform(rng, *PELL_RANGE, i, PELL_DRAWS),
            _period_ratio,
            PELL_PERIOD_BAND,
            ok=lambda n: checks.pell(n)[0][0] < limit,
        )
        for i in range(PELL_DRAWS)
    ]
    ops = []
    for n in ns + list(PELL_OVER_LIMIT):
        argv = ["pell", str(n), "--negative-pell", "--format", "json"]
        check = _expect(lambda n=n: checks.expected_pell(n), f"pell {n}")
        ops.append(Op(argv, n, 1, check, known_fault=n in PELL_OVER_LIMIT))
    return ops


def proof_ops(rng: random.Random) -> list[Op]:
    lo, hi = PROOF_RANGE
    width = (hi - lo) / PROOF_DRAWS
    ns = list(PROOF_FIXED)
    for i in range(PROOF_DRAWS):
        ns.append(
            _pick(
                lambda: lo + int((i + rng.random()) * width),
                _period_ratio,
                PROOF_PERIOD_BAND,
                ok=lambda n: n not in PROOF_FIXED,
            )
        )
    ops = []
    for n in ns:
        verify = Op(["verify", str(n)], n, 1, lambda out, n=n: checks.check_verify(n, out), known_fault=n in (2, 3))
        trace = Op(["trace", str(n)], n, 1, lambda out, n=n: _check_trace(n, out))
        ops += [verify, trace]
    return ops


def _check_trace(n: int, out: str) -> Optional[str]:
    if n == 54 and out != GOLDEN.read_text(encoding="utf-8"):
        return "trace 54: output differs from goldens/trace54.txt"
    return checks.check_trace(n, out)


def surd_ops(rng: random.Random) -> list[Op]:
    """(P+sqrt(D))/Q and sqrt(P/Q) inputs whose radicand, once normalized, is near a target."""
    ops = []
    for form in ("general", "ratio"):
        for i in range(SURD_DRAWS):
            target = _log_uniform(rng, *SURD_RADICAND, i, SURD_DRAWS)
            if i % SURD_RATIONAL_EVERY == 0:
                p, d, q = _rational_surd(rng, form, target)
            else:
                draw = lambda: _irrational_surd(rng, form, target)
                p, d, q = _pick(draw, lambda c: _step_ratio(c, target), SURD_STEP_BAND)
            label = f"({p}+sqrt({d}))/{q}" if form == "general" else f"sqrt({d // q}/{q})"
            ops.append(_surd_op(label, p, d, q))
    return ops


def _irrational_surd(rng: random.Random, form: str, target: int) -> tuple[int, int, int]:
    """A (p, d, q) surd whose radicand, scaled by q^2 if not normalized, is in [target/2, target]."""
    q = _log_uniform(rng, 1, isqrt(target // 4) + 1, 0, 1)
    if form == "ratio":  # sqrt(P/Q) = sqrt(P*Q)/Q is normalized as drawn
        num = rng.randint(max(1, target // q // 2), max(1, target // q))
        return 0, num * q, q
    d = rng.randint(max(2, target // (q * q) // 2), max(2, target // (q * q)))
    r = isqrt(d)
    p = rng.randint(-r - 20, r + 20)
    q *= rng.choice((-1, 1))
    if p == 0 and q == 1:
        q = -1
    return p, d, q


def _rational_surd(rng: random.Random, form: str, target: int) -> tuple[int, int, int]:
    r = isqrt(target)
    if form == "ratio":
        a, b, k = rng.randint(1, 60), rng.randint(1, 60), rng.randint(1, 30)
        return 0, a * a * k * b * b * k, b * b * k
    return rng.randint(-r, r), r * r, rng.choice((-1, 1)) * rng.randint(1, 60)


def _step_ratio(surd: tuple[int, int, int], target: int) -> Optional[float]:
    got = checks.surd_quotients(*surd)
    if isinstance(got, list):
        return None
    pre, period = got
    return (len(pre) + len(period)) / target**0.5


def _surd_op(label: str, p: int, d: int, q: int) -> Op:
    argv = ["expand", label, "--format", "json"]
    return Op(argv, label, 1, _expect(lambda: checks.expected_surd(label, p, d, q), f"expand {label}"))


WORKLOADS = {"atlas": atlas_ops, "pell_long": pell_ops, "proof": proof_ops, "surds": surd_ops}


def calibrate() -> float:
    """Seconds this machine takes right now for a fixed mix of the benchmark's own work.

    The host this runs on is shared, and its speed was seen to swing by a
    factor of two within minutes. Every timing is scaled by CAL_REF_S over
    the calibrations measured just before and after it, so the metrics
    read in seconds of a machine as fast as the reference one and move with
    the program, not with the neighbours. The mix has integer recurrences,
    big-integer products, Fraction sums, string rendering and a sort and
    dict over a few MB of tuples; it uses no code of anthyphairesis.
    """
    start = time.perf_counter()
    for n in CAL_NS:
        checks.sqrt_period(n)
    checks.pell(CAL_PELL_N)
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i, i + 7)
    json.dumps([str(v) for v in range(1500)])
    rows = sorted((v * 7919 % 12007, v, str(v)) for v in range(12000))
    index = {row[1]: row for row in rows}
    sum(index[v][0] for v in range(0, 12000, 3))
    return time.perf_counter() - start


CAL_NS = [n for n in range(20_000, 20_200) if not _is_square(n)]
CAL_PELL_N = 1_000_003
CAL_REF_S = 0.025  # calibrate() on the reference machine; see README.md
SEGMENT_NS = 300_000_000  # op time between two calibrations


class Clock:
    """Scales raw durations by CAL_REF_S / the mean of the calibrations around them."""

    def __init__(self):
        self.last = calibrate()
        self.factors: list[float] = []

    def next_factor(self) -> float:
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


def measure_setup(clock: Clock) -> tuple[float, float]:
    """Median (scaled, raw) seconds from starting an interpreter until anthyphairesis.cli is imported."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); import anthyphairesis.cli; print(time.monotonic_ns())"
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60, check=True
        )
        raw.append((int(done.stdout) - start) / 1e9)
        scaled.append(raw[-1] * clock.next_factor())
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Times whole rounds of operations and keeps the first round's outputs."""

    def __init__(self, cli, ops: list[Op], clock: Clock):
        self.cli = cli
        self.ops = ops
        self.clock = clock
        self.first: list[tuple[Optional[int], str, str]] = []
        self.durations_ns: list[float] = []  # scaled, every op of every round
        self.round_ns: list[float] = []  # scaled
        self.raw_round_ns: list[int] = []
        self.unstable: list[str] = []

    def run_round(self, on_op: Callable[[int], None] = lambda i: None) -> None:
        scaled: list[float] = []
        segment: list[int] = []
        raw = 0
        for i, op in enumerate(self.ops):
            on_op(i)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter_ns()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(op.argv)
            except Exception as exc:  # an exception is a failed operation
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            segment.append(time.perf_counter_ns() - start)
            result = (code, out.getvalue(), err.getvalue())
            if not self.round_ns:
                self.first.append(result)
            elif result[:2] != self.first[i][:2]:
                self.unstable.append(" ".join(op.argv))
            if sum(segment) >= SEGMENT_NS or i == len(self.ops) - 1:
                factor = self.clock.next_factor()
                scaled += [ns * factor for ns in segment]
                raw += sum(segment)
                segment = []
        self.durations_ns += scaled
        self.round_ns.append(sum(scaled))
        self.raw_round_ns.append(raw)

    def run_for(self, seconds: float, on_op: Callable[[int], None] = lambda i: None) -> None:
        """Whole rounds until `seconds` have passed; at least one."""
        started = time.perf_counter()
        while True:
            self.run_round(on_op)
            if time.perf_counter() - started >= seconds:
                return

    def verdict(self) -> tuple[bool, int, float, list[str]]:
        """(correct, failed per round, items per round, problems) from the first round's outputs."""
        problems = [f"output changed between rounds: {argv}" for argv in self.unstable]
        failed = 0
        done: dict[object, bool] = {}
        for op, (code, out, err) in zip(self.ops, self.first):
            ok = code == 0
            if not ok:
                failed += 1
                if not op.known_fault:
                    problems.append(f"unexpected failure (exit {code}): {' '.join(op.argv)}: {err.strip()[-200:]}")
            else:
                why = op.check(out)
                if why is not None:
                    problems.append(why)
                    ok = False
            done[op.item] = done.get(op.item, True) and ok
        weights = {op.item: op.weight for op in self.ops}
        items = sum(weights[item] for item, ok in done.items() if ok)
        return not problems, failed, items, problems


def _decile(values: list[float], k: int) -> float:
    return statistics.quantiles(values, n=10)[k - 1] if len(values) > 1 else float(values[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anthyphairesis benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anthyphairesis" / "cli.py").is_file():
        print(f"error: no anthyphairesis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anthyphairesis.cli as cli

    clock = Clock()
    setup_s, raw_setup_s = measure_setup(clock)
    ops = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    runner = Runner(cli, ops, clock)

    tracer = None
    if args.trace:  # the first half untraced, to measure the tracing overhead against
        import tracing

        runner.run_for(args.seconds / 2)
        untraced = len(runner.round_ns)
        tracer = tracing.Tracer(SPAN_CAP)
        tracer.install()
        runner.run_for(args.seconds / 2, tracer.start_op)
    else:
        runner.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sys.set_int_max_str_digits(0)  # the checks need the exact big integers
    correct, failed, items, problems = runner.verdict()
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    rounds = len(runner.round_ns)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (items / (statistics.median(runner.round_ns) / 1e9), "1/s"),
            "latency_p50_ms": (_decile(runner.durations_ns, 5) / 1e6, "ms"),
            "latency_p90_ms": (_decile(runner.durations_ns, 9) / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = runner.round_ns[untraced:]
        factor = sum(traced) / sum(runner.raw_round_ns[untraced:])
        metrics = layer_metrics(tracer, len(traced), factor)
        overhead = statistics.median(traced) / statistics.median(runner.round_ns[:untraced]) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")

    result = {
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": rounds * failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    unscaled = {
        "setup_s": raw_setup_s,
        "round_s": [ns / 1e9 for ns in runner.raw_round_ns],
        "speed_factors": clock.factors,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "unscaled": unscaled}, fh)
    print(line)
    return 0


LAYER_TIMES = (
    "cli.main",
    "engine.expand_sqrt",
    "engine.expand_surd",
    "engine.increment_factors",
    "palindrome.verify_palindrome",
    "palindrome.period_stats",
    "palindrome.omega_sequence",
    "bookx.euler_trace",
    "bookx.render_trace",
    "bookx.line_mul",
    "convergents.pell_fundamental",
    "convergents.pell_negative",
    "convergents.convergents",
    "oracle.oracle_expand",
    "surd.isqrt",
    "surd.floor_surd",
)
LAYER_CALLS = ("engine.expand_sqrt", "engine.expand_surd", "bookx.line_mul", "surd.isqrt")


def layer_metrics(tracer, rounds: int, factor: float) -> dict[str, tuple[float, str]]:
    """Per traced round: scaled self seconds and call counts, plus ns per quotient of expand_sqrt."""
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.self_s"] = (tracer.stats[name][2] * factor / 1e9 / rounds, "s")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.stats[name][0] / rounds, "count")
    _, _, self_ns, quotients = tracer.stats["engine.expand_sqrt"]
    metrics["engine.expand_sqrt.ns_per_quotient"] = (self_ns * factor / quotients if quotients else 0.0, "ns")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
