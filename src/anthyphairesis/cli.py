"""Command line front end: expand, trace, sweep, pell, approx, verify.

Exit codes: 0 success, 2 unparseable input, 3 step-limit exhaustion,
4 golden-file mismatch, 5 palindrome failure during a sweep. The
environment variable ANTH_MAX_STEPS overrides the default step limit
wherever --steps is not given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import multiprocessing
import os
import re
import sys
from typing import Optional

from .bookx import euler_trace, render_trace
from .convergents import convergents, pell_solutions
from .engine import (
    Expansion,
    StepLimit,
    StepLimitExceeded,
    expand_sqrt,
    expand_surd,
    pigeonhole_bound,
)
from .oracle import oracle_expand
from .palindrome import omega_sequence, period_stats, verify_palindrome
from .surd import QuadraticSurd, floor_surd, isqrt

__all__ = ["main", "parse_surd_spec", "SurdSpecError"]


class SurdSpecError(ValueError):
    pass


_INT_RE = re.compile(r"^[+-]?\d+$")
_SQRT_RE = re.compile(r"^sqrt\((\d+)(?:/(\d+))?\)$")
_SURD_RE = re.compile(r"^\(([+-]?\d+)\+sqrt\((\d+)\)\)/([+-]?\d+)$")


def _parse_int(digits: str, text: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than Python's int-to-str limit allows
        raise SurdSpecError(f"{exc} in {text!r}") from exc


def parse_surd_spec(text: str) -> QuadraticSurd:
    """Parse 'N', 'sqrt(P/Q)' or '(P+sqrt(D))/Q' (whitespace-insensitive)."""
    compact = re.sub(r"\s+", "", text)
    m = _INT_RE.match(compact)
    if m:
        n = _parse_int(compact, text)
        if n < 0:
            raise SurdSpecError(f"negative radicand in {text!r}")
        return QuadraticSurd.sqrt_of(n)
    m = _SQRT_RE.match(compact)
    if m:
        num = _parse_int(m.group(1), text)
        den = _parse_int(m.group(2), text) if m.group(2) else 1
        if den == 0:
            raise SurdSpecError(f"zero denominator in {text!r}")
        return QuadraticSurd.sqrt_of_rational(num, den)
    m = _SURD_RE.match(compact)
    if m:
        p, d, q = (_parse_int(g, text) for g in m.groups())
        if q == 0:
            raise SurdSpecError(f"zero denominator in {text!r}")
        return QuadraticSurd(p, d, q)
    raise SurdSpecError(f"cannot parse surd spec {text!r}")


def _canonical_input(s: QuadraticSurd, original: str) -> str:
    compact = re.sub(r"\s+", "", original)
    if _INT_RE.match(compact):
        return f"sqrt({compact})"
    return compact


def _step_limit(args) -> StepLimit:
    if getattr(args, "steps", None) is not None:
        return StepLimit(max_steps=args.steps)
    env = os.environ.get("ANTH_MAX_STEPS")
    if env is not None:
        try:
            return StepLimit(max_steps=int(env))
        except ValueError as exc:
            raise SurdSpecError(f"ANTH_MAX_STEPS is not an integer: {env!r}") from exc
    return StepLimit()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_STR_SAFE_BITS = 2000  # under 640 digits, the lowest int-to-str limit Python accepts


def _dec(n: int) -> str:
    """Decimal digits of an exact integer, whatever Python's int-to-str limit is.

    Integers too long for one str() call are split at a power of ten into
    halves, rendered separately and joined, so output never hits the limit
    (sys.set_int_max_str_digits), which stays in force for parsing input.
    """
    if n.bit_length() <= _STR_SAFE_BITS:
        return str(n)
    if n < 0:
        return "-" + _dec(-n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits, so 10**k < n
    high, low = divmod(n, 10**k)
    return _dec(high) + _dec(low).zfill(k)


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _fmt_quotients(preperiod, period) -> str:
    body = ",".join(map(_dec, period))
    if preperiod:
        head = ",".join(map(_dec, preperiod))
        return f"[{head}; ({body})]"
    return f"[({body})]"


_CSV_HEADER = ["N", "m", "period_len", "palindrome", "case", "distinct_logoi", "pell_x", "pell_y"]


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def _is_pure_sqrt(s: QuadraticSurd) -> bool:
    return s.p == 0 and s.q >= 1


def _is_sqrt_int(s: QuadraticSurd) -> bool:
    return s.p == 0 and s.q == 1


def _expand(target: QuadraticSurd, limit: StepLimit = StepLimit()) -> Expansion:
    if not _is_sqrt_int(target):
        return expand_surd(target, limit)
    if target.d == 0:
        raise SurdSpecError("N must be positive")
    return expand_sqrt(target.d, limit)


def _pell_text(pair: Optional[tuple[int, int]]) -> str:
    return "none" if pair is None else f"({_dec(pair[0])},{_dec(pair[1])})"


def _pell_json(pair: Optional[tuple[int, int]]) -> Optional[dict]:
    return None if pair is None else {"x": _dec(pair[0]), "y": _dec(pair[1])}


def cmd_expand(args) -> int:
    target = parse_surd_spec(args.input)
    label = _canonical_input(target, args.input)
    limit = _step_limit(args)
    if (args.pell or args.negative_pell) and not _is_sqrt_int(target):
        print("error: Pell solutions require a plain integer radicand", file=sys.stderr)
        return 2

    e = _expand(target, limit)
    if e.terminated and (args.pell or args.negative_pell):
        print(f"error: Pell needs a non-square N >= 2, got {_dec(target.d)}", file=sys.stderr)
        return 2

    if e.terminated:
        quots = list(e.preperiod)
        if args.format == "json":
            record = {
                "input": label,
                "terminated": True,
                "quotients": [_dec(q) for q in quots],
            }
            _emit(_json_line(record) + "\n", args.out)
        elif args.format == "csv":
            row = [label, _dec(quots[0]), "0", "", "", "", "", ""]
            _emit(_csv_text([row]), args.out)
        else:
            _emit(f"rational: [{', '.join(map(_dec, quots))}]\n", args.out)
        return 0

    palindrome = None
    stats = period_stats(e)
    m = floor_surd(target)
    if _is_pure_sqrt(target) and m >= 1:
        palindrome = verify_palindrome(e, m)

    pell = negative = None
    if args.pell or args.negative_pell:
        pell, negative = pell_solutions(target.d, e)

    if args.format == "json":
        record = {
            "input": label,
            "terminated": False,
            "preperiod": [_dec(q) for q in e.preperiod],
            "period": [_dec(q) for q in e.period],
            "period_length": str(len(e.period)),
            "palindromic": None if palindrome is None else palindrome.holds,
            "case": None if palindrome is None else palindrome.case,
            "distinct_logoi": str(stats.distinct_logoi),
        }
        if args.pell:
            record["pell_x"], record["pell_y"] = _dec(pell[0]), _dec(pell[1])
        if args.negative_pell:
            record["negative_pell"] = _pell_json(negative)
        _emit(_json_line(record) + "\n", args.out)
    elif args.format == "csv":
        row = [
            label,
            _dec(m),
            str(len(e.period)),
            "" if palindrome is None else ("yes" if palindrome.holds else "no"),
            "" if palindrome is None or palindrome.case is None else palindrome.case,
            str(stats.distinct_logoi),
            "" if not args.pell else _dec(pell[0]),
            "" if not args.pell else _dec(pell[1]),
        ]
        _emit(_csv_text([row]), args.out)
    else:
        verdict = "n/a" if palindrome is None else ("yes" if palindrome.holds else "no")
        line = f"{label} = {_fmt_quotients(e.preperiod, e.period)} palindromic={verdict}"
        if args.pell:
            line += f" pell={_pell_text(pell)}"
        if args.negative_pell:
            line += f" negative_pell={_pell_text(negative)}"
        _emit(line + "\n", args.out)
    return 0


def cmd_trace(args) -> int:
    n = args.N
    if n < 2 or isqrt(n) ** 2 == n:
        print(f"error: trace needs a non-square N >= 2, got {n}", file=sys.stderr)
        return 2
    limit = _step_limit(args)
    steps = euler_trace(n, max_steps=limit.max_steps)
    text = render_trace(steps, n)
    if args.golden:
        with open(args.golden, encoding="utf-8") as fh:
            expected = fh.read()
        if text != expected:
            print(f"golden mismatch against {args.golden}", file=sys.stderr)
            return 4
    _emit(text, args.out)
    return 0


def _sweep_record(task: tuple[int, bool, bool]) -> Optional[dict]:
    n, want_pell, want_negative = task
    m = isqrt(n)
    if m * m == n:
        return None
    e = expand_sqrt(n)
    report = verify_palindrome(e, m)
    stats = period_stats(e)
    rec = {
        "N": n,
        "m": m,
        "period_len": stats.period_length,
        "palindrome": report.holds,
        "case": report.case,
        "distinct_logoi": stats.distinct_logoi,
    }
    if want_pell or want_negative:
        rec["pell"], rec["negative"] = pell_solutions(n, e)
    return rec


def cmd_sweep(args) -> int:
    if args.n_max < 2:
        print("error: sweep needs N_max >= 2", file=sys.stderr)
        return 2
    tasks = [(n, args.pell, args.negative_pell) for n in range(2, args.n_max + 1)]
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_sweep_record, tasks, chunksize=250)
    else:
        results = [_sweep_record(t) for t in tasks]
    records = [r for r in results if r is not None]
    failures = sum(1 for r in records if not r["palindrome"])

    if args.format == "csv":
        rows = []
        for r in records:
            rows.append(
                [
                    str(r["N"]),
                    str(r["m"]),
                    str(r["period_len"]),
                    "yes" if r["palindrome"] else "no",
                    r["case"] or "",
                    str(r["distinct_logoi"]),
                    _dec(r["pell"][0]) if args.pell else "",
                    _dec(r["pell"][1]) if args.pell else "",
                ]
            )
        _emit(_csv_text(rows), args.out)
        print(
            f"{len(records)} non-squares <= {args.n_max}, {failures} palindrome failures",
            file=sys.stderr,
        )
    elif args.format == "json":
        lines = []
        for r in records:
            rec = {
                "N": str(r["N"]),
                "m": str(r["m"]),
                "period_len": str(r["period_len"]),
                "palindrome": r["palindrome"],
                "case": r["case"],
                "distinct_logoi": str(r["distinct_logoi"]),
            }
            if args.pell:
                rec["pell_x"], rec["pell_y"] = _dec(r["pell"][0]), _dec(r["pell"][1])
            if args.negative_pell:
                rec["negative_pell"] = _pell_json(r["negative"])
            lines.append(_json_line(rec))
        summary = {
            "n_max": str(args.n_max),
            "records": str(len(records)),
            "palindrome_failures": str(failures),
        }
        lines.append(_json_line(summary))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = []
        for r in records:
            line = (
                f"N={r['N']} m={r['m']} period_len={r['period_len']}"
                f" palindrome={'yes' if r['palindrome'] else 'no'}"
                f" case={r['case']} distinct_logoi={r['distinct_logoi']}"
            )
            if args.pell:
                line += f" pell={_pell_text(r['pell'])}"
            if args.negative_pell:
                line += f" negative_pell={_pell_text(r['negative'])}"
            lines.append(line)
        lines.append(
            f"# {len(records)} non-squares <= {args.n_max}, {failures} palindrome failures"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 5 if failures else 0


def cmd_pell(args) -> int:
    n = args.N
    if n < 2 or isqrt(n) ** 2 == n:
        print(f"error: Pell needs a non-square N >= 2, got {n}", file=sys.stderr)
        return 2
    (x, y), negative = pell_solutions(n, expand_sqrt(n))
    if args.format == "json":
        record = {"N": _dec(n), "x": _dec(x), "y": _dec(y)}
        if args.negative_pell:
            record["negative_pell"] = _pell_json(negative)
        _emit(_json_line(record) + "\n", args.out)
    else:
        line = f"pell({_dec(n)}): x={_dec(x)} y={_dec(y)}"
        if args.negative_pell:
            line += f" negative={_pell_text(negative)}"
        _emit(line + "\n", args.out)
    return 0


def cmd_approx(args) -> int:
    target = parse_surd_spec(args.input)
    label = _canonical_input(target, args.input)
    count = args.steps if args.steps is not None else 8
    cs = convergents(_expand(target), count)
    if args.format == "json":
        record = {
            "input": label,
            "convergents": [{"index": str(c.index), "p": _dec(c.p), "q": _dec(c.q)} for c in cs],
        }
        _emit(_json_line(record) + "\n", args.out)
    else:
        lines = [f"k={c.index} {_dec(c.p)}/{_dec(c.q)}" for c in cs]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    n = args.N
    if n < 2 or isqrt(n) ** 2 == n:
        print(f"error: verify needs a non-square N >= 2, got {n}", file=sys.stderr)
        return 2
    lines = []
    ok = True

    def check(name: str, fn) -> None:
        nonlocal ok
        try:
            fn()
            lines.append(f"check {name}: ok")
        except Exception as exc:  # report and keep going
            ok = False
            lines.append(f"check {name}: FAIL ({exc})")

    m = isqrt(n)
    e = expand_sqrt(n)
    states = e.states

    def recurrences():
        for k in range(1, len(states)):
            prev, cur = states[k - 1], states[k]
            if cur.lam * prev.lam != n - prev.mu * prev.mu:
                raise AssertionError(f"product identity fails at step {k + 1}")
            if cur.mu + prev.mu != e.quotients[k] * cur.lam:
                raise AssertionError(f"sum identity fails at step {k + 1}")

    def bounds():
        for st in states[1:]:
            if not (1 <= st.lam < n and st.mu * st.mu < n):
                raise AssertionError(f"state bounds fail at step {st.step_index}")
        if len(e.quotients) - 1 >= pigeonhole_bound(n):
            raise AssertionError("period not found before the pigeonhole bound")

    def palindrome():
        report = verify_palindrome(e, m)
        if not report.holds:
            raise AssertionError("period is not palindromic")

    def omegas():
        omega_sequence(e, n)

    def oracle_agreement():
        steps = 3 * len(e.period) + 1
        expected = e.quotient_stream(steps)
        got = oracle_expand(QuadraticSurd.sqrt_of(n), steps)
        if got != expected:
            raise AssertionError("oracle quotients diverge from the engine")

    def trace_agreement():
        steps = euler_trace(n)
        quots = [m] + [s.quotient for s in steps if s.quotient is not None]
        if quots != list(e.quotients):
            raise AssertionError("symbolic trace quotients diverge from the engine")

    def convergent_quality():
        count = 2 * len(e.period)
        cs = convergents(e, count)
        lams = [st.lam for st in states]
        period = len(e.period)
        for c in cs:
            k = c.index
            idx = k + 1  # lam_{k+2}, cycled; lams is lam_1..lam_{period+1}
            while idx >= len(lams):
                idx -= period
            expected = -lams[idx] if k % 2 == 0 else lams[idx]
            if c.p * c.p - n * c.q * c.q != expected:
                raise AssertionError(f"quality identity fails at convergent {k}")

    def pell():
        x, y = pell_solutions(n, e)[0]
        if x * x - n * y * y != 1:
            raise AssertionError("fundamental solution does not satisfy Pell")

    def pure_tail():
        tail = QuadraticSurd(states[0].mu, n, states[1].lam)
        te = expand_surd(tail)
        if te.preperiod != () or te.period != e.period:
            raise AssertionError("re-expanded tail is not purely periodic with the same period")

    check("recurrence identities", recurrences)
    check("state bounds and pigeonhole", bounds)
    check("palindrome (both routes)", palindrome)
    check("omega identities", omegas)
    check("oracle agreement (3 periods)", oracle_agreement)
    check("symbolic trace agreement", trace_agreement)
    check("convergent quality", convergent_quality)
    check("pell fundamental", pell)
    check("purely periodic tail", pure_tail)

    lines.append(f"verify {n}: {'all checks passed' if ok else 'FAILED'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="anth", description="exact anthyphairesis of quadratic surds"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("plain", "json", "csv")):
        p.add_argument("--format", choices=formats, default="plain")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("expand", help="expand a surd and report its period")
    p.add_argument("input", help="N, sqrt(P/Q), or (P+sqrt(D))/Q")
    p.add_argument("--steps", type=_positive_int, default=None, metavar="K")
    p.add_argument("--pell", action="store_true")
    p.add_argument("--negative-pell", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("trace", help="symbolic apotome/binomial expansion trace")
    p.add_argument("N", type=int)
    p.add_argument("--steps", type=_positive_int, default=None, metavar="K")
    p.add_argument("--golden", metavar="FILE", default=None)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="expand every non-square N up to a limit")
    p.add_argument("n_max", type=int)
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="K")
    p.add_argument("--pell", action="store_true")
    p.add_argument("--negative-pell", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pell", help="fundamental solution of x^2 - N*y^2 = 1")
    p.add_argument("N", type=int)
    p.add_argument("--negative-pell", action="store_true")
    add_common(p, formats=("plain", "json"))
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("approx", help="first convergents of a surd")
    p.add_argument("input")
    p.add_argument("--steps", type=_positive_int, default=None, metavar="K")
    add_common(p, formats=("plain", "json"))
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", help="run the invariant battery for one N")
    p.add_argument("N", type=int)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except StepLimitExceeded as exc:
        print(f"error: step limit exhausted: {exc}", file=sys.stderr)
        return 3
    except SurdSpecError as exc:  # bad input; other errors are faults and propagate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
