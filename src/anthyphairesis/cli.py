"""Command line front end: expand, trace, sweep, pell, approx, verify.

Exit codes: 0 success, 1 a verify check failed, 2 bad input (or an
--out FILE that cannot be written), 3 step-limit exhaustion, an
expansion too long for memory or a MemoryError, 4 golden-file
mismatch, 5 palindrome failure during a sweep, 141 stdout closed by
its reader (a broken pipe). The
environment variable ANTH_MAX_STEPS, at least 1, sets the step budget
of the expansion in every command (expand, trace, sweep, pell, approx,
verify) wherever --steps is not given explicitly. approx reads exactly
the quotients it prints, one per convergent, with no period search: its
--steps counts them, and ANTH_MAX_STEPS caps that count: a --steps
above it exits 3 before any output, unless the input is rational and
its quotients end inside the budget. pell expands sqrt(N) only to the
centre of its period, so its budget counts steps to the centre: a
period of length l needs l // 2 of them, where expand N --pell, which
runs and checks the whole period, needs l. In verify, ANTH_MAX_STEPS
reaches every check: the trace, the centre stop and the re-expanded
tail take it as their budget, and the oracle's 3l + 1 quotients must
fit in it, which covers the convergent check's 2l steps, so verify
needs a budget of 3l + 1. A check that runs out exits 3, not 1.

argv made of a command, its positional and exact option strings of its
own, each valued one followed by a value that does not start with "-"
and passes the option's type and choices, is read off a table of the
command parser's own actions, with no argparse parse. Any other argv
goes to the top-level parser, so argparse alone prints help, usage and
every usage error. JSON lines come
from one writer here, _json_line, which writes what
json.dumps(sort_keys=True, separators=(",", ":")) would.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import re
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

from .bookx import euler_trace, render_trace
from .convergents import convergents, pell_solutions
from .engine import Expansion, expand_sqrt, expand_surd
from .oracle import oracle_expand
from .palindrome import certify, verify_palindrome
from .surd import QuadraticSurd, ResourceLimitExceeded, StepLimitExceeded, _dec, is_perfect_square

__all__ = ["main"]


class InputError(ValueError):
    """Bad user input: one line on stderr and exit 2."""


_SPACE_RE = re.compile(r"\s+")
_INT_RE = re.compile(r"^[+-]?\d+$")
_SQRT_RE = re.compile(r"^sqrt\((\d+)(?:/(\d+))?\)$")
_SURD_RE = re.compile(r"^\(([+-]?\d+)\+sqrt\((\d+)\)\)/([+-]?\d+)$")


def _parse_int(digits: str, text: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than Python's int-to-str limit allows
        raise InputError(f"{exc} in {text!r}") from exc


def _parse_spec(text: str) -> tuple[QuadraticSurd, str]:
    """The surd a spec names and its label, or an InputError.

    Whitespace is ignored, digits may be any Unicode decimal digits, Q != 0:
      N              sqrt(N), N >= 0 and optionally signed, labelled sqrt(N) in plain decimal
      sqrt(P/Q)      sqrt(P*Q)/Q; sqrt(P) is sqrt(P/1)
      (P+sqrt(D))/Q  P and Q optionally signed
    The last two are labelled by the text less its whitespace.
    """
    compact = _SPACE_RE.sub("", text)
    if _INT_RE.match(compact):
        n = _parse_int(compact, text)
        if n < 0:
            raise InputError(f"negative radicand in {text!r}")
        return QuadraticSurd.sqrt_of(n), f"sqrt({_dec(n)})"
    m = _SQRT_RE.match(compact)
    if m:
        num = _parse_int(m.group(1), text)
        den = _parse_int(m.group(2), text) if m.group(2) else 1
        if den == 0:
            raise InputError(f"zero denominator in {text!r}")
        return QuadraticSurd.sqrt_of_rational(num, den), compact
    m = _SURD_RE.match(compact)
    if m:
        p, d, q = (_parse_int(g, text) for g in m.groups())
        if q == 0:
            raise InputError(f"zero denominator in {text!r}")
        return QuadraticSurd(p, d, q), compact
    raise InputError(f"cannot parse surd spec {text!r}")


def _step_limit(steps: int | None = None) -> int | None:
    """The budget from --steps if given, else from ANTH_MAX_STEPS if set, else None (the default)."""
    if steps is None:
        env = os.environ.get("ANTH_MAX_STEPS")
        if env is None:
            return None
        try:
            steps = int(env)
        except ValueError as exc:
            raise InputError(f"ANTH_MAX_STEPS is not an integer: {env!r}") from exc
        if steps < 1:
            raise InputError(f"ANTH_MAX_STEPS must be at least 1, got {steps}")
    return steps


def _non_square(n: int, command: str) -> int:
    """n, when it is a non-square N >= 2; otherwise bad input for command."""
    if n < 2 or is_perfect_square(n):
        raise InputError(f"{command} needs a non-square N >= 2, got {_dec(n)}")
    return n


def _cannot_write(out: str, exc: OSError) -> InputError:
    return InputError(f"cannot write {out}: {exc.strerror}")


def _emit(lines: Iterable[str], out: str | None, end: str = "\n") -> None:
    """Write each line and end as it comes, to FILE or to sys.stdout as it is at the call.

    FILE failing to open, to take a line or to close is an InputError; an
    error raised while the lines are computed propagates as it is.
    """
    if out is None:
        sys.stdout.writelines(line + end for line in lines)
        return
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    try:
        for line in lines:
            try:
                fh.write(line + end)
            except OSError as exc:
                raise _cannot_write(out, exc) from exc
    finally:
        try:
            fh.close()
        except OSError as exc:
            raise _cannot_write(out, exc) from exc


_SMALL = tuple(map(str, range(256)))  # nearly every quotient is one of these


def _decs(ns) -> list[str]:
    """_dec of every int in a list: 0 <= a < 256 from a table of strings, every other int through _dec."""
    return [_SMALL[a] if 0 <= a < 256 else _dec(a) for a in ns]


# A record maps field names to plain values: ints, bools, None, strings,
# quotient lists (lists) and Pell pairs (tuples (x, y)). Each output
# format has one renderer below, applied only to the format asked for.


def _json_value(v) -> str:
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int):
        return f'"{_dec(v)}"'
    if isinstance(v, tuple):
        return f'{{"x":"{_dec(v[0])}","y":"{_dec(v[1])}"}}'
    return '["' + '","'.join(_decs(v)) + '"]' if v else "[]"  # decimal digits need no escaping


def _json_line(record: dict) -> str:
    """A record as canonical JSON: every int a decimal string, a pair {x, y}, keys (plain ASCII names) sorted."""
    fields = []
    for key, v in record.items():
        if key == "pell":  # the fundamental solution is two flat fields
            fields += [("pell_x", _json_value(v[0])), ("pell_y", _json_value(v[1]))]
        else:
            fields.append((key, _json_value(v)))
    return "{" + ",".join(f'"{key}":{text}' for key, text in sorted(fields)) + "}"


def _plain_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, tuple):
        return f"({_dec(v[0])},{_dec(v[1])})"
    return _dec(v) if isinstance(v, int) else v


def _plain(record: dict) -> str:
    """key=value fields: yes/no for a verdict, (x,y) for a pair, none for a missing one."""
    return " ".join(f"{key}={_plain_value(v)}" for key, v in record.items())


_CSV_HEADER = "N,m,period_len,palindrome,case,distinct_logoi,pell_x,pell_y"


def _csv_row(record: dict) -> str:
    """One row of the fixed CSV schema of expand and sweep, read off a record by key; pell may be absent.

    No field can hold a comma, a quote or a line break (input labels match
    the spec grammar), so no field needs quoting.
    """
    palindrome, logoi, pell = record["palindrome"], record["distinct_logoi"], record.get("pell")
    verdict = "" if palindrome is None else ("yes" if palindrome else "no")
    x, y = ("", "") if pell is None else map(_dec, pell)
    logoi = "" if logoi is None else logoi
    return f"{record['N']},{_dec(record['m'])},{record['period_len']},{verdict},{record['case'] or ''},{logoi},{x},{y}"


def _fmt_quotients(preperiod, period) -> str:
    body = ",".join(_decs(period))
    if preperiod:
        head = ",".join(_decs(preperiod))
        return f"[{head}; ({body})]"
    return f"[({body})]"


def _is_sqrt_int(s: QuadraticSurd) -> bool:
    return s.p == 0 and s.q == 1


def _reject_sqrt_zero(target: QuadraticSurd) -> None:
    """sqrt(0), however it is written, is bad input for expand and approx."""
    if target.p == 0 and target.d == 0:
        raise InputError("N must be positive")


def _period_record(label, e: Expansion, want_pell: bool, want_negative: bool) -> dict:
    """The record of a periodic expansion: the CSV columns in order, then the Pell pairs asked for.

    m is the first quotient. The palindrome verdict is verify_palindrome's
    where the normal form starts at p = 0 and m >= 1 (so q > 0), else
    None. The period closes at the first recurrence of its first state,
    so its states are distinct and distinct_logoi is its length. The Pell
    pairs come from pell_solutions(e), which checks that e expands the
    square root of its radicand.
    """
    m, length = (e.preperiod or e.period)[0], len(e.period)
    report = verify_palindrome(e) if e.trail[0] == 0 and m >= 1 else None
    palindrome, case = (None, None) if report is None else (report.holds, report.case)
    record = {"N": label, "m": m, "period_len": length, "palindrome": palindrome, "case": case, "distinct_logoi": length}
    if want_pell or want_negative:
        pell, negative = pell_solutions(e)
        if want_pell:
            record["pell"] = pell
        if want_negative:
            record["negative_pell"] = negative
    return record


_EXPAND_NAMES = {"N": "input", "period_len": "period_length", "palindrome": "palindromic"}  # expand's JSON keys


def cmd_expand(args) -> int:
    target, label = _parse_spec(args.input)
    limit = _step_limit(args.steps)
    want_pell = args.pell or args.negative_pell
    if want_pell and not _is_sqrt_int(target):
        raise InputError("Pell solutions require a plain integer radicand")
    _reject_sqrt_zero(target)
    if want_pell:
        _non_square(target.d, "Pell")
    e = expand_surd(target, limit)  # sqrt(N) normalizes to the start (0, N, 1) that expand_sqrt(N) takes

    if e.terminated:
        quots = list(e.preperiod)
        if args.format == "json":
            lines = [_json_line({"input": label, "terminated": True, "quotients": quots})]
        elif args.format == "csv":
            row = {"N": label, "m": quots[0], "period_len": 0, "palindrome": None, "case": None, "distinct_logoi": None}
            lines = [_CSV_HEADER, _csv_row(row)]
        else:
            lines = [f"rational: [{', '.join(_decs(quots))}]"]
        _emit(lines, args.out)
        return 0

    want_negative = args.negative_pell and args.format != "csv"  # CSV has no negative-Pell column
    record = _period_record(label, e, args.pell, want_negative)
    if args.format == "json":
        fields = {_EXPAND_NAMES.get(key, key): v for key, v in record.items() if key != "m"}
        fields |= {"terminated": False, "preperiod": list(e.preperiod), "period": list(e.period)}
        lines = [_json_line(fields)]
    elif args.format == "csv":
        lines = [_CSV_HEADER, _csv_row(record)]
    else:
        verdict = "n/a" if record["palindrome"] is None else record["palindrome"]
        pell = {key: record[key] for key in ("pell", "negative_pell") if key in record}
        lines = [f"{label} = {_fmt_quotients(e.preperiod, e.period)} {_plain({'palindromic': verdict, **pell})}"]
    _emit(lines, args.out)
    return 0


def cmd_trace(args) -> int:
    n = _non_square(args.N, "trace")
    steps = euler_trace(n, _step_limit(args.steps))
    text = render_trace(steps, n)
    if args.golden:
        try:
            fh = open(args.golden, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {args.golden}: {exc.strerror}") from exc
        with fh:
            expected = fh.read()
        if text != expected:
            print(f"golden mismatch against {args.golden}", file=sys.stderr)
            return 4
    _emit([text], args.out, end="")
    return 0


def _sweep_record(task: tuple[int, bool, bool, int | None]) -> dict | None:
    n, want_pell, want_negative, limit = task
    e = expand_sqrt(n, limit)
    return _period_record(n, e, want_pell, want_negative) if e.period else None  # None for a square


def _pool(jobs: int):
    """A pool of `jobs` worker processes, at most one per CPU, or a null context for one job.

    multiprocessing is imported here, not with this module: its import
    costs every other command about 1 MB of memory and 10 ms of start-up.
    """
    jobs = min(jobs, os.cpu_count() or 1)  # a Pool starts every worker it is asked for at once
    if jobs == 1:
        return contextlib.nullcontext()
    import multiprocessing

    return multiprocessing.Pool(jobs)


def cmd_sweep(args) -> int:
    if args.n_max < 2:
        raise InputError("sweep needs N_max >= 2")
    limit = _step_limit()
    want_negative = args.negative_pell and args.format != "csv"  # CSV has no negative-Pell column
    tasks = ((n, args.pell, want_negative, limit) for n in range(2, args.n_max + 1))
    render = {"plain": _plain, "json": _json_line, "csv": _csv_row}[args.format]
    records = failures = 0
    summary = None

    def lines():
        nonlocal records, failures, summary
        if args.format == "csv":
            yield _CSV_HEADER
        with _pool(args.jobs) as pool:
            results = pool.imap(_sweep_record, tasks, chunksize=250) if pool else map(_sweep_record, tasks)
            for r in results:
                if r is not None:
                    records += 1
                    failures += not r["palindrome"]
                    yield render(r)
        summary = f"{records} non-squares <= {args.n_max}, {failures} palindrome failures"
        if args.format == "json":
            yield _json_line({"n_max": args.n_max, "records": records, "palindrome_failures": failures})
        elif args.format == "plain":
            yield f"# {summary}"

    _emit(lines(), args.out)
    if args.format == "csv":  # CSV output holds only rows: the summary goes to stderr once they are written
        sys.stdout.flush()
        print(summary, file=sys.stderr)
    return 5 if failures else 0


def cmd_pell(args) -> int:
    n = _non_square(args.N, "Pell")
    (x, y), negative = pell_solutions(n, max_steps=_step_limit())
    if args.format == "json":
        record = {"N": n, "x": x, "y": y}
        if args.negative_pell:
            record["negative_pell"] = negative
        line = _json_line(record)
    else:
        fields = {"x": x, "y": y}
        if args.negative_pell:
            fields["negative"] = negative
        line = f"pell({_dec(n)}): {_plain(fields)}"
    _emit([line], args.out)
    return 0


def _lagrange_checked(pairs, n: int):
    """The numbered convergents (k, (p, q)) of sqrt(n), each checked as it passes:
    (-1)^(k+1)*(p^2 - n*q^2) > 0, and (p^2 - n*q^2)^2 < 4n (Lagrange), or a fault."""
    for k, (p, q) in pairs:
        norm = p * p - n * q * q
        if (norm if k % 2 else -norm) <= 0 or norm * norm >= 4 * n:
            raise AssertionError(f"convergent {k} of sqrt({_dec(n)}) fails the sign or the Lagrange bound")
        yield k, (p, q)


def cmd_approx(args) -> int:
    target, label = _parse_spec(args.input)
    limit = _step_limit()
    _reject_sqrt_zero(target)
    quots = oracle_expand(target, args.steps if limit is None else min(args.steps, limit + 1))
    if limit is not None and len(quots) > limit:  # a rational that ends inside the budget passes
        raise StepLimitExceeded(f"{label}: {args.steps} quotients asked for, {limit} steps allowed")
    pairs = enumerate(convergents(quots))
    if _is_sqrt_int(target) and not is_perfect_square(target.d):
        pairs = _lagrange_checked(pairs, target.d)
    if args.format == "json":  # the canonical record, streamed: its keys sort as written
        pieces = (("," if k else "") + _json_line({"index": k, "p": p, "q": q}) for k, (p, q) in pairs)
        _emit(itertools.chain(['{"convergents":['], pieces, [f'],"input":{_json_value(label)}}}\n']), args.out, end="")
    else:
        _emit((f"k={k} {_dec(p)}/{_dec(q)}" for k, (p, q) in pairs), args.out)
    return 0  # either way one convergent is alive at a time: the digits of the k-th grow with k


def cmd_verify(args) -> int:
    n = _non_square(args.N, "verify")
    limit = _step_limit()
    outcomes = list(certify(expand_sqrt(n, limit), limit))  # every check runs before any line: a budget that runs out prints none
    lines = [f"check {name}: " + ("ok" if message is None else f"FAIL ({message})") for name, message in outcomes]
    ok = all(message is None for _, message in outcomes)
    lines.append(f"verify {n}: {'all checks passed' if ok else 'FAILED'}")
    _emit(lines, args.out)
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, tuple]]:
    """The top-level parser, and each command's parser and quick table by name, built on the first call and reused by every later one."""
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
    p.add_argument("--steps", type=_positive_int, default=8, metavar="K")
    add_common(p, formats=("plain", "json"))
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", help="run the invariant battery for one N")
    p.add_argument("N", type=int)
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices, {name: _quick_table(name, p) for name, p in sub.choices.items()}


def _quick_table(name: str, p: argparse.ArgumentParser) -> tuple[dict, dict, list]:
    """What _quick_parse reads off the parser p of command name: the defaults
    argparse sets, command among them, each exact option string of a store or
    store_const action mapped to that action, and p's positionals in order."""
    defaults = {"command": name} | p._defaults | {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}
    stores = (argparse._StoreAction, argparse._StoreConstAction)  # not help: argparse prints it
    options = {s: a for a in p._actions if isinstance(a, stores) for s in a.option_strings}
    return defaults, options, [a for a in p._actions if not a.option_strings]


def _quick_parse(table: tuple[dict, dict, list], tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives tokens, for the shapes a table covers; None for any other.

    Covered: exact option strings, a valued one followed by a token not
    starting with "-", and bare tokens filling the positionals in order,
    each value passing its action's type and choices. Everything else
    (-h, an abbreviation, --x=y, --, -4, a missing or stray argument, a
    bad value) is left to argparse, which alone prints help and errors.
    """
    defaults, options, positionals = table
    values = {}
    unfilled = iter(positionals)
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            action = options.get(token)
            if action is None:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            action = next(unfilled, None)
            if action is None:
                return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # what argparse reports as a usage error
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if next(unfilled, None) is not None:
        return None
    return argparse.Namespace(**(defaults | values))


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read off its command's quick table, else parsed by the top-level parser.

    Either way gives the top-level parser's namespace, and on bad input
    its message and exit code.
    """
    parser, _, tables = _parsers()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _quick_parse(table, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader of stdout left: stop silently, as a pipeline member killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit writes nowhere
        return 141  # 128 + SIGPIPE
    except StepLimitExceeded as exc:
        print(f"error: step limit exhausted: {exc}", file=sys.stderr)
        return 3
    except (ResourceLimitExceeded, MemoryError) as exc:
        print(f"error: memory limit reached: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except InputError as exc:  # bad input; other errors are faults and propagate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
