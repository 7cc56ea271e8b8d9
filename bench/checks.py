"""Reference computations and output checkers for the benchmark.

Nothing here imports anthyphairesis: every expected output is derived
from math.isqrt and plain integer recurrences written for the benchmark,
so a fault shared by the program's own layers cannot hide itself.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import isqrt

CSV_HEADER = "N,m,period_len,palindrome,case,distinct_logoi,pell_x,pell_y\n"


def sqrt_states(n: int) -> list[tuple[int, int, int]]:
    """(lam_k, mu_k, I_k) for k = 1..l of sqrt(n); the period closes when lam returns to 1."""
    m = isqrt(n)
    mu, lam = m, 1
    out = []
    while True:
        lam_next = (n - mu * mu) // lam
        q = (m + mu) // lam_next
        out.append((lam, mu, q))
        if lam_next == 1:
            return out
        mu, lam = q * lam_next - mu, lam_next


def sqrt_period(n: int) -> tuple[int, list[int]]:
    """(m, period quotients) of sqrt(n)."""
    return isqrt(n), [q for _, _, q in sqrt_states(n)]


def pell(n: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """Fundamental solution of x^2 - n*y^2 = 1 and the -1 solution, or None."""
    m, period = sqrt_period(n)
    h_prev, h = 1, m
    k_prev, k = 0, 1
    for a in period[:-1]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    if len(period) % 2 == 0:
        return (h, k), None
    return (h * h + n * k * k, 2 * h * k), (h, k)


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# --- atlas -----------------------------------------------------------------


def expected_atlas(n_max: int) -> str:
    rows = [CSV_HEADER]
    for n in range(2, n_max + 1):
        m = isqrt(n)
        if m * m == n:
            continue
        length = len(sqrt_period(n)[1])
        case = "I" if length % 2 == 0 else "II"
        rows.append(f"{n},{m},{length},yes,{case},{length},,\n")
    return "".join(rows)


# --- pell_long -------------------------------------------------------------


def expected_pell(n: int) -> str:
    (x, y), negative = pell(n)
    if x * x - n * y * y != 1:
        raise AssertionError(f"reference Pell solution for {n} is wrong")
    neg = None
    if negative is not None:
        a, b = negative
        if a * a - n * b * b != -1 or (a * a + n * b * b, 2 * a * b) != (x, y):
            raise AssertionError(f"reference negative Pell solution for {n} is wrong")
        neg = {"x": str(a), "y": str(b)}
    return canonical({"N": str(n), "negative_pell": neg, "x": str(x), "y": str(y)})


# --- proof -----------------------------------------------------------------

_STEP_RE = re.compile(r"^step (\d+): .* \((\w+); lambda_\1 = (\d+), mu_\1 = (\d+)\)$")
_PRODUCT_RE = re.compile(r"^  product: .* = (\d+)\*beta\^2 = lambda_(\d+)\*beta\^2$")
_QUOTIENT_RE = re.compile(r"^  quotient:  I_(\d+) = (\d+)$")


def check_trace(n: int, text: str) -> str | None:
    """None when the trace's states and quotients match the recurrence, else why not."""
    states = sqrt_states(n)
    length = len(states)
    steps, products, quotients = [], [], []
    for line in text.splitlines():
        if (hit := _STEP_RE.match(line)) is not None:
            steps.append((int(hit[1]), int(hit[3]), int(hit[4])))
        elif (hit := _PRODUCT_RE.match(line)) is not None:
            products.append(int(hit[1]))
        elif (hit := _QUOTIENT_RE.match(line)) is not None:
            quotients.append((int(hit[1]), int(hit[2])))
    m = isqrt(n)
    want_steps = [(k + 1, lam, mu) for k, (lam, mu, _) in enumerate(states)]
    want_steps.append((length + 1, 1, m))
    if steps != want_steps:
        return f"trace {n}: (lambda, mu) of the steps differ from the recurrence"
    if quotients != [(k + 1, q) for k, (_, _, q) in enumerate(states)]:
        return f"trace {n}: quotients differ from the recurrence"
    if products != [lam for lam, _, _ in states[1:]] + [1]:
        return f"trace {n}: conjugacy products differ from lambda_(k+1)"
    body = ", ".join(str(q) for _, _, q in states)
    lines = text.splitlines()
    closing = f"  phi_{length + 1} = phi_1: periodicity by the incremental Logos criterion (period {length})"
    if lines[-2:] != [closing, f"anthyphairesis: [{m}, period({body})]"]:
        return f"trace {n}: closing lines differ"
    return None


def check_verify(n: int, text: str) -> str | None:
    lines = text.splitlines()
    checks = lines[:-1]
    if len(checks) != 9 or not all(ln.startswith("check ") and ln.endswith(": ok") for ln in checks):
        return f"verify {n}: expected nine 'ok' checks"
    if lines[-1] != f"verify {n}: all checks passed":
        return f"verify {n}: wrong verdict line"
    return None


# --- surds -----------------------------------------------------------------


def _floor(p: int, d: int, q: int) -> int:
    """floor((p + sqrt(d))/q) for non-square d."""
    r = isqrt(d)
    return (p + r) // q if q > 0 else (p + r + 1) // q


def surd_quotients(p: int, d: int, q: int) -> tuple[list[int], list[int]] | list[int]:
    """Expansion of (p + sqrt(d))/q: (preperiod, period), or the quotient list if rational.

    Normalize so that q | d - p^2, then floor, subtract and invert on the
    (p, q) pair, stopping at the first repeated state.
    """
    r = isqrt(d)
    if r * r == d:
        return euclid(Fraction(p + r, q))
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    seen: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    while (p, q) not in seen:
        seen[(p, q)] = len(quots)
        a = _floor(p, d, q)
        quots.append(a)
        p -= a * q
        p, q = -p, (d - p * p) // q
    j = seen[(p, q)]
    return quots[:j], quots[j:]


def euclid(value: Fraction) -> list[int]:
    num, den = value.numerator, value.denominator
    out = []
    while den:
        a, rem = divmod(num, den)
        out.append(a)
        num, den = den, rem
    return out


def expected_surd(label: str, p: int, d: int, q: int) -> str:
    got = surd_quotients(p, d, q)
    if isinstance(got, list):
        return canonical({"input": label, "quotients": [str(a) for a in got], "terminated": True})
    pre, period = got
    head = pre[0] if pre else period[0]
    palindromic = case = None
    if p == 0 and q >= 1 and head >= 1:
        interior = period[:-1]
        palindromic = interior == interior[::-1] and period[-1] == 2 * head
    if p == 0 and q == 1:  # sqrt(N) also reports the reflection case
        case = "I" if len(period) % 2 == 0 else "II"
    return canonical(
        {
            "case": case,
            "distinct_logoi": str(len(period)),
            "input": label,
            "palindromic": palindromic,
            "period": [str(a) for a in period],
            "period_length": str(len(period)),
            "preperiod": [str(a) for a in pre],
            "terminated": False,
        }
    )
