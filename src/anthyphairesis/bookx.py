"""Symbolic lines and areas over a basis (alpha, beta) with alpha^2 = r*beta^2.

A line is the int triple (a, b, den) for (a*alpha + b*beta)/den; the
product of two lines is an area, the triple (ab, bb, den) for
(ab*alpha*beta + bb*beta^2)/den, with alpha^2 always eliminated through
the defining ratio. Every triple is reduced (den > 0, gcd 1) and so
canonical: equal values are equal triples. Apotomes (difference shapes,
Elements X.73) and binomials (sum shapes, X.36) are conjugate; their
product is a rational multiple of beta^2 (the content of Elements
X.112-114), which is what makes exact inversion of a line possible and
drives the symbolic expansion trace.

All of it is integer arithmetic. basis(r) checks the ratio r = P/Q once
per radicand and gives (P, Q), which every operation that needs the
ratio takes as its first argument.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .surd import is_perfect_square

__all__ = [
    "TraceStep",
    "basis",
    "line_mul",
    "conjugate",
    "inverse_wrt_beta_squared",
    "sign_of",
    "classify",
    "logos_cross_check",
    "euler_trace",
    "render_trace",
]

Basis = tuple[int, int]  # (P, Q): alpha^2 = (P/Q)*beta^2, P/Q in lowest terms
Triple = tuple[int, int, int]

BETA_SQUARED: Triple = (0, 1, 1)  # the area beta^2


@lru_cache(maxsize=256)
def basis(ratio: Fraction | int) -> Basis:
    """The basis of alpha^2 = ratio*beta^2, once ratio is checked positive and not a rational square.

    fractions is imported only for a ratio that is not an int: its import
    (with decimal) would cost every command's start-up.
    """
    if isinstance(ratio, int):
        p, q = ratio, 1
    else:
        from fractions import Fraction

        p, q = Fraction(ratio).as_integer_ratio()
    if p <= 0:
        raise ValueError("radicand ratio must be positive")
    if is_perfect_square(p) and is_perfect_square(q):
        raise ValueError("radicand ratio is a rational square; the line is rational")
    return p, q


def _reduced(a: int, b: int, den: int) -> Triple:
    """(a, b, den) over gcd(a, b, den), with the sign that makes den positive."""
    g = gcd(a, b, den)
    if den < 0:
        g = -g
    return a // g, b // g, den // g


def line_mul(basis: Basis, u: Triple, v: Triple) -> Triple:
    """Area of the product of two lines, alpha^2 = (P/Q)*beta^2 eliminated."""
    p, q = basis
    a1, b1, d1 = u
    a2, b2, d2 = v
    return _reduced(q * (a1 * b2 + b1 * a2), p * a1 * a2 + q * b1 * b2, q * d1 * d2)


def _add(u: Triple, v: Triple) -> Triple:
    a1, b1, d1 = u
    a2, b2, d2 = v
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def conjugate(u: Triple) -> Triple:
    """Negate the beta coefficient: apotome <-> binomial. Involutive."""
    a, b, den = u
    return a, -b, den


def inverse_wrt_beta_squared(basis: Basis, u: Triple) -> Triple:
    """The line v with u*v = beta^2 exactly.

    For an irrational line the product u * conjugate(u) is the rational
    area (P*a^2 - Q*b^2)/(Q*den^2)*beta^2, so v is the conjugate divided
    by that constant (Elements X.112/X.113 in coefficient form).
    """
    p, q = basis
    a, b, den = u
    norm = p * a * a - q * b * b  # zero only for the zero line, since P/Q is no rational square
    if norm == 0:
        raise ZeroDivisionError("zero line has no inverse")
    return _reduced(q * den * a, -q * den * b, norm)


def _floor_over_beta(basis: Basis, u: Triple) -> int:
    """Exact floor of u/beta = (b*Q + sqrt(a^2*P*Q))/(den*Q) for a line with a >= 0."""
    p, q = basis
    a, b, den = u
    if a < 0:
        raise ValueError("floor helper needs a non-negative alpha coefficient")
    # sqrt(a^2*P*Q) is irrational unless a = 0, so no multiple of den*Q lies
    # strictly between b*Q + isqrt and b*Q + sqrt: both have the same floor
    return (b * q + isqrt(a * a * p * q)) // (den * q)


def sign_of(basis: Basis, u: Triple) -> int:
    """Exact sign of the line u, as -1, 0 or 1; den > 0, as in every reduced triple."""
    p, q = basis
    a, b, _ = u
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # Mixed signs: compare |a*alpha| with |b*beta| by squaring.
    # Equality is impossible since P/Q is not a rational square.
    if a * a * p > b * b * q:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def classify(basis: Basis, u: Triple) -> str:
    """One of 'apotome', 'binomial', 'rational_multiple', 'other'.

    Apotome: positive value with exactly one negative coefficient.
    Binomial: both coefficients positive. A line with a vanishing
    coefficient is a rational multiple of one basis line. Everything
    else (negative or zero values) is 'other': the algebra is closed
    under negation so the classification must be total.
    """
    a, b, _ = u
    if a == 0 or b == 0:
        return "rational_multiple"
    if a > 0 and b > 0:
        return "binomial"
    if sign_of(basis, u) > 0:
        return "apotome"
    return "other"


def logos_cross_check(basis: Basis, a1: Triple, a2: Triple, b1: Triple, b2: Triple) -> bool:
    """Ratio equality a1/a2 = b1/b2 by exact cross-multiplication of areas."""
    return line_mul(basis, a1, b2) == line_mul(basis, a2, b1)


class TraceStep(namedtuple("TraceStep", "index lam mu phi phi_conjugate product_constant psi quotient next_phi repeats_index")):
    """One division step of the symbolic expansion of sqrt(N); each line is a reduced triple.

    index, lam, mu and the line phi = (alpha - mu*beta)/lam. Then its
    conjugate phi*, the int product_constant with
    lam*phi*phi* = product_constant*beta^2, the inverse psi, the int
    quotient and the line next_phi. The closing step (where phi repeats
    an earlier one) carries only the factor itself plus the int
    repeats_index; the remaining fields are None. An immutable named
    tuple.
    """

    __slots__ = ()


# Peak bytes one trace step costs: its TraceStep, line triples and rendered text
# come to about 2.0 KB (sqrt(10^8+3), tracemalloc).
_TRACE_STEP_BYTES = 4096


def _as_lambda_mu(phi: Triple) -> tuple[int, int]:
    # phi = (alpha - mu*beta)/lam for natural lam, mu
    a, b, lam = phi
    if a != 1 or b > 0:
        raise ValueError("increment factor is not of the form (alpha - mu*beta)/lam")
    return lam, -b


def euler_trace(N: int, max_steps: int | None = None) -> list[TraceStep]:
    """Drive the expansion of sqrt(N) purely through the line algebra.

    Each step inverts the current increment factor phi via its conjugate
    (no integer state recurrence is used, so this is an independent
    derivation of the quotients), reads off the quotient as the integer
    part of psi/beta, and subtracts to get the next factor. Stops when a
    phi repeats an earlier one. Raises StepLimitExceeded when more than
    max_steps factors pass without a repeat, and ResourceLimitExceeded
    when, before that, the steps would outgrow this process's memory.
    """
    # the step safety net only; no stepping code is shared with the engine
    from .engine import ResourceLimitExceeded, StepLimitExceeded, _memory_steps, pigeonhole_bound

    if N < 2 or isqrt(N) ** 2 == N:
        raise ValueError("N must be a non-square integer >= 2")
    if max_steps is None:
        max_steps = pigeonhole_bound(N) + 1
    limit = min(max_steps, _memory_steps(_TRACE_STEP_BYTES))

    pq = basis(N)
    m = _floor_over_beta(pq, (1, 0, 1))
    phi = (1, -m, 1)  # alpha - m*beta
    seen: dict[Triple, int] = {}
    steps: list[TraceStep] = []
    k = 1
    while True:
        lam, mu = _as_lambda_mu(phi)
        if phi in seen:
            steps.append(TraceStep(k, lam, mu, phi, None, None, None, None, None, seen[phi]))
            return steps
        seen[phi] = k
        if k > limit:
            if limit == max_steps:
                raise StepLimitExceeded(f"trace of sqrt({N}) exceeded {max_steps} steps without repeating")
            raise ResourceLimitExceeded(f"trace of sqrt({N}) exceeded {limit} steps, all that fit in memory")
        conj = conjugate(phi)
        ab, bb, den = line_mul(pq, phi, conj)
        # lam*phi*conj = constant*beta^2 for a positive integer constant
        if ab != 0 or bb <= 0 or bb * lam % den:
            raise RuntimeError("conjugacy product is not a positive rational multiple of beta^2")
        psi = inverse_wrt_beta_squared(pq, phi)
        quotient = _floor_over_beta(pq, psi)
        next_phi = _add(psi, (0, -quotient, 1))
        steps.append(TraceStep(k, lam, mu, phi, conj, bb * lam // den, psi, quotient, next_phi, None))
        phi = next_phi
        k += 1


def _term(coeff: int, symbol: str) -> str:
    if coeff == 1:
        return symbol
    return f"{coeff}*{symbol}"


def render_line(u: Triple, name: str) -> str:
    """Integer-scaled rendering 'den*name = a*alpha +/- b*beta'."""
    a, b, den = u
    lhs = _term(den, name)
    if a == 0:
        rhs = _term(abs(b), "beta") if b >= 0 else f"-{_term(abs(b), 'beta')}"
    elif b == 0:
        rhs = _term(abs(a), "alpha") if a >= 0 else f"-{_term(abs(a), 'alpha')}"
    else:
        sign = "+" if b > 0 else "-"
        rhs = f"{_term(a, 'alpha')} {sign} {_term(abs(b), 'beta')}"
    return f"{lhs} = {rhs}"


def render_trace(steps: list[TraceStep], N: int) -> str:
    """Stable plain-text rendering of a trace, golden-file friendly."""
    out = [f"anthyphairesis trace: alpha^2 = {N}*beta^2"]
    pq = basis(N)
    quotients = []
    for s in steps:
        kind = classify(pq, s.phi)
        out.append(
            f"step {s.index}: {render_line(s.phi, f'phi_{s.index}')}"
            f" ({kind}; lambda_{s.index} = {s.lam}, mu_{s.index} = {s.mu})"
        )
        if s.repeats_index is not None:
            period = len(steps) - s.repeats_index
            out.append(
                f"  phi_{s.index} = phi_{s.repeats_index}:"
                f" periodicity by the incremental Logos criterion (period {period})"
            )
            continue
        out.append(f"  conjugate: {render_line(s.phi_conjugate, f'phi_{s.index}*')}")
        out.append(
            f"  product:   lambda_{s.index}*phi_{s.index}*phi_{s.index}*"
            f" = {s.product_constant}*beta^2 = lambda_{s.index + 1}*beta^2"
        )
        out.append(f"  inverse:   {render_line(s.psi, f'psi_{s.index}')}")
        out.append(f"  quotient:  I_{s.index} = {s.quotient}")
        out.append(f"  next:      {render_line(s.next_phi, f'phi_{s.index + 1}')}")
        quotients.append(s.quotient)
    first = steps[0].mu
    body = ", ".join(str(q) for q in quotients)
    out.append(f"anthyphairesis: [{first}, period({body})]")
    return "\n".join(out) + "\n"
