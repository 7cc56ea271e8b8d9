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

An identity test needs no reduced triple. The unreduced product
(ab, bb, den) of two lines differs from its reduced area only by a
common factor, so it is the area beta^2 exactly when ab == 0 and
bb == den != 0, whatever that factor and its sign; _is_beta_squared
decides so, with no gcd. Adding k*beta to a reduced line keeps it
reduced, since gcd(a, b + k*den, den) = gcd(a, b, den), so _plus_beta
needs none either.

All of it is integer arithmetic. basis(r) checks the ratio r = P/Q and
gives (P, Q), which every operation that needs the ratio takes as its
first argument.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import gcd, isqrt

from .surd import QuadraticSurd, _budget, _exhausted, is_perfect_square

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


def _product(basis: Basis, u: Triple, v: Triple) -> Triple:
    """The product of two lines as the unreduced area (ab, bb, den), den = Q*den_u*den_v."""
    p, q = basis
    a1, b1, d1 = u
    a2, b2, d2 = v
    return q * (a1 * b2 + b1 * a2), p * a1 * a2 + q * b1 * b2, q * d1 * d2


def line_mul(basis: Basis, u: Triple, v: Triple) -> Triple:
    """Area of the product of two lines, alpha^2 = (P/Q)*beta^2 eliminated."""
    return _reduced(*_product(basis, u, v))


def _is_beta_squared(basis: Basis, u: Triple, v: Triple) -> bool:
    """line_mul(basis, u, v) == BETA_SQUARED, decided on the unreduced product.

    False, not ZeroDivisionError, where the product's den is 0.
    """
    ab, bb, den = _product(basis, u, v)
    return ab == 0 and bb == den != 0


def _plus_beta(u: Triple, k: int) -> Triple:
    """u + k*beta; reduced whenever u is."""
    a, b, den = u
    return a, b + k * den, den


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


class TraceStep(namedtuple("TraceStep", "index lam mu phi product_constant psi quotient repeats_index")):
    """One division step of the symbolic expansion of sqrt(N); each line is a reduced triple.

    index, lam, mu and the line phi = (alpha - mu*beta)/lam. Then the
    int product_constant with lam*phi*phi* = product_constant*beta^2
    (phi* = conjugate(phi)), the inverse psi and the int quotient; the
    next factor, psi - quotient*beta, is the next step's phi. The closing
    step (where phi returns to phi_1) carries only the factor itself plus
    the int repeats_index, 1; the remaining fields are None. An immutable
    named tuple.
    """

    __slots__ = ()


# Peak bytes one trace step costs: its TraceStep, line triples and rendered text
# come to about 1.2 KB, the steps alone to 445 B (sqrt(10^8+3), tracemalloc).
_TRACE_STEP_BYTES = 4096

def _as_lambda_mu(phi: Triple) -> tuple[int, int]:
    # phi = (alpha - mu*beta)/lam for natural lam, mu
    a, b, lam = phi
    if a != 1 or b > 0:
        raise ValueError("increment factor is not of the form (alpha - mu*beta)/lam")
    return lam, -b


def _trace_steps(N: int, max_steps: int | None, bytes_per_step: int) -> Iterator[tuple]:
    """The symbolic steps of sqrt(N), each as TraceStep's fields (k, lam, mu, phi, constant, psi, quotient, None).

    A step checks that phi = (alpha - mu*beta)/lam and lam*phi*phi* =
    constant*beta^2, inverts phi via its conjugate (no integer state
    recurrence is used, so this derives the quotients independently),
    floors psi/beta to the quotient and subtracts it to the next phi. The
    steps stop when phi returns to phi_1: x_1 = 1/phi_1 is reduced, so by
    Galois's theorem phi_1 is the first phi to repeat, and a fault that
    broke this would run into the budget rather than close a wrong
    period. Raises StepLimitExceeded past max_steps steps, and
    ResourceLimitExceeded first when steps of bytes_per_step would
    outgrow memory.
    """
    if N < 2 or isqrt(N) ** 2 == N:
        raise ValueError("N must be a non-square integer >= 2")
    max_steps, limit = _budget(1, N, max_steps, bytes_per_step)
    pq = basis(N)
    first = phi = (1, -_floor_over_beta(pq, (1, 0, 1)), 1)  # alpha - m*beta
    for k in range(1, limit + 1):
        lam, mu = _as_lambda_mu(phi)
        ab, bb, den = _product(pq, phi, conjugate(phi))
        # lam*phi*phi* = constant*beta^2 for a positive integer constant; the
        # unreduced area is the reduced one times den/reduced den > 0, so the
        # tests and the constant read the same on it
        if ab != 0 or bb <= 0 or bb * lam % den:
            raise RuntimeError("conjugacy product is not a positive rational multiple of beta^2")
        psi = inverse_wrt_beta_squared(pq, phi)
        quotient = _floor_over_beta(pq, psi)
        yield k, lam, mu, phi, bb * lam // den, psi, quotient, None
        phi = _plus_beta(psi, -quotient)  # psi is reduced, so phi is
        if phi == first:
            return
    raise _exhausted(f"trace of {QuadraticSurd.sqrt_of(N)} exceeded", max_steps, limit, " without repeating")


def euler_trace(N: int, max_steps: int | None = None) -> list[TraceStep]:
    """Drive the expansion of sqrt(N) purely through the line algebra.

    One TraceStep per step of _trace_steps, whose errors it raises, then
    the closing step, whose phi is phi_1 again.
    """
    steps = list(map(TraceStep._make, _trace_steps(N, max_steps, _TRACE_STEP_BYTES)))
    first = steps[0]
    steps.append(TraceStep(len(steps) + 1, first.lam, first.mu, first.phi, None, None, None, 1))
    return steps


def _lines(u: Triple, name: str) -> tuple[str, str]:
    """'den*name = a*alpha +/- b*beta' and the same for name*, the conjugate; coefficients of 1 left out."""
    a, b, den = u
    d = "" if den == 1 else f"{den}*"
    x = "alpha" if a == 1 else f"{a}*alpha"
    y = "beta" if b in (1, -1) else f"{abs(b)}*beta"
    return f"{d}{name} = {x} {'+' if b > 0 else '-'} {y}", f"{d}{name}* = {x} {'+' if b < 0 else '-'} {y}"


def render_trace(steps: list[TraceStep], N: int) -> str:
    """Stable plain-text rendering of a trace, golden-file friendly.

    Each phi is rendered once, and its line serves its own step, its
    conjugate and the previous step's next: line.
    """
    pq = basis(N)
    out = [f"anthyphairesis trace: alpha^2 = {N}*beta^2\n"]
    quotients = []
    line, conj = _lines(steps[0].phi, f"phi_{steps[0].index}")
    for i, s in enumerate(steps):
        k = s.index
        head = f"step {k}: {line} ({classify(pq, s.phi)}; lambda_{k} = {s.lam}, mu_{k} = {s.mu})\n"
        if s.repeats_index is not None:
            out.append(
                f"{head}  phi_{k} = phi_{s.repeats_index}:"
                f" periodicity by the incremental Logos criterion (period {len(steps) - s.repeats_index})\n"
            )
            continue
        conj_k = conj
        line, conj = _lines(steps[i + 1].phi, f"phi_{k + 1}")
        out.append(
            f"{head}  conjugate: {conj_k}\n"
            f"  product:   lambda_{k}*phi_{k}*phi_{k}* = {s.product_constant}*beta^2 = lambda_{k + 1}*beta^2\n"
            f"  inverse:   {_lines(s.psi, f'psi_{k}')[0]}\n"
            f"  quotient:  I_{k} = {s.quotient}\n"
            f"  next:      {line}\n"
        )
        quotients.append(s.quotient)
    body = ", ".join(str(q) for q in quotients)
    out.append(f"anthyphairesis: [{steps[0].mu}, period({body})]\n")
    return "".join(out)
