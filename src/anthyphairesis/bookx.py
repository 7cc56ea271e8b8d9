"""Symbolic lines and areas over a basis (alpha, beta) with alpha^2 = r*beta^2.

A SurdLine is an exact rational combination c_alpha*alpha + c_beta*beta;
a product of two lines is a SurdArea c_ab*(alpha*beta) + c_bb*beta^2,
with alpha^2 always eliminated through the defining ratio. Apotomes
(difference shapes, Elements X.73) and binomials (sum shapes, X.36) are
conjugate; their product is a rational multiple of beta^2 (the content
of Elements X.112-114), which is what makes exact inversion of a line
possible and drives the symbolic expansion trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .surd import QuadraticSurd, floor_surd, is_square_fraction, sign_of

__all__ = [
    "SurdLine",
    "SurdArea",
    "TraceStep",
    "line_mul",
    "conjugate",
    "inverse_wrt_beta_squared",
    "classify",
    "logos_cross_check",
    "euler_trace",
    "render_trace",
]


@dataclass(frozen=True)
class SurdLine:
    """c_alpha*alpha + c_beta*beta, where alpha^2 = radicand_ratio * beta^2."""

    c_alpha: Fraction
    c_beta: Fraction
    radicand_ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_alpha", Fraction(self.c_alpha))
        object.__setattr__(self, "c_beta", Fraction(self.c_beta))
        object.__setattr__(self, "radicand_ratio", Fraction(self.radicand_ratio))
        if self.radicand_ratio <= 0:
            raise ValueError("radicand ratio must be positive")
        if is_square_fraction(self.radicand_ratio):
            raise ValueError("radicand ratio is a rational square; the line is rational")

    def __add__(self, other: "SurdLine") -> "SurdLine":
        _require_same_ratio(self, other)
        return SurdLine(self.c_alpha + other.c_alpha, self.c_beta + other.c_beta, self.radicand_ratio)

    def __sub__(self, other: "SurdLine") -> "SurdLine":
        _require_same_ratio(self, other)
        return SurdLine(self.c_alpha - other.c_alpha, self.c_beta - other.c_beta, self.radicand_ratio)

    def __neg__(self) -> "SurdLine":
        return SurdLine(-self.c_alpha, -self.c_beta, self.radicand_ratio)

    def scaled(self, factor: Fraction | int) -> "SurdLine":
        f = Fraction(factor)
        return SurdLine(self.c_alpha * f, self.c_beta * f, self.radicand_ratio)

    def sign(self) -> int:
        return sign_of(self.c_alpha, self.c_beta, self.radicand_ratio)

    def is_zero(self) -> bool:
        return self.c_alpha == 0 and self.c_beta == 0


@dataclass(frozen=True)
class SurdArea:
    """c_ab*(alpha*beta) + c_bb*beta^2, canonical: alpha^2 never appears."""

    c_ab: Fraction
    c_bb: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_ab", Fraction(self.c_ab))
        object.__setattr__(self, "c_bb", Fraction(self.c_bb))


def _require_same_ratio(u: SurdLine, v: SurdLine) -> None:
    if u.radicand_ratio != v.radicand_ratio:
        raise ValueError("lines live over different radicand ratios")


def line_mul(u: SurdLine, v: SurdLine) -> SurdArea:
    """Exact product of two lines, alpha^2 reduced via the ratio."""
    _require_same_ratio(u, v)
    c_ab = u.c_alpha * v.c_beta + u.c_beta * v.c_alpha
    c_bb = u.c_alpha * v.c_alpha * u.radicand_ratio + u.c_beta * v.c_beta
    return SurdArea(c_ab, c_bb)


def conjugate(u: SurdLine) -> SurdLine:
    """Negate the beta coefficient: apotome <-> binomial. Involutive."""
    return SurdLine(u.c_alpha, -u.c_beta, u.radicand_ratio)


def inverse_wrt_beta_squared(u: SurdLine) -> SurdLine:
    """The line v with u*v = beta^2 exactly.

    For an irrational line the product u * conjugate(u) is the rational
    area (c_alpha^2*ratio - c_beta^2)*beta^2, so v is the conjugate
    divided by that constant (Elements X.112/X.113 in coefficient form).
    """
    if u.is_zero():
        raise ZeroDivisionError("zero line has no inverse")
    if u.c_alpha == 0:
        # rational multiple of beta: plain rational inversion
        return SurdLine(0, 1 / u.c_beta, u.radicand_ratio)
    norm = u.c_alpha * u.c_alpha * u.radicand_ratio - u.c_beta * u.c_beta
    return conjugate(u).scaled(1 / norm)


def classify(u: SurdLine) -> str:
    """One of 'apotome', 'binomial', 'rational_multiple', 'other'.

    Apotome: positive value with exactly one negative coefficient.
    Binomial: both coefficients positive. A line with a vanishing
    coefficient is a rational multiple of one basis line. Everything
    else (negative or zero values) is 'other': the algebra is closed
    under negation so the classification must be total.
    """
    if u.c_alpha == 0 or u.c_beta == 0:
        return "rational_multiple"
    if u.c_alpha > 0 and u.c_beta > 0:
        return "binomial"
    if u.sign() > 0:
        return "apotome"
    return "other"


def logos_cross_check(a1: SurdLine, a2: SurdLine, b1: SurdLine, b2: SurdLine) -> bool:
    """Ratio equality a1/a2 = b1/b2 by exact cross-multiplication of areas."""
    _require_same_ratio(a1, a2)
    _require_same_ratio(a1, b1)
    _require_same_ratio(a1, b2)
    return line_mul(a1, b2) == line_mul(a2, b1)


@dataclass(frozen=True)
class TraceStep:
    """One division step of the symbolic expansion of sqrt(N).

    The closing step (where phi repeats an earlier one) carries only the
    factor itself plus repeats_index; the remaining fields are None.
    """

    index: int
    lam: int
    mu: int
    phi: SurdLine
    phi_conjugate: Optional[SurdLine]
    product_constant: Optional[int]  # lam*phi*phi_conjugate = product_constant*beta^2
    psi: Optional[SurdLine]
    quotient: Optional[int]
    next_phi: Optional[SurdLine]
    repeats_index: Optional[int]


def _floor_over_beta(line: SurdLine) -> int:
    """Exact floor of line/beta for a line with c_alpha >= 0."""
    ca, cb = line.c_alpha, line.c_beta
    if ca < 0:
        raise ValueError("floor helper needs a non-negative alpha coefficient")
    ratio = line.radicand_ratio
    # (A*alpha/L + B*beta/L)/beta with integer A, B over a common denominator L
    scale = ca.denominator * cb.denominator // _gcd(ca.denominator, cb.denominator)
    a_int = ca.numerator * (scale // ca.denominator)
    b_int = cb.numerator * (scale // cb.denominator)
    # value = (B + sqrt(A^2 * ratio)) / L; fold the rational ratio into d
    d_num = a_int * a_int * ratio.numerator
    return floor_surd(QuadraticSurd(b_int * ratio.denominator, d_num * ratio.denominator, scale * ratio.denominator))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _as_lambda_mu(phi: SurdLine) -> tuple[int, int]:
    # phi = (alpha - mu*beta)/lam for natural lam, mu
    lam = phi.c_alpha.denominator
    if phi.c_alpha != Fraction(1, lam):
        raise ValueError("increment factor is not of the form (alpha - mu*beta)/lam")
    mu_frac = -phi.c_beta * lam
    if mu_frac.denominator != 1 or mu_frac < 0:
        raise ValueError("increment factor is not of the form (alpha - mu*beta)/lam")
    return lam, int(mu_frac)


def euler_trace(N: int, max_steps: int | None = None) -> list[TraceStep]:
    """Drive the expansion of sqrt(N) purely through the line algebra.

    Each step inverts the current increment factor phi via its conjugate
    (no integer state recurrence is used, so this is an independent
    derivation of the quotients), reads off the quotient as the integer
    part of psi/beta, and subtracts to get the next factor. Stops when a
    phi repeats an earlier one, and raises StepLimitExceeded when more
    than max_steps factors pass without a repeat.
    """
    from .engine import StepLimitExceeded, pigeonhole_bound  # step safety net only

    if N < 2 or is_square_fraction(Fraction(N)):
        raise ValueError("N must be a non-square integer >= 2")
    if max_steps is None:
        max_steps = pigeonhole_bound(N) + 1

    m = _floor_over_beta(SurdLine(1, 0, N))
    phi = SurdLine(1, -m, N)  # alpha - m*beta
    seen: dict[tuple[Fraction, Fraction], int] = {}
    steps: list[TraceStep] = []
    k = 1
    while True:
        key = (phi.c_alpha, phi.c_beta)
        lam, mu = _as_lambda_mu(phi)
        if key in seen:
            steps.append(TraceStep(k, lam, mu, phi, None, None, None, None, None, seen[key]))
            return steps
        seen[key] = k
        if k > max_steps:
            raise StepLimitExceeded(
                f"trace of sqrt({N}) exceeded {max_steps} steps without repeating",
                [m] + [s.quotient for s in steps],
            )
        conj = conjugate(phi)
        prod = line_mul(phi, conj)
        constant = prod.c_bb * lam  # lam*phi*conj = constant*beta^2
        if prod.c_ab != 0 or constant.denominator != 1 or constant <= 0:
            raise RuntimeError("conjugacy product is not a positive rational multiple of beta^2")
        psi = inverse_wrt_beta_squared(phi)
        quotient = _floor_over_beta(psi)
        next_phi = psi - SurdLine(0, quotient, N)
        steps.append(TraceStep(k, lam, mu, phi, conj, int(constant), psi, quotient, next_phi, None))
        phi = next_phi
        k += 1


def _term(coeff: Fraction, symbol: str) -> str:
    if coeff == 1:
        return symbol
    return f"{coeff}*{symbol}"


def render_line(u: SurdLine, name: str) -> str:
    """Integer-scaled rendering 'L*name = A*alpha +/- B*beta'."""
    scale = u.c_alpha.denominator * u.c_beta.denominator // _gcd(u.c_alpha.denominator, u.c_beta.denominator)
    a = u.c_alpha * scale
    b = u.c_beta * scale
    lhs = _term(Fraction(scale), name)
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
    quotients = []
    for s in steps:
        kind = classify(s.phi)
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
