"""Anthyphairesis driver: quotients of quadratic surds by exact integer state.

Every irrational input is a normalized complete quotient
x_0 = (p_0 + sqrt(d))/q_0, q_0 | d - p_0^2, and one recurrence on the
plain ints (p, q), with r = isqrt(d) computed once, emits every quotient:

    a_k     = (p_k + r) // q_k          ((p_k + r + 1) // q_k while q_k < 0)
    p_{k+1} = a_k*q_k - p_k
    q_{k+1} = (d - p_{k+1}^2) / q_k     (exact division)

For sqrt(N) (p_0 = 0, q_0 = 1) this is the increment-factor recurrence
of phi_k = (alpha - mu_k*beta)/lam_k, alpha^2 = N*beta^2, with
mu_k = p_k and lam_k = q_{k-1}. By Galois's theorem x is purely periodic
exactly when it is reduced (x > 1, -1 < conj(x) < 0; on the state q > 0,
0 < p <= r < p + q, q - p <= r): the first reduced state ends the
preperiod and its recurrence closes the period (the Logos criterion), so
no set of earlier states is kept. For sqrt(N) that state is
x_1 = (m + sqrt(N))/(N - m^2). Reduced states lie in the box
1 <= p <= r, r - p < q <= r + p of r(r+1) pairs, so every period is
shorter than pigeonhole_bound(d) = r(r+1) + 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .bookx import SurdLine, line_mul
from .surd import QuadraticSurd, normalize, sign_of

__all__ = [
    "AnthState",
    "Expansion",
    "IncrementFactor",
    "StepLimit",
    "StepLimitExceeded",
    "expand_sqrt",
    "expand_surd",
    "increment_factors",
    "remainders",
    "pigeonhole_bound",
]


@dataclass(frozen=True)
class AnthState:
    """State (mu, lam) of one increment factor; equality is the Logos trigger.

    step_index is 1-based bookkeeping and excluded from equality, so two
    states compare equal exactly when they denote the same line
    (alpha - mu*beta)/lam.
    """

    mu: int
    lam: int
    step_index: int = field(compare=False)


@dataclass(frozen=True)
class IncrementFactor:
    """The line phi_k = (alpha - mu_k*beta)/lam_k, wrapped with its state."""

    state: AnthState

    def as_line(self, radicand: int) -> SurdLine:
        lam = self.state.lam
        return SurdLine(Fraction(1, lam), Fraction(-self.state.mu, lam), Fraction(radicand))


@dataclass(frozen=True)
class StepLimit:
    """Step budget for an expansion; None means the derived default.

    For the normalized (p + sqrt(d))/q the default is a preperiod term
    plus a period term, |q|.bit_length() + 2 + pigeonhole_bound(d), which
    provably suffices. Preperiod: with convergents P_k/Q_k of x,
    conj(x_k) = -(Q_{k-2}*conj(x) - P_{k-2})/(Q_{k-1}*conj(x) - P_{k-1}).
    For k >= 2, x lies between these convergents, 1/(Q_{k-2}*Q_{k-1})
    apart, and x - conj(x) = 2*sqrt(d)/q; once Q_{k-2}*Q_{k-1} >
    |q|/(2*sqrt(d)), conj(x) lies outside them, so conj(x_k) < 0 and
    x_{k+1} = 1/(x_k - a_k) is reduced.
    Q_{k-2}*Q_{k-1} >= 2^(k-2) (Fibonacci growth), so k = |q|.bit_length()
    + 1 suffices. Period: fewer steps than pigeonhole_bound(d).
    """

    max_steps: Optional[int] = None


class StepLimitExceeded(RuntimeError):
    """Raised when the step budget runs out before a state repeats.

    With the default limits this indicates a bug, never a property of
    the input, so it is surfaced loudly instead of truncating.
    """

    def __init__(self, message: str, quotients_so_far: Sequence[int]):
        super().__init__(message)
        self.quotients_so_far = tuple(quotients_so_far)

    def __reduce__(self):  # rebuilt from both arguments, so it crosses a process boundary
        return type(self), (self.args[0], self.quotients_so_far)


@dataclass(frozen=True)
class Expansion:
    """Quotients of one expansion: preperiod, period, and the state trail.

    terminated is True for rational inputs (finite quotient list in
    preperiod, empty period). Otherwise trail holds the complete
    quotients x_k = (p_k + sqrt(radicand))/q_k of the normalized input
    as the flat ints p_0, q_0, p_1, q_1, ...: one pair per emitted
    quotient plus the closing repeat of the first periodic state. For
    sqrt(N) (p_0 = 0, q_0 = 1), mus and lams view that trail as the
    increment-factor states (mu_k, lam_k) = (p_k, q_{k-1}) of
    phi_1 .. phi_{l+1}, the last one repeating the first; for other
    surds they are empty.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    terminated: bool
    radicand: int = 0
    trail: tuple[int, ...] = ()

    @property
    def quotients(self) -> tuple[int, ...]:
        return self.preperiod + self.period

    @property
    def mus(self) -> tuple[int, ...]:
        return self.trail[2::2] if self.trail[:2] == (0, 1) else ()

    @property
    def lams(self) -> tuple[int, ...]:
        return self.trail[1:-1:2] if self.trail[:2] == (0, 1) else ()

    @cached_property
    def states(self) -> tuple:
        """Views of the trail built on first use: AnthStates for sqrt(N), else QuadraticSurds."""
        mus = self.mus
        if mus:
            return tuple(AnthState(mu, lam, k) for k, (mu, lam) in enumerate(zip(mus, self.lams), 1))
        t = self.trail
        return tuple(QuadraticSurd(t[i], self.radicand, t[i + 1]) for i in range(0, len(t), 2))

    def quotient_stream(self, count: int) -> list[int]:
        """First `count` quotients, recycling the period as needed."""
        if self.terminated or not self.period:
            return list(self.preperiod[:count])
        stream = list(self.preperiod)
        cycle = itertools.cycle(self.period)
        while len(stream) < count:
            stream.append(next(cycle))
        return stream[:count]


def pigeonhole_bound(N: int) -> int:
    """One more than the number of reduced states over radicand N.

    A reduced state (p, q) has 1 <= p <= m and m - p < q <= m + p, with
    m = isqrt(N): 2p values of q for each p, m(m+1) states in all. A
    period visits each at most once, so period < bound for every N >= 2.
    """
    if N < 2:
        raise ValueError("bound needs N >= 2")
    m = isqrt(N)
    return m * (m + 1) + 1


def expand_sqrt(N: int, limits: StepLimit = StepLimit()) -> Expansion:
    """Expansion of sqrt(N) for a positive integer N.

    Perfect squares terminate with the single quotient isqrt(N).
    Otherwise the result is preperiod [m] plus the minimal period.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return _anthyphairesis(0, N, 1, limits.max_steps)


def expand_surd(s: QuadraticSurd, limits: StepLimit = StepLimit()) -> Expansion:
    """Eventually periodic expansion of an arbitrary quadratic surd.

    Rational inputs give a finite terminated expansion. Otherwise the
    preperiod ends at the first reduced complete quotient and the period
    at its recurrence (see the module docstring).
    """
    s = normalize(s)
    return _anthyphairesis(s.p, s.d, s.q, limits.max_steps)


def _anthyphairesis(p: int, d: int, q: int, max_steps: Optional[int]) -> Expansion:
    """The one recurrence, on the normalized (p + sqrt(d))/q."""
    r = isqrt(d)
    if r * r == d:  # rational: Euclid on (p + r)/q
        return _expand_rational(p + r, q)
    if max_steps is None:
        max_steps = abs(q).bit_length() + 2 + pigeonhole_bound(d)

    quots: list[int] = []
    trail = [p, q]
    j = pj = qj = None  # index and state of the first reduced complete quotient
    while True:
        if j is None:
            if q > 0 and 0 < p <= r < p + q and q - p <= r:
                j, pj, qj = len(quots), p, q
        elif p == pj and q == qj:
            break
        if len(quots) > max_steps:
            start = QuadraticSurd(trail[0], d, trail[1])
            raise StepLimitExceeded(f"{start}: no state repeated within {max_steps} steps", quots)
        a = (p + r) // q if q > 0 else (p + r + 1) // q
        p = a * q - p
        q, rem = divmod(d - p * p, q)
        if rem:
            start = QuadraticSurd(trail[0], d, trail[1])
            raise AssertionError(f"lost divisibility at step {len(quots) + 1} of {start}")
        quots.append(a)
        trail.append(p)
        trail.append(q)

    return Expansion(
        preperiod=tuple(quots[:j]),
        period=tuple(quots[j:]),
        terminated=False,
        radicand=d,
        trail=tuple(trail),
    )


def _expand_rational(num: int, den: int) -> Expansion:
    # ordinary continued fraction of num/den, finite; floored divmod gives
    # the same quotients for any nonzero scaling of the pair
    quots = []
    while True:
        a, rem = divmod(num, den)
        quots.append(a)
        if rem == 0:
            break
        num, den = den, rem
    return Expansion(preperiod=tuple(quots), period=(), terminated=True)


def increment_factors(e: Expansion, N: int) -> tuple[IncrementFactor, ...]:
    """The increment factors of an expand_sqrt(N) expansion, verified.

    Checks, per state, the divisibility lam | (N - mu^2) and the bound
    N < (mu + lam)^2 (phi < beta), and for every consecutive pair the
    area identity phi_k*(I_k*beta + phi_{k+1}) = beta^2.
    """
    _require_sqrt_expansion(e)
    if not e.states or e.states[0].mu != isqrt(N) or e.states[0].lam != 1:
        raise ValueError(f"expansion does not belong to sqrt({N})")
    factors = tuple(IncrementFactor(st) for st in e.states)
    beta_sq = line_mul(SurdLine(0, 1, N), SurdLine(0, 1, N))
    for i, f in enumerate(factors):
        mu, lam = f.state.mu, f.state.lam
        if (N - mu * mu) % lam:
            raise ValueError(f"expansion does not belong to sqrt({N})")
        if N >= (mu + lam) ** 2:
            raise ValueError(f"increment factor {i + 1} is not smaller than beta")
        if i + 1 < len(factors):
            quotient = e.quotients[i + 1]
            lhs = line_mul(
                f.as_line(N),
                factors[i + 1].as_line(N) + SurdLine(0, quotient, N),
            )
            if lhs != beta_sq:
                raise ValueError(f"inversion identity fails between factors {i + 1} and {i + 2}")
    return factors


def _require_sqrt_expansion(e: Expansion) -> None:
    if e.terminated:
        raise ValueError("terminated expansion has no increment factors")
    if not e.mus:
        raise ValueError("expansion does not carry integer increment-factor states")


def remainders(N: int, count: int) -> tuple[SurdLine, ...]:
    """First `count` anthyphairetic remainders of (alpha, beta), alpha^2 = N*beta^2.

    e_1 = alpha - I_0*beta and e_{k+1} = e_{k-1} - I_k*e_k, with the
    quotient stream taken from expand_sqrt(N). Positivity and strict
    decrease of consecutive remainders are verified by exact sign.
    """
    if count < 1:
        raise ValueError("count must be positive")
    e = expand_sqrt(N)
    if e.terminated:
        raise ValueError("N must be a non-square")
    stream = e.quotient_stream(count)
    alpha = SurdLine(1, 0, N)
    beta = SurdLine(0, 1, N)
    prev, cur = alpha, beta
    lines: list[SurdLine] = []
    for quotient in stream:
        nxt = prev - cur.scaled(quotient)
        if sign_of(nxt.c_alpha, nxt.c_beta, N) <= 0:
            raise AssertionError(f"remainder {len(lines) + 1} of sqrt({N}) is not positive")
        if sign_of(cur.c_alpha - nxt.c_alpha, cur.c_beta - nxt.c_beta, N) <= 0:
            raise AssertionError(f"remainder {len(lines) + 1} of sqrt({N}) does not decrease")
        lines.append(nxt)
        prev, cur = cur, nxt
    return tuple(lines)
