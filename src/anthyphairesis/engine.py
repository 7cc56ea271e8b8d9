"""Anthyphairesis driver: quotients of quadratic surds by exact integer state.

For sqrt(N) the whole expansion lives in the pair (mu_k, lam_k) of the
k-th increment factor phi_k = (alpha - mu_k*beta)/lam_k, alpha^2 = N*beta^2:

    lam_{k+1} = (N - mu_k^2) / lam_k        (exact division)
    I_k       = (m + mu_k) // lam_{k+1}     (m = isqrt(N))
    mu_{k+1}  = I_k*lam_{k+1} - mu_k

starting from (mu_1, lam_1) = (m, 1). Both mu_k^2 and lam_k stay below N,
so some state must recur; the first recurrence of a state is the Logos
criterion firing, and the quotients emitted between the two occurrences
are the exact (minimal) period. For sqrt(N) the state that recurs first
is always (m, 1), and lam_k = 1 holds nowhere inside the period, so the
period closes exactly when lam returns to 1 and no set of earlier states
is needed.

General surds run the same kind of step on the complete quotient
(p + sqrt(d))/q itself, whose state is the full normalized triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .bookx import SurdLine, line_mul
from .surd import QuadraticSurd, floor_surd, isqrt, normalize, sign_of

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

    expand_sqrt defaults to pigeonhole_bound(N) + 1, which provably
    suffices; expand_surd defaults to ten times the bound of the
    normalized radicand.
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


@dataclass(frozen=True)
class Expansion:
    """Quotients of one expansion: preperiod, period, and the state trail.

    terminated is True for rational inputs (finite quotient list in
    preperiod, empty period). For sqrt(N) inputs, mus and lams hold the
    plain-int trail (mu_k, lam_k) of phi_1 .. phi_{l+1} (one per emitted
    quotient, the last one repeating the first); for general surds,
    surds holds the normalized complete-quotient surds including the
    closing repeat.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    terminated: bool
    mus: tuple[int, ...] = ()
    lams: tuple[int, ...] = ()
    surds: tuple[QuadraticSurd, ...] = ()

    @property
    def quotients(self) -> tuple[int, ...]:
        return self.preperiod + self.period

    @cached_property
    def states(self) -> tuple:
        """AnthState views of the sqrt(N) trail, built on first use; else the surds."""
        if not self.mus:
            return self.surds
        return tuple(
            AnthState(mu, lam, k) for k, (mu, lam) in enumerate(zip(self.mus, self.lams), 1)
        )

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
    """Upper bound isqrt(N)*(N-1) on distinct (mu, lam) states.

    mu is at most isqrt(N) and 1 <= lam <= N-1 inside the expansion, so
    a state must repeat within bound + 1 steps.
    """
    if N < 2:
        raise ValueError("bound needs N >= 2")
    return isqrt(N) * (N - 1)


def expand_sqrt(N: int, limits: StepLimit = StepLimit()) -> Expansion:
    """Expansion of sqrt(N) for a positive integer N.

    Perfect squares terminate with the single quotient isqrt(N).
    Otherwise the result is preperiod [m] plus the minimal period, which
    closes when lam returns to 1 (the state (m, 1) recurring).
    """
    if N < 1:
        raise ValueError("N must be positive")
    m = isqrt(N)
    if m * m == N:
        return Expansion(preperiod=(m,), period=(), terminated=True)

    max_steps = limits.max_steps
    if max_steps is None:
        max_steps = pigeonhole_bound(N) + 1

    mu, lam = m, 1
    mus = [m]
    lams = [1]
    quots = [m]
    while True:
        lam_next, rem = divmod(N - mu * mu, lam)
        if rem:
            raise AssertionError(f"lost divisibility at step {len(quots)} of sqrt({N})")
        q = (m + mu) // lam_next
        mu = q * lam_next - mu
        lam = lam_next
        quots.append(q)
        mus.append(mu)
        lams.append(lam)
        if lam == 1:
            if mu != m:
                raise AssertionError(f"lam returned to 1 without mu = m in sqrt({N})")
            break
        if len(quots) > max_steps:
            raise StepLimitExceeded(f"sqrt({N}): no state repeated within {max_steps} steps", quots)

    return Expansion(
        preperiod=(m,), period=tuple(quots[1:]), terminated=False, mus=tuple(mus), lams=tuple(lams)
    )


def _expand_rational(value_num: int, value_den: int) -> Expansion:
    # ordinary continued fraction of a rational, finite
    quots = []
    num, den = value_num, value_den
    while True:
        q, r = divmod(num, den)
        quots.append(q)
        if r == 0:
            break
        num, den = den, r
    return Expansion(preperiod=tuple(quots), period=(), terminated=True)


def expand_surd(s: QuadraticSurd, limits: StepLimit = StepLimit()) -> Expansion:
    """Eventually periodic expansion of an arbitrary quadratic surd.

    Rational inputs give a finite terminated expansion. Otherwise the
    repeat test runs on the full normalized (p, d, q) complete-quotient
    state, which yields the preperiod/period split at the first index
    whose state recurs (eventual, not necessarily pure, periodicity).
    """
    s = normalize(s)
    if s.is_rational:
        v = s.rational_value()
        return _expand_rational(v.numerator, v.denominator)

    max_steps = limits.max_steps
    if max_steps is None:
        max_steps = 10 * pigeonhole_bound(s.d)

    cur = s
    seen = {cur: 0}
    states = [cur]
    quots: list[int] = []
    while True:
        a = floor_surd(cur)
        quots.append(a)
        p1 = cur.p - a * cur.q
        # reciprocal of (p1 + sqrt(d))/q stays over the same radicand
        # because q | (d - p1^2), inherited from normalization
        q_next, rem = divmod(cur.d - p1 * p1, cur.q)
        if rem:
            raise AssertionError(f"lost divisibility while expanding {s}")
        cur = QuadraticSurd(-p1, cur.d, q_next)
        j = seen.get(cur)
        states.append(cur)
        if j is not None:
            return Expansion(
                preperiod=tuple(quots[:j]),
                period=tuple(quots[j:]),
                terminated=False,
                surds=tuple(states),
            )
        seen[cur] = len(quots)
        if len(quots) > max_steps:
            raise StepLimitExceeded(f"{s}: no state repeated within {max_steps} steps", quots)


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
