"""Anthyphairesis driver: quotients of quadratic surds by exact integer state.

Every irrational input is a normalized complete quotient
x_0 = (p_0 + sqrt(d))/q_0, q_0 | d - p_0^2, and one recurrence on the
plain ints (p, q), with r = isqrt(d) computed once, emits every quotient:

    a_k     = (p_k + r) // q_k          ((p_k + r + 1) // q_k while q_k < 0)
    p_{k+1} = a_k*q_k - p_k
    q_{k+1} = (d - p_{k+1}^2) / q_k     (exact: each step checks q_{k+1}*q_k == d - p_{k+1}^2)

For sqrt(N) (p_0 = 0, q_0 = 1) this is the increment-factor recurrence
of phi_k = (alpha - mu_k*beta)/lam_k, alpha^2 = N*beta^2, with
mu_k = p_k and lam_k = q_{k-1}. By Galois's theorem x is purely periodic
exactly when it is reduced (x > 1, -1 < conj(x) < 0; on the state q > 0,
0 < p <= r < p + q, q - p <= r): the first reduced state ends the
preperiod and its recurrence closes the period (the Logos criterion), so
no set of earlier states is kept. For sqrt(N) that state is
x_1 = (m + sqrt(N))/(N - m^2). So the expansion runs in two phases: a
preperiod loop steps with the sign-aware floor until the state is
reduced, and a period loop, in which every state is reduced and so
q > 0, floors with (p + r) // q and only steps, records and tests for
the first reduced state's return. Reduced states lie in the box
1 <= p <= r, r - p < q <= r + p of r(r+1) pairs, so every period is
shorter than pigeonhole_bound(d) = r(r+1) + 1. For Pell alone, which
needs only the first half of the period, _to_centre runs the same
recurrence on sqrt(N) without a trail and stops at the period's centre.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from math import isqrt

from .bookx import Triple, _add, _is_beta_squared, _plus_beta, basis, sign_of
from .surd import QuadraticSurd, _budget, _exhausted, normalize

__all__ = [
    "Expansion",
    "expand_sqrt",
    "expand_surd",
    "increment_factors",
    "remainders",
]


# Peak bytes one step costs a command: an expansion holds 88 a step, its ints and
# tuple slots, and peaks at 106 while its lists turn into tuples; `expand --format
# json` peaks at 156 a step in all (sqrt(10^13+3), tracemalloc) and at 193 a step
# above the RSS of a fresh process (sqrt(10^14+3), period 625,024).
_TRAIL_STEP_BYTES = 1024

# Peak bytes one step to the centre of the period costs pell_solutions: its
# quotient list and their tuple come to 16.5 (sqrt(10^13+3), an even period),
# and with the half-period product and its checks to 24.2 (sqrt(10^12+61), an
# odd period, whose x*x is the largest int), tracemalloc. Charged about twice
# that; _TRAIL_STEP_BYTES keeps a wider margin, 1,024 against at most 193.
_CENTRE_STEP_BYTES = 48


class Expansion(namedtuple("Expansion", "preperiod period radicand trail", defaults=(0, ()))):
    """Quotients of one expansion: preperiod, period, and the state trail.

    A rational input has a finite quotient list in preperiod and an
    empty period, so it is terminated. Otherwise trail holds the complete
    quotients x_k = (p_k + sqrt(radicand))/q_k of the normalized input
    as the flat ints p_0, q_0, p_1, q_1, ...: one pair per emitted
    quotient plus the closing repeat of the first periodic state. For
    sqrt(N) (p_0 = 0, q_0 = 1), mus and lams view that trail as the
    increment-factor states (mu_k, lam_k) = (p_k, q_{k-1}) of
    phi_1 .. phi_{l+1}, the last one repeating the first; for other
    surds they are empty. preperiod, period and trail are tuples of ints;
    radicand is 0 for a rational input. An immutable named tuple.
    """

    __slots__ = ()

    @property
    def terminated(self) -> bool:
        return not self.period

    @property
    def quotients(self) -> tuple[int, ...]:
        return self.preperiod + self.period

    @property
    def mus(self) -> tuple[int, ...]:
        return self.trail[2::2] if self.trail[:2] == (0, 1) else ()

    @property
    def lams(self) -> tuple[int, ...]:
        return self.trail[1:-1:2] if self.trail[:2] == (0, 1) else ()

    def quotient_stream(self, count: int) -> list[int]:
        """First `count` quotients, recycling the period as needed."""
        return list(itertools.islice(itertools.chain(self.preperiod, itertools.cycle(self.period)), count))


def _palindromic(period: tuple[int, ...], m: int) -> bool:
    """The period minus its last quotient reads the same both ways, and the last quotient is 2*m."""
    interior = period[:-1]
    return interior == interior[::-1] and period[-1] == 2 * m


def expand_sqrt(N: int, max_steps: int | None = None) -> Expansion:
    """Expansion of sqrt(N) for a positive integer N.

    Perfect squares terminate with the single quotient isqrt(N).
    Otherwise the result is preperiod [m] plus the minimal period.
    max_steps is the step budget; None means the derived default.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return _anthyphairesis(0, N, 1, max_steps)


def expand_surd(s: QuadraticSurd, max_steps: int | None = None) -> Expansion:
    """Eventually periodic expansion of an arbitrary quadratic surd.

    Rational inputs give a finite terminated expansion. Otherwise the
    preperiod ends at the first reduced complete quotient and the period
    at its recurrence (see the module docstring). max_steps is as for
    expand_sqrt.
    """
    s = normalize(s)
    return _anthyphairesis(s.p, s.d, s.q, max_steps)


def _anthyphairesis(p: int, d: int, q: int, max_steps: int | None) -> Expansion:
    """The one recurrence, on the normalized (p + sqrt(d))/q, within _budget(q, d, max_steps)."""
    r = isqrt(d)
    if r * r == d:  # rational: Euclid on (p + r)/q
        return _expand_rational(p + r, q)
    max_steps, limit = _budget(q, d, max_steps, _TRAIL_STEP_BYTES)

    quots: list[int] = []
    trail = [p, q]
    while not (q > 0 and 0 < p <= r < p + q and q - p <= r):  # the preperiod
        if len(quots) > limit:
            raise _exhausted(f"{QuadraticSurd(trail[0], d, trail[1])}: no state repeated within", max_steps, limit)
        a = (p + r) // q if q > 0 else (p + r + 1) // q
        p = a * q - p
        t = d - p * p
        q_next = t // q
        if q_next * q != t:
            start = QuadraticSurd(trail[0], d, trail[1])
            raise AssertionError(f"lost divisibility at step {len(quots) + 1} of {start}")
        q = q_next
        quots.append(a)
        trail.append(p)
        trail.append(q)

    j, pj, qj = len(quots), p, q  # the first reduced state: from here on every state is reduced, so q > 0
    for k in range(j, limit + 1):
        a = (p + r) // q
        p = a * q - p
        t = d - p * p
        q_next = t // q
        if q_next * q != t:
            start = QuadraticSurd(trail[0], d, trail[1])
            raise AssertionError(f"lost divisibility at step {k + 1} of {start}")
        q = q_next
        quots.append(a)
        trail.append(p)
        trail.append(q)
        if p == pj and q == qj:
            # the trail's list is freed before the period's tuple is built, and that
            # tuple is built from quots itself, not from a quots[j:] slice beside it
            trail = tuple(trail)
            preperiod = tuple(quots[:j])
            del quots[:j]
            return tuple.__new__(Expansion, (preperiod, tuple(quots), d, trail))  # Expansion(...), without its Python __new__
    raise _exhausted(f"{QuadraticSurd(trail[0], d, trail[1])}: no state repeated within", max_steps, limit)


def _to_centre(N: int, max_steps: int | None = None) -> tuple[tuple[int, ...], bool]:
    """The first half of the period of sqrt(N), and whether the period is odd.

    Returns (period[:l // 2], l % 2 == 1) for the period of length l,
    without keeping a trail. The recurrence starts at the reduced
    x_1 = (m + sqrt(N))/(N - m^2), emits a_1, a_2, ... and stops at the
    reflection centre, where the states x_k and x_{k+1} mirror each
    other: q_{k+1} == q_k means l = 2k + 1 (l = 1 when q_1 == q_0 == 1),
    p_{k+1} == p_k means l = 2k. Neither happens earlier in the period.
    max_steps is expand_sqrt's budget, counted in steps to the centre:
    expand_sqrt(N) needs l steps, this loop l // 2. Each of them is
    charged the memory that it and the caller's half-period product hold,
    _CENTRE_STEP_BYTES, far less than a trail step.
    """
    m = isqrt(N)
    if m * m == N:
        raise ValueError("N must not be a perfect square")
    max_steps, limit = _budget(1, N, max_steps, _CENTRE_STEP_BYTES)
    p, q = m, N - m * m
    if q == 1:  # q_1 == q_0: the period is (2m,)
        return (), True
    quots: list[int] = []
    for _ in range(limit):
        a = (p + m) // q
        quots.append(a)
        p_next = a * q - p
        t = N - p_next * p_next
        q_next = t // q
        if q_next * q != t:
            raise AssertionError(f"lost divisibility at step {len(quots) + 1} of {QuadraticSurd(0, N, 1)}")
        if p_next == p:
            return tuple(quots), False
        if q_next == q:
            return tuple(quots), True
        p, q = p_next, q_next
    raise _exhausted(f"{QuadraticSurd(0, N, 1)}: centre of the period not reached within", max_steps, limit)


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
    return Expansion(preperiod=tuple(quots), period=())


def increment_factors(e: Expansion) -> Iterator[tuple[int, int]]:
    """The increment factors of an expand_sqrt(N) expansion, N its radicand, verified.

    Checks, per state, the divisibility lam | (N - mu^2) and the bound
    N < (mu + lam)^2 (phi < beta), and for every consecutive pair the
    area identity phi_k*(I_k*beta + phi_{k+1}) = beta^2. Then returns
    each phi_k = (alpha - mu_k*beta)/lam_k as its int pair (mu_k, lam_k),
    in one pass over the views it checked: an iterator, no tuple of pairs.
    """
    if e.terminated:
        raise ValueError("terminated expansion has no increment factors")
    N, mus, lams, quotients = e.radicand, e.mus, e.lams, e.quotients
    if not mus:
        raise ValueError("expansion does not carry integer increment-factor states")
    if mus[0] != isqrt(N):  # lams[0] is q_0 = 1: mus and lams view only a trail that starts (0, 1)
        raise ValueError(f"first state is not (isqrt(N), 1) for {QuadraticSurd.sqrt_of(N)}")
    pq = basis(N)
    for i, (mu, lam) in enumerate(zip(mus, lams)):
        if (N - mu * mu) % lam:
            raise ValueError(f"lam_k does not divide N - mu_k^2 for {QuadraticSurd.sqrt_of(N)}")
        if N >= (mu + lam) ** 2:
            raise ValueError(f"increment factor {i + 1} is not smaller than beta")
        if i + 1 < len(mus):
            rhs = _plus_beta((1, -mus[i + 1], lams[i + 1]), quotients[i + 1])  # I_k*beta + phi_{k+1}
            if not _is_beta_squared(pq, (1, -mu, lam), rhs):
                raise ValueError(f"inversion identity fails between factors {i + 1} and {i + 2}")
    return zip(mus, lams)


def remainders(N: int, count: int) -> tuple[Triple, ...]:
    """First `count` anthyphairetic remainders of (alpha, beta), alpha^2 = N*beta^2.

    e_1 = alpha - I_0*beta and e_{k+1} = e_{k-1} - I_k*e_k, with the
    quotient stream taken from expand_sqrt(N). Each remainder is a
    reduced line triple (a, b, den) for (a*alpha + b*beta)/den.
    Positivity and strict decrease of consecutive remainders are
    verified by exact sign.
    """
    if count < 1:
        raise ValueError("count must be positive")
    e = expand_sqrt(N)
    if e.terminated:
        raise ValueError("N must be a non-square")
    stream = e.quotient_stream(count)
    pq = basis(N)
    prev, cur = (1, 0, 1), (0, 1, 1)  # alpha, beta
    lines: list[Triple] = []
    for quotient in stream:
        nxt = _add(prev, (-quotient * cur[0], -quotient * cur[1], cur[2]))
        if sign_of(pq, nxt) <= 0:
            raise AssertionError(f"remainder {len(lines) + 1} of {QuadraticSurd.sqrt_of(N)} is not positive")
        drop = _add(cur, (-nxt[0], -nxt[1], nxt[2]))
        if sign_of(pq, drop) <= 0:
            raise AssertionError(f"remainder {len(lines) + 1} of {QuadraticSurd.sqrt_of(N)} does not decrease")
        lines.append(nxt)
        prev, cur = cur, nxt
    return tuple(lines)
