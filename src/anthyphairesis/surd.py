"""Exact arithmetic for quadratic surds (p + sqrt(d)) / q, and the budget net of every loop over them.

Everything is integer arithmetic, with no floats anywhere, so floors
and square tests are exact for arbitrarily large operands.

The budget net bounds the engine's loops and the symbolic trace alike
and steps nothing itself: _budget gives a loop its steps (by default
from pigeonhole_bound, capped by _memory_steps), and _exhausted names
StepLimitExceeded or ResourceLimitExceeded when they run out.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import sys
from collections import namedtuple

__all__ = [
    "QuadraticSurd",
    "isqrt",
    "is_perfect_square",
    "normalize",
    "floor_surd",
    "ResourceLimitExceeded",
    "StepLimitExceeded",
    "pigeonhole_bound",
]


def isqrt(n: int) -> int:
    """math.isqrt: the unique r with r*r <= n < (r+1)*(r+1); ValueError if n < 0.

    A Python function rather than an alias, so that the span tracing in
    bench/tracing.py, which wraps functions only, still sees it.
    """
    return math.isqrt(n)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _dec(n: int) -> str:
    """Decimal digits of an exact integer, whatever Python's int-to-str limit is.

    An integer of 3*limit bits or more, which may have more digits than the
    limit (sys.set_int_max_str_digits) allows, is split at a power of ten into
    halves, rendered separately and joined: no str() call hits the limit, which stays in force for parsing input.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (int() where Python has no limit): no limit
    if not limit or n.bit_length() < 3 * limit:  # then |n| < 8**limit: at most limit digits, and str() holds them
        return str(n)
    if n < 0:
        return "-" + _dec(-n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits, so 10**k < n
    high, low = divmod(n, 10**k)
    return _dec(high) + _dec(low).zfill(k)


class QuadraticSurd(namedtuple("QuadraticSurd", "p d q")):
    """The real number (p + sqrt(d)) / q with integer p, d >= 0, q != 0.

    The sign of q carries the sign of the irrational part: values whose
    sqrt(d) coefficient is negative can only be written with q < 0 in
    this representation. A surd is *normalized* when q divides d - p*p;
    that divisibility is what keeps the reciprocal-step of a continued
    fraction expansion inside the same radicand d.

    An immutable named tuple (p, d, q), so it equals the plain tuple of
    its fields; _replace and unpickling validate as construction does.
    """

    __slots__ = ()

    def __new__(cls, p: int, d: int, q: int) -> QuadraticSurd:
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if q == 0:
            raise ValueError("denominator must be non-zero")
        return tuple.__new__(cls, (p, d, q))

    @classmethod
    def _make(cls, iterable) -> QuadraticSurd:  # used by _replace
        return cls(*iterable)

    @classmethod
    def sqrt_of(cls, n: int) -> "QuadraticSurd":
        return cls(0, n, 1)

    @classmethod
    def sqrt_of_rational(cls, num: int, den: int) -> "QuadraticSurd":
        # sqrt(num/den) = sqrt(num*den)/den
        if num < 0 or den <= 0:
            raise ValueError("radicand must be a non-negative rational")
        return cls(0, num * den, den)

    def __str__(self) -> str:
        if self.p == 0 and self.q == 1:
            return f"sqrt({_dec(self.d)})"
        return f"({_dec(self.p)}+sqrt({_dec(self.d)}))/{_dec(self.q)}"


def normalize(s: QuadraticSurd) -> QuadraticSurd:
    """Return an equal-valued surd with q | (d - p*p). Idempotent.

    When the divisibility fails, (p, q, d) is scaled to
    (p*|q|, q*|q|, d*q*q), which preserves the value and makes the
    scaled denominator divide the scaled d - p*p exactly. The scaled
    (p', d', q') is checked to have the input's value: p*q' == p'*q,
    d*q'^2 == d'*q^2 and q*q' > 0.
    """
    if (s.d - s.p * s.p) % s.q == 0:
        return s
    a = abs(s.q)
    t = QuadraticSurd(s.p * a, s.d * s.q * s.q, s.q * a)
    if s.p * t.q != t.p * s.q or s.d * t.q * t.q != t.d * s.q * s.q or s.q * t.q <= 0:
        raise AssertionError(f"normal form {t} does not have the value of {s}")
    return t


def floor_surd(s: QuadraticSurd) -> int:
    """Exact floor of (p + sqrt(d)) / q, any signs.

    For non-square d, an integer t satisfies t <= sqrt(d) iff t <= r and
    t >= sqrt(d) iff t >= r + 1, where r = isqrt(d); that turns the
    floor into a single floored integer division.
    """
    r = isqrt(s.d)
    if s.q > 0 or r * r == s.d:
        return (s.p + r) // s.q
    return (s.p + r + 1) // s.q


class StepLimitExceeded(RuntimeError):
    """Raised when the step budget runs out before a state repeats.

    With the default limits this indicates a bug, never a property of
    the input, so it is surfaced loudly instead of truncating.
    """


class ResourceLimitExceeded(RuntimeError):
    """Raised when an expansion would outgrow this process's memory.

    Every step budget is capped so that the steps fit in the address-space
    limit (RLIMIT_AS) or, when none is set, in physical memory. Hitting
    that cap is a property of the input and the machine, not a bug, and
    it comes before a MemoryError would.
    """


@functools.cache
def _memory_steps(bytes_per_step: int) -> int:
    """How many steps of bytes_per_step fit in this process's memory, worked out on first use.

    The memory is the address-space limit (RLIMIT_AS), else physical memory.
    """
    memory, _ = resource.getrlimit(resource.RLIMIT_AS)
    if memory == resource.RLIM_INFINITY:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return memory // bytes_per_step


def pigeonhole_bound(N: int) -> int:
    """One more than the number of reduced states over radicand N.

    A reduced state (p, q) has 1 <= p <= m and m - p < q <= m + p, with
    m = isqrt(N): 2p values of q for each p, m(m+1) states in all. A
    period visits each at most once, so period < bound for every N >= 2.
    """
    if N < 2:
        raise ValueError("bound needs N >= 2")
    m = math.isqrt(N)
    return m * (m + 1) + 1


def _budget(q: int, d: int, max_steps: int | None, bytes_per_step: int) -> tuple[int, int]:
    """The step budget of an expansion of (p + sqrt(d))/q, and the steps it may take.

    The default budget (max_steps None) is a preperiod term plus a period
    term, |q|.bit_length() + 2 + pigeonhole_bound(d), which provably
    suffices. Preperiod: with convergents P_k/Q_k of x,
    conj(x_k) = -(Q_{k-2}*conj(x) - P_{k-2})/(Q_{k-1}*conj(x) - P_{k-1}).
    For k >= 2, x lies between these convergents, 1/(Q_{k-2}*Q_{k-1})
    apart, and x - conj(x) = 2*sqrt(d)/q; once Q_{k-2}*Q_{k-1} >
    |q|/(2*sqrt(d)), conj(x) lies outside them, so conj(x_k) < 0 and
    x_{k+1} = 1/(x_k - a_k) is reduced.
    Q_{k-2}*Q_{k-1} >= 2^(k-2) (Fibonacci growth), so k = |q|.bit_length()
    + 1 suffices. Period: fewer steps than pigeonhole_bound(d).
    Whatever the budget, the steps, at bytes_per_step each, must also fit
    in memory (see ResourceLimitExceeded); the second value is the budget
    capped that way.
    """
    if max_steps is None:
        max_steps = abs(q).bit_length() + 2 + pigeonhole_bound(d)
    limit = _memory_steps(bytes_per_step)
    if max_steps < limit:  # not min(): a sweep makes thousands of short calls
        limit = max_steps
    return max_steps, limit


def _exhausted(head: str, max_steps: int, limit: int, tail: str = "") -> RuntimeError:
    """The error for a loop that ran out of its limit of steps: head, the count, then tail or the memory reason."""
    if limit == max_steps:
        return StepLimitExceeded(f"{head} {max_steps} steps{tail}")
    return ResourceLimitExceeded(f"{head} {limit} steps, all that fit in memory")
