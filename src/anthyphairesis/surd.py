"""Exact arithmetic for quadratic surds (p + sqrt(d)) / q.

Everything is integer arithmetic, with no floats anywhere, so floors
and square tests are exact for arbitrarily large operands.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "QuadraticSurd",
    "isqrt",
    "is_perfect_square",
    "normalize",
    "floor_surd",
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

    Integers too long for one str() call are split at a power of ten into
    halves, rendered separately and joined, so output never hits the limit
    (sys.set_int_max_str_digits), which stays in force for parsing input.
    """
    try:
        return str(n)
    except ValueError:  # over the limit
        pass
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
    scaled denominator divide the scaled d - p*p exactly.
    """
    if (s.d - s.p * s.p) % s.q == 0:
        return s
    a = abs(s.q)
    return QuadraticSurd(s.p * a, s.d * s.q * s.q, s.q * a)


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
