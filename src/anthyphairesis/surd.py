"""Exact arithmetic for quadratic surds (p + sqrt(d)) / q.

Everything is integer or Fraction arithmetic: no floats anywhere, so
floors, signs and comparisons are exact for arbitrarily large operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "QuadraticSurd",
    "isqrt",
    "is_perfect_square",
    "is_square_fraction",
    "normalize",
    "floor_surd",
    "sign_of",
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


def is_square_fraction(value: Fraction | int) -> bool:
    """True iff value is the square of a rational."""
    f = Fraction(value)
    return f >= 0 and is_perfect_square(f.numerator) and is_perfect_square(f.denominator)


@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (p + sqrt(d)) / q with integer p, d >= 0, q != 0.

    The sign of q carries the sign of the irrational part: values whose
    sqrt(d) coefficient is negative can only be written with q < 0 in
    this representation. A surd is *normalized* when q divides d - p*p;
    that divisibility is what keeps the reciprocal-step of a continued
    fraction expansion inside the same radicand d.
    """

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("radicand must be non-negative")
        if self.q == 0:
            raise ValueError("denominator must be non-zero")

    @classmethod
    def sqrt_of(cls, n: int) -> "QuadraticSurd":
        return cls(0, n, 1)

    @classmethod
    def sqrt_of_rational(cls, num: int, den: int) -> "QuadraticSurd":
        # sqrt(num/den) = sqrt(num*den)/den
        if num < 0 or den <= 0:
            raise ValueError("radicand must be a non-negative rational")
        return cls(0, num * den, den)

    @property
    def is_rational(self) -> bool:
        return is_perfect_square(self.d)

    @property
    def is_normalized(self) -> bool:
        return (self.d - self.p * self.p) % self.q == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("surd is irrational")
        return Fraction(self.p + isqrt(self.d), self.q)

    def __str__(self) -> str:
        if self.p == 0 and self.q == 1:
            return f"sqrt({self.d})"
        return f"({self.p}+sqrt({self.d}))/{self.q}"


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
    if r * r == s.d:
        return (s.p + r) // s.q
    if s.q > 0:
        return (s.p + r) // s.q
    return (s.p + r + 1) // s.q


def sign_of(c_a: Fraction | int, c_b: Fraction | int, ratio: Fraction | int) -> int:
    """Exact sign of c_a*alpha + c_b*beta where alpha^2 = ratio*beta^2.

    alpha and beta are positive; ratio must be a positive non-square
    rational (otherwise the value can vanish with mixed-sign
    coefficients and the caller must use plain rational arithmetic).
    Returns -1, 0 or 1.
    """
    c_a = Fraction(c_a)
    c_b = Fraction(c_b)
    ratio = Fraction(ratio)
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if is_square_fraction(ratio):
        raise ValueError("ratio is a rational square; use the rational path")
    if c_a == 0 and c_b == 0:
        return 0
    if c_a >= 0 and c_b >= 0:
        return 1
    if c_a <= 0 and c_b <= 0:
        return -1
    # Mixed signs: compare |c_a*alpha| with |c_b*beta| by squaring.
    # Equality is impossible since ratio is not a rational square.
    alpha_part_wins = c_a * c_a * ratio > c_b * c_b
    if alpha_part_wins:
        return 1 if c_a > 0 else -1
    return 1 if c_b > 0 else -1
