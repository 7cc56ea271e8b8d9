"""Reference expansion by literal subtract-and-invert, one surd per step.

Deliberately naive: no integer state recurrence, no period detection,
just floor, subtract, reciprocal on a fresh surd every step; whether
the input is rational is decided once, from the radicand no step
changes, and a rational steps as plain Euclid. Divergence between this
and the engine is the primary bug detector, so nothing here may share
stepping code with the engine. It stops at a count, so `anth approx`
reads its first quotients here, with no period.
"""

from __future__ import annotations

from .surd import QuadraticSurd, floor_surd, isqrt, normalize

__all__ = ["oracle_expand"]


def oracle_expand(s: QuadraticSurd, steps: int) -> list[int]:
    """First `steps` quotients of s, or fewer if s is rational and runs out."""
    out: list[int] = []
    cur = normalize(s)
    r = isqrt(cur.d)
    if r * r == cur.d:  # rational: plain Euclid on (p + r)/q, no scaling
        num, den = cur.p + r, cur.q
        for _ in range(steps):
            out.append(num // den)
            num, den = den, num % den
            if den == 0:
                break  # remainder zero: the value was exactly an integer step
        return out
    for _ in range(steps):
        k = floor_surd(cur)
        out.append(k)
        p1 = cur.p - k * cur.q  # remainder is (p1 + sqrt(d))/q, in (0, 1)
        den = cur.d - p1 * p1
        if den % cur.q != 0:
            raise AssertionError("oracle lost the divisibility invariant")
        # q/(p1 + sqrt(d)) = (-p1 + sqrt(d))/(den/q), normalized as built: den/q divides den
        cur = QuadraticSurd(-p1, cur.d, den // cur.q)
    return out
