"""Reference expansion by literal subtract-and-invert, one surd per step.

Deliberately naive: no integer state recurrence, no period detection,
just floor, subtract, reciprocal on a fresh normalized surd every step.
Divergence between this and the engine is the primary bug detector, so
nothing here may share stepping code with the engine.
"""

from __future__ import annotations

from collections.abc import Sequence

from .surd import QuadraticSurd, floor_surd, isqrt, normalize

__all__ = ["oracle_expand", "oracle_is_palindrome"]


def oracle_expand(s: QuadraticSurd, steps: int) -> list[int]:
    """First `steps` quotients of s, or fewer if s is rational and runs out."""
    out: list[int] = []
    cur = normalize(s)
    for _ in range(steps):
        k = floor_surd(cur)
        out.append(k)
        p1 = cur.p - k * cur.q  # remainder is (p1 + sqrt(d))/q, in [0, 1)
        if cur.is_rational:
            r = isqrt(cur.d)
            if p1 + r == 0:
                break  # remainder zero: the value was exactly an integer step
            # reciprocal of the rational (p1 + r)/q
            cur = normalize(QuadraticSurd(cur.q, 0, p1 + r))
            continue
        # conjugate-and-scale reciprocal: q/(p1 + sqrt(d)) = (-p1 + sqrt(d)) / ((d - p1*p1)/q)
        den = cur.d - p1 * p1
        if den % cur.q != 0:
            raise AssertionError("oracle lost the divisibility invariant")
        cur = normalize(QuadraticSurd(-p1, cur.d, den // cur.q))
    return out


def oracle_is_palindrome(seq: Sequence[int]) -> bool:
    return list(seq) == list(reversed(seq))
