"""The convergents (best rational approximations) of an expansion, and Pell solutions.

The usual three-term recurrence p_k = a_k*p_{k-1} + p_{k-2} over the
quotient stream, plus the classical payoff of a detected period: the
fundamental solution of x^2 - N*y^2 = 1 sits at the end of the first
period (even period length) or the second (odd).

Pell solutions are not read off that recurrence. With M(a) = [[a,1],[1,0]],
the convergent (p, q) closing the first period is the first column of
M(m)*P, where P is the product over the period's interior a_1 .. a_{l-1}.
The interior is a palindrome and every M(a) is symmetric, so P = H*H^T
(even interior) or H*M(centre)*H^T (odd interior) with H = M(a_1)..M(a_h)
over the first half only. H is built by binary splitting, a balanced
product tree whose big multiplications pair operands of equal size.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .engine import Expansion, expand_sqrt
from .surd import isqrt

__all__ = ["convergents", "pell_fundamental", "pell_negative", "pell_solutions"]


def convergents(e: Expansion, count: int) -> Iterator[tuple[int, int]]:
    """The first `count` convergents (p_k, q_k) of an expansion, one at a time.

    Seeds (1, 0) and (0, 1); period quotients are recycled cyclically.
    A terminated (rational) expansion yields at most as many convergents
    as it has quotients. A caller that reads each pair once keeps only
    one alive. count < 1 raises ValueError when iteration starts.
    """
    if count < 1:
        raise ValueError("count must be positive")
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a in e.quotient_stream(count):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


_Matrix = tuple[int, int, int, int]  # [[a, b], [c, d]] row by row

_LEAF = 32  # quotients multiplied left to right at a leaf of the product tree


def _matrix_product(quotients: Sequence[int], lo: int, hi: int) -> _Matrix:
    """M(a_lo) * ... * M(a_{hi-1}) by binary splitting; the identity when lo == hi."""
    if hi - lo <= _LEAF:
        a, b, c, d = 1, 0, 0, 1
        for k in range(lo, hi):
            q = quotients[k]
            a, b, c, d = a * q + b, a, c * q + d, c
        return (a, b, c, d)
    mid = (lo + hi) // 2
    a, b, c, d = _matrix_product(quotients, lo, mid)
    e, f, g, h = _matrix_product(quotients, mid, hi)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def pell_solutions(
    N: int, e: Optional[Expansion] = None
) -> tuple[tuple[int, int], Optional[tuple[int, int]]]:
    """Fundamental solution of x^2 - N*y^2 = 1, and of x^2 - N*y^2 = -1 or None.

    e is expand_sqrt(N) when the caller already has it; otherwise N is
    expanded here. Only the first half of the period's interior is
    multiplied out (see the module docstring). For an odd period the
    half-period convergent (p, q) solves the -1 equation and
    (p^2 + N*q^2, 2*p*q) is the fundamental solution; for an even one
    (p, q) is the fundamental solution and there is no -1 solution. Both
    equations are verified by direct multiplication before returning.
    """
    if e is None:
        e = expand_sqrt(N)
    if e.terminated:
        raise ValueError("N must not be a perfect square")
    m = isqrt(N)
    if e.radicand != N or e.preperiod != (m,):
        raise ValueError(f"expansion does not belong to sqrt({N})")
    period = e.period
    l = len(period)
    interior = period[:-1]
    if interior != interior[::-1] or period[-1] != 2 * m:
        raise AssertionError(f"period of sqrt({N}) is not palindromic")

    h = (l - 1) // 2
    a, b, c, d = _matrix_product(interior, 0, h)
    if l % 2:  # even interior: P = H*H^T
        p00, p10 = a * a + b * b, a * c + b * d
    else:  # odd interior: P = H*M(centre)*H^T
        centre = interior[h]
        p00, p10 = a * (a * centre + 2 * b), (c * centre + d) * a + c * b
    p, q = m * p00 + p10, p00

    if l % 2 == 0:
        if p * p - N * q * q != 1:
            raise AssertionError(f"period-end convergent of sqrt({N}) does not solve Pell")
        return (p, q), None
    if p * p - N * q * q != -1:
        raise AssertionError(f"odd-period convergent of sqrt({N}) does not solve negative Pell")
    x, y = p * p + N * q * q, 2 * p * q
    if x * x - N * y * y != 1:
        raise AssertionError(f"squared odd-period convergent of sqrt({N}) does not solve Pell")
    return (x, y), (p, q)


def pell_fundamental(N: int) -> tuple[int, int]:
    """Smallest positive (x, y) with x*x - N*y*y == 1, N non-square."""
    return pell_solutions(N)[0]


def pell_negative(N: int) -> tuple[int, int] | None:
    """Smallest (x, y) with x*x - N*y*y == -1, or None when the period is even."""
    return pell_solutions(N)[1]
