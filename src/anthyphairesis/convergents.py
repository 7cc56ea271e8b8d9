"""The convergents (best rational approximations) of a quotient stream, and Pell solutions.

The usual three-term recurrence p_k = a_k*p_{k-1} + p_{k-2} over any
stream of quotients (an expansion's quotient_stream, or the oracle's
first K quotients, which need no period), plus the classical payoff of
a detected period: the fundamental solution of x^2 - N*y^2 = 1 sits at
the end of the first period (even period length) or the second (odd).

Pell solutions are not read off that recurrence. With M(a) = [[a,1],[1,0]],
the convergent (p, q) closing the first period is the first column of
M(m)*P, where P is the product over the period's interior a_1 .. a_{l-1}.
The interior is a palindrome and every M(a) is symmetric, so P = H*H^T
(even interior) or H*M(centre)*H^T (odd interior) with H = M(a_1)..M(a_h)
over the first half only. H is built by binary splitting, a balanced
product tree whose big multiplications pair operands of equal size.
So the half period a_1 .. a_{l//2} and the parity of l are all the
product needs: pell_solutions(N) takes them from a trail-free expansion
that stops at the centre of the period; pell_solutions(e), given
e = expand_sqrt(N), reads N off e, checks the palindrome, slices the period.

`anth verify` compares the convergent at the period end (k = l - 1 for an
even period length l, 2l - 1 for an odd one), _last_convergent's product of
convergents() runs, with pell_solutions' pair: the two share no code. It
checks the quality of the convergents without forming them:
N_k = p_k^2 - N*q_k^2 and M_k = p_k*p_{k-1} - N*q_k*q_{k-1} follow
N_{k+1} = a^2*N_k + 2a*M_k + N_{k-1} and M_{k+1} = a*N_k + M_k, with
a = a_{k+1} and seeds N_{-2} = -N, N_{-1} = 1, M_{-1} = 0, in ints below 2*sqrt(N).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .engine import Expansion, _to_centre
from .palindrome import _palindromic
from .surd import QuadraticSurd, isqrt

__all__ = ["convergents", "pell_fundamental", "pell_negative", "pell_solutions"]


def convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The convergents (p_k, q_k) of a quotient stream, one per quotient, one at a time.

    Seeds (1, 0) and (0, 1). Each quotient is read only when its
    convergent is asked for, and a caller that reads each pair once keeps
    only one alive.
    """
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


def _last_convergent(quotients: Sequence[int]) -> tuple[int, int]:
    """The last convergent (p, q) of a non-empty quotient list. Each run of 64 quotients goes through
    convergents() to the matrix [[p, p'], [q, q']] of its last two; these multiply in pairs, level by level."""
    level = []
    for i in range(0, len(quotients), 64):
        *_, (p1, q1), (p, q) = (1, 0), *convergents(quotients[i : i + 64])  # (1, 0) is (p_{-1}, q_{-1})
        level.append((p, p1, q, q1))
    while len(level) > 1:  # an odd last matrix goes up a level as it is
        odd = level[-1:] if len(level) % 2 else []
        level = [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                 for (a, b, c, d), (e, f, g, h) in zip(level[::2], level[1::2])] + odd
    return level[0][0], level[0][2]


_Matrix = tuple[int, int, int, int]  # [[a, b], [c, d]] row by row

_LEAF = 32  # quotients multiplied left to right at a leaf; 32, 64 and 128 time within 10% on pell_long


def _matrix_product(quotients: Sequence[int], lo: int, hi: int) -> _Matrix:
    """M(a_lo) * ... * M(a_{hi-1}) by binary splitting; the identity when lo == hi."""
    if hi - lo <= _LEAF:  # row by row: [a, b]*M(q) = [a*q + b, a]
        a, b, c, d = 1, 0, 0, 1
        for q in quotients[lo:hi]:
            a, b = a * q + b, a
            c, d = c * q + d, c
        return (a, b, c, d)
    mid = (lo + hi) // 2
    a, b, c, d = _matrix_product(quotients, lo, mid)
    e, f, g, h = _matrix_product(quotients, mid, hi)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def pell_solutions(
    source: int | Expansion, max_steps: int | None = None
) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """Fundamental solution of x^2 - N*y^2 = 1, and of x^2 - N*y^2 = -1 or None.

    source is N, expanded here only up to the centre of its period within
    max_steps steps to the centre (None means the default budget), or
    expand_sqrt(N) when the caller already has it: N is then its radicand,
    and its period must be palindromic. Only the first half of the
    period's interior is multiplied out (see the module docstring). For an odd
    period the half-period convergent (p, q) solves the -1 equation and
    (p^2 + N*q^2, 2*p*q) is the fundamental solution; for an even one
    (p, q) is the fundamental solution and there is no -1 solution. Both
    equations are verified by direct multiplication before returning.
    """
    if isinstance(source, Expansion):
        if source.terminated:
            raise ValueError("N must not be a perfect square")
        N, period = source.radicand, source.period
        m = isqrt(N)
        if source.preperiod != (m,):
            raise ValueError(f"preperiod is not (isqrt(N),) for {QuadraticSurd.sqrt_of(N)}")
        if not _palindromic(period, m):
            raise AssertionError(f"period of {QuadraticSurd.sqrt_of(N)} is not palindromic")
        half, odd = period[: len(period) // 2], len(period) % 2 == 1
    else:
        N, m = source, isqrt(source)
        half, odd = _to_centre(N, max_steps)

    if odd:  # even interior a_1 .. a_{2h}: P = H*H^T
        a, b, c, d = _matrix_product(half, 0, len(half))
        p00, p10 = a * a + b * b, a * c + b * d
    else:  # odd interior: P = H*M(centre)*H^T, the centre closing the half
        a, b, c, d = _matrix_product(half, 0, len(half) - 1)
        centre = half[-1]
        p00, p10 = a * (a * centre + 2 * b), (c * centre + d) * a + c * b
    p, q = m * p00 + p10, p00
    pp, nqq = p * p, N * q * q

    if not odd:
        if pp - nqq != 1:
            raise AssertionError(f"period-end convergent of {QuadraticSurd.sqrt_of(N)} does not solve Pell")
        return (p, q), None
    if pp - nqq != -1:
        raise AssertionError(f"odd-period convergent of {QuadraticSurd.sqrt_of(N)} does not solve negative Pell")
    x, y = pp + nqq, 2 * p * q
    if x * x - N * y * y != 1:
        raise AssertionError(f"squared odd-period convergent of {QuadraticSurd.sqrt_of(N)} does not solve Pell")
    return (x, y), (p, q)


def pell_fundamental(N: int) -> tuple[int, int]:
    """Smallest positive (x, y) with x*x - N*y*y == 1, N non-square."""
    return pell_solutions(N)[0]


def pell_negative(N: int) -> tuple[int, int] | None:
    """Smallest (x, y) with x*x - N*y*y == -1, or None when the period is even."""
    return pell_solutions(N)[1]
