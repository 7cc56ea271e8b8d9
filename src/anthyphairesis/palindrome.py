"""Palindrome verification for expansion periods, two independent ways.

The cheap way reads the quotient list directly: the period minus its
final quotient must be a palindrome and the final quotient must be twice
the integer part. The structural way interleaves the increment factors
phi_n with the mirror sequence omega_n (inverses of the conjugates,
(phi_n)* omega_n = beta^2) and locates the first coincidence, which
pins the reflection center k. The reflection forces the same mirror
pairs of quotients that the cheap way compares, so what it adds is the
centre and the period length it forces: 2k - 2 in Case I, 2k - 1 in
Case II. A palindromic period of any other length means the two routes
disagree, which is a bug.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import pairwise

from .bookx import _is_beta_squared, _plus_beta, basis, conjugate
from .engine import Expansion, increment_factors
from .surd import QuadraticSurd

__all__ = [
    "PalindromeReport",
    "ReflectionNotFound",
    "verify_palindrome",
    "omega_sequence",
    "find_reflection",
    "period_stats",
]


class PalindromeReport(namedtuple("PalindromeReport", "holds case center_index")):
    """holds: bool; case: "I" or "II" and center_index: int when the reflection machinery ran, else None."""

    __slots__ = ()


class ReflectionNotFound(RuntimeError):
    """The phi/omega interleaving did not close the way the theorem demands.

    Raised with a diagnostic; for engine-produced expansions this would
    falsify the palindromicity theorem, so it is a bug, not a state to
    recover from.
    """


def find_reflection(
    phi_keys: Iterable[tuple[int, int]], omega_keys: Iterable[tuple[int, int]]
) -> tuple[str, int]:
    """First coincidence in the interleaving phi_1, omega_1, phi_2, omega_2, ...

    phi_keys are the pairs (mu_n, lam_n) of increment_factors and
    omega_keys the pairs (mu_n, lam_{n+1}) of omega_sequence, as any
    iterables (lists, or one-shot iterators such as zip objects); each is
    read only up to the first coincidence. Returns ("I", k) when phi_k is
    the first repeated element (it must equal omega_{k-1}) or ("II", k)
    when omega_k is (it must equal phi_k). Any other shape of
    coincidence, or no coincidence at all, raises ReflectionNotFound.
    """
    seen: dict[tuple[int, int], None] = {}  # phi_1, omega_1, phi_2, ... in order, positions left implicit
    omegas = iter(omega_keys)
    omega = None  # omega_{n-1}
    for n, phi in enumerate(phi_keys, 1):
        if phi in seen:
            if phi == omega:
                return ("I", n)
            raise ReflectionNotFound(f"phi_{n} repeats {_name(seen, phi)} instead of omega_{n - 1}")
        seen[phi] = None
        omega = next(omegas, None)
        if omega is None:
            break
        if omega in seen:
            if omega == phi:
                return ("II", n)
            raise ReflectionNotFound(f"omega_{n} repeats {_name(seen, omega)} instead of phi_{n}")
        seen[omega] = None
    raise ReflectionNotFound("no coincidence found within the supplied sequences")


def _name(seen: dict[tuple[int, int], None], key: tuple[int, int]) -> str:
    """phi_n or omega_n for a key of seen, whose i-th key is phi_{i // 2 + 1} (i even) or omega_{i // 2 + 1}."""
    i = list(seen).index(key)
    return f"{'omega' if i % 2 else 'phi'}_{i // 2 + 1}"


def omega_sequence(e: Expansion, N: int) -> Iterator[tuple[int, int]]:
    """The omega states of an expand_sqrt(N) expansion, verified symbolically.

    Checks, per state: (phi_n)* * omega_n = beta^2 (the defining inversion),
    0 < omega_n < beta in integer form, omega_1*(phi_1 + 2*mu_1*beta) = beta^2,
    and omega_{n+1}*(I_n*beta + omega_n) = beta^2. All checks are exact
    area-algebra identities with zero residual. increment_factors runs
    after them (ValueError), so a corrupted state that an omega reads
    fails as an omega identity (AssertionError). An expansion of another
    radicand is a ValueError. Then returns each
    omega_n = (alpha - mu_n*beta)/lam_{n+1} as its int pair
    (mu_n, lam_{n+1}), read off the consecutive pairs (mu_n, lam_n),
    (mu_{n+1}, lam_{n+1}) of increment_factors: an iterator, no tuple of pairs.
    """
    if e.radicand != N:
        raise ValueError(f"expansion does not belong to {QuadraticSurd.sqrt_of(N)}")
    pq = basis(N)
    mus, lams, quotients = e.mus, e.lams, e.quotients
    prev = None  # omega_{n-1}
    for n in range(1, len(mus)):
        mu, lam_next = mus[n - 1], lams[n]
        w = (1, -mu, lam_next)  # (alpha - mu_n*beta)/lam_{n+1}
        phi = (1, -mu, lams[n - 1])
        if not _is_beta_squared(pq, conjugate(phi), w):
            raise AssertionError(f"omega_{n} is not the inverse of (phi_{n})* for {QuadraticSurd.sqrt_of(N)}")
        if mu * mu >= N or N >= (mu + lam_next) ** 2:
            raise AssertionError(f"omega_{n} is not strictly between 0 and beta for {QuadraticSurd.sqrt_of(N)}")
        if n == 1 and not _is_beta_squared(pq, w, _plus_beta(phi, 2 * mu)):
            raise AssertionError(f"omega_1*(phi_1 + 2*mu_1*beta) != beta^2 for {QuadraticSurd.sqrt_of(N)}")
        if n > 1 and not _is_beta_squared(pq, w, _plus_beta(prev, quotients[n - 1])):
            raise AssertionError(f"omega_{n}*(I_{n - 1}*beta + omega_{n - 1}) != beta^2 for {QuadraticSurd.sqrt_of(N)}")
        prev = w
    del mus, lams, quotients  # the increment pass takes views of its own
    return ((mu, lam_next) for (mu, _), (_, lam_next) in pairwise(increment_factors(e, N)))


def _palindromic(period: tuple[int, ...], m: int) -> bool:
    """The period minus its last quotient reads the same both ways, and the last quotient is 2*m."""
    interior = period[:-1]
    return interior == interior[::-1] and period[-1] == 2 * m


def verify_palindrome(e: Expansion, m: int) -> PalindromeReport:
    """Check the palindromic shape of a period against the integer part m.

    holds is decided on the quotient list alone, by _palindromic. When
    the expansion carries integer increment-factor states, the
    reflection machinery runs as well and finds the centre k. A
    period that holds must then have the length the reflection forces,
    2k - 2 (Case I) or 2k - 1 (Case II); any other length raises, since
    it would mean the structural argument and the definition diverge.
    """
    if not e.period:
        raise ValueError("expansion has an empty period")
    period = e.period
    holds = _palindromic(period, m)

    case = center = None
    mus, lams = e.mus, e.lams
    if len(mus) >= 2:  # a sqrt(N) expansion with two states (mu_k, lam_k) or more
        case, center = find_reflection(zip(mus, lams), zip(mus, lams[1:]))
        if holds and len(period) != 2 * center - (2 if case == "I" else 1):
            raise AssertionError(
                "quotient-level and reflection-level palindrome verdicts disagree"
            )
    return PalindromeReport(holds, case, center)


def period_stats(e: Expansion) -> tuple[int, int, int]:
    """(l, l, l + 1): the period's length l, its distinct states, and their count + 1.

    The count is l, with no set built: the period closes at the first
    recurrence of x_j (j = len(preperiod)) and each state fixes the next,
    so x_i = x_k, j <= i < k < j + l, would bring x_j back earlier, at j + l - (k - i).
    """
    if not e.period:
        raise ValueError("expansion has an empty period")
    if not e.trail:
        raise ValueError("expansion carries no states")
    l = len(e.period)
    return (l, l, l + 1)
