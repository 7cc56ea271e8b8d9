"""Palindrome verification for expansion periods, two independent ways, and verify's nine checks.

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

import functools
import itertools
import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .bookx import _is_beta_squared, _plus_beta, _trace_quotients, basis, conjugate
from .engine import Expansion, ResourceLimitExceeded, StepLimitExceeded, expand_surd, increment_factors, pigeonhole_bound
from .oracle import oracle_expand
from .surd import QuadraticSurd

__all__ = [
    "PalindromeReport",
    "ReflectionNotFound",
    "verify_palindrome",
    "omega_sequence",
    "find_reflection",
    "period_stats",
    "certify",
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


def omega_sequence(e: Expansion) -> Iterator[tuple[int, int]]:
    """The omega states of an expand_sqrt(N) expansion, N its radicand, verified symbolically.

    Checks, per state: (phi_n)* * omega_n = beta^2 (the defining inversion),
    0 < omega_n < beta in integer form, omega_1*(phi_1 + 2*mu_1*beta) = beta^2,
    and omega_{n+1}*(I_n*beta + omega_n) = beta^2. All checks are exact
    area-algebra identities with zero residual. increment_factors runs
    after them (ValueError), so a corrupted state that an omega reads
    fails as an omega identity (AssertionError). Then returns each
    omega_n = (alpha - mu_n*beta)/lam_{n+1} as its int pair
    (mu_n, lam_{n+1}), read off the consecutive pairs (mu_n, lam_n),
    (mu_{n+1}, lam_{n+1}) of increment_factors: an iterator, no tuple of pairs.
    """
    N, mus, lams, quotients = e.radicand, e.mus, e.lams, e.quotients
    pq = basis(N) if mus else None  # no states, no omegas: increment_factors below says why
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
    return ((mu, lam_next) for (mu, _), (_, lam_next) in itertools.pairwise(increment_factors(e)))


def _palindromic(period: tuple[int, ...], m: int) -> bool:
    """The period minus its last quotient reads the same both ways, and the last quotient is 2*m."""
    interior = period[:-1]
    return interior == interior[::-1] and period[-1] == 2 * m


def verify_palindrome(e: Expansion) -> PalindromeReport:
    """Check the palindromic shape of a period against the expansion's integer part, its first quotient.

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
    holds = _palindromic(period, (e.preperiod or period)[0])

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


def certify(e: Expansion, limit: int | None = None) -> Iterator[tuple[str, str | None]]:
    """verify's nine checks of e = expand_sqrt(N), N its radicand, in order: (name, None) for a pass, else (name, str(error)).

    Convergent quality runs the norm recurrence of the convergents module
    docstring over two periods and checks N_k = (-1)^(k+1)*lam_{k+2} and
    M_k = (-1)^k*mu_{k+1} against the trail; then, at every period length, it
    compares _last_convergent's period-end pair with pell_solutions(e)'s.

    The step budget limit reaches every check. The trace, the centre stop
    and the re-expanded tail take it as their own. The oracle's 3l + 1
    quotients must fit in it, which covers the 2l steps of the convergent
    check after it. The other checks read only the expansion's states,
    which fitted. A check that runs out raises StepLimitExceeded,
    ResourceLimitExceeded or MemoryError out of certify: it has not failed.
    """
    from .convergents import _last_convergent, pell_solutions  # convergents imports this module

    n = e.radicand
    trail_pell = functools.cache(lambda: pell_solutions(e))  # a raise is not cached: each check asking reports it

    def recurrences():
        quots, mus, lams = e.quotients, e.mus, e.lams
        for k in range(1, len(mus)):
            if lams[k] * lams[k - 1] != n - mus[k - 1] * mus[k - 1]:
                raise AssertionError(f"product identity fails at step {k + 1}")
            if mus[k] + mus[k - 1] != quots[k] * lams[k]:
                raise AssertionError(f"sum identity fails at step {k + 1}")

    def bounds():
        mus, lams = e.mus, e.lams
        for k in range(1, len(mus)):
            if not (1 <= lams[k] < n and mus[k] * mus[k] < n):
                raise AssertionError(f"state bounds fail at step {k + 1}")
        if len(e.preperiod) + len(e.period) - 1 >= pigeonhole_bound(n):
            raise AssertionError("period not found before the pigeonhole bound")

    def palindrome():
        report = verify_palindrome(e)
        if not report.holds:
            raise AssertionError("period is not palindromic")

    def omegas():
        omega_sequence(e)

    def oracle_agreement():
        steps = 3 * len(e.period) + 1
        if limit is not None and steps > limit:
            raise StepLimitExceeded(
                f"{QuadraticSurd.sqrt_of(n)}: oracle agreement needs {steps} steps, more than {limit} steps"
            )
        got = oracle_expand(QuadraticSurd.sqrt_of(n), steps)
        expected = itertools.chain(e.preperiod, itertools.cycle(e.period))  # e.quotient_stream(steps), unbuilt
        if len(got) != steps or not all(map(operator.eq, got, expected)):
            raise AssertionError("oracle quotients diverge from the engine")

    def trace_agreement():
        if _trace_quotients(n, limit) != e.quotients:
            raise AssertionError("symbolic trace quotients diverge from the engine")

    def convergent_quality():  # mus and lams are mu_1.., lam_1..lam_{period+1}, cycled
        mus, lams, period = e.mus, e.lams, len(e.period)
        if len(lams) <= period:
            raise AssertionError(f"period of {period} quotients is longer than the {len(lams) - 1} states of the trail")
        stream = e.quotient_stream(2 * period)
        norm_prev, norm, cross = -n, 1, 0  # N_{-2}, N_{-1}, M_{-1}
        for k, a in enumerate(stream):
            norm_prev, norm, cross = norm, a * (a * norm + 2 * cross) + norm_prev, a * norm + cross
            lam, mu = lams[k % period + 1], mus[k % period]
            if norm != (lam if k % 2 else -lam):
                raise AssertionError(f"quality identity fails at convergent {k}")
            if cross != (-mu if k % 2 else mu):
                raise AssertionError(f"companion identity fails at convergent {k}")
        end = period if period % 2 == 0 else 2 * period  # the convergent k = end - 1 closes the Pell period
        if _last_convergent(stream[:end]) != trail_pell()[0]:
            raise AssertionError(f"convergent {end - 1} is not the fundamental Pell solution")

    def pell():  # each side checks x^2 - N*y^2 = 1 (and -1) before it returns
        if trail_pell() != pell_solutions(n, max_steps=limit):
            raise AssertionError("the full period and the centre stop give different solutions")

    def pure_tail():  # the last check: it frees e first, since its re-expansion builds a trail as large as e's
        nonlocal e
        tail, period = QuadraticSurd(e.mus[0], n, e.lams[1]), e.period
        del e
        te = expand_surd(tail, limit)
        if te.preperiod != () or te.period != period:
            raise AssertionError("re-expanded tail is not purely periodic with the same period")

    for name, check in (
        ("recurrence identities", recurrences),
        ("state bounds and pigeonhole", bounds),
        ("palindrome (both routes)", palindrome),
        ("omega identities", omegas),
        ("oracle agreement (3 periods)", oracle_agreement),
        ("symbolic trace agreement", trace_agreement),
        ("convergent quality", convergent_quality),
        ("pell fundamental", pell),
        ("purely periodic tail", pure_tail),
    ):
        message = None
        try:
            check()
        except (StepLimitExceeded, ResourceLimitExceeded, MemoryError):  # a budget ran out: not a failed check
            raise
        except Exception as exc:  # report and keep going
            message = str(exc)  # not exc: its traceback would hold views of the trail
        yield name, message
