"""Palindrome verification for expansion periods, two independent ways.

The cheap way reads the quotient list directly: the period minus its
final quotient must be a palindrome and the final quotient must be twice
the integer part. The structural way interleaves the increment factors
phi_n with the mirror sequence omega_n (inverses of the conjugates,
(phi_n)* omega_n = beta^2) and locates the first coincidence, which
pins the reflection center and forces the quotient symmetry. Both
routes must agree; the redundancy is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bookx import SurdLine, line_mul
from .engine import Expansion, IncrementFactor, increment_factors

__all__ = [
    "OmegaState",
    "PalindromeReport",
    "PeriodStats",
    "ReflectionNotFound",
    "verify_palindrome",
    "omega_sequence",
    "find_reflection",
    "period_stats",
]


@dataclass(frozen=True)
class OmegaState:
    """The line omega_n = (alpha - mu_n*beta)/lam_{n+1}."""

    mu: int
    lambda_next: int

    def as_line(self, radicand: int) -> SurdLine:
        lam = self.lambda_next
        return SurdLine(Fraction(1, lam), Fraction(-self.mu, lam), Fraction(radicand))


@dataclass(frozen=True)
class PalindromeReport:
    holds: bool
    case: Optional[str]  # "I" or "II" when the reflection machinery ran
    center_index: Optional[int]
    last_quotient_is_double: bool
    matched_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PeriodStats:
    period_length: int
    distinct_logoi: int
    platonic_number: int


class ReflectionNotFound(RuntimeError):
    """The phi/omega interleaving did not close the way the theorem demands.

    Raised with a diagnostic; for engine-produced expansions this would
    falsify the palindromicity theorem, so it is a bug, not a state to
    recover from.
    """


def find_reflection(
    phis: Sequence[IncrementFactor], omegas: Sequence[OmegaState]
) -> tuple[str, int]:
    """First coincidence in the interleaving phi_1, omega_1, phi_2, omega_2, ...

    Returns ("I", k) when phi_k is the first repeated element (it must
    equal omega_{k-1}) or ("II", k) when omega_k is (it must equal
    phi_k). Any other shape of coincidence, or no coincidence at all,
    raises ReflectionNotFound.
    """
    return _first_coincidence(
        [(f.state.mu, f.state.lam) for f in phis], [(w.mu, w.lambda_next) for w in omegas]
    )


def _first_coincidence(
    phi_keys: Sequence[tuple[int, int]], omega_keys: Sequence[tuple[int, int]]
) -> tuple[str, int]:
    """find_reflection on the (mu, lam) keys of phi_n and (mu, lam_next) keys of omega_n."""
    seen: dict[tuple[int, int], tuple[str, int]] = {}
    for n in range(1, len(phi_keys) + 1):
        key = phi_keys[n - 1]
        if key in seen:
            if n >= 2 and key == omega_keys[n - 2]:
                return ("I", n)
            raise ReflectionNotFound(
                "phi_{} repeats {}_{} instead of omega_{}".format(n, *seen[key], n - 1)
            )
        seen[key] = ("phi", n)
        if n - 1 >= len(omega_keys):
            break
        key = omega_keys[n - 1]
        if key in seen:
            if key == phi_keys[n - 1]:
                return ("II", n)
            raise ReflectionNotFound(
                "omega_{} repeats {}_{} instead of phi_{}".format(n, *seen[key], n)
            )
        seen[key] = ("omega", n)
    raise ReflectionNotFound("no coincidence found within the supplied sequences")


def omega_sequence(e: Expansion, N: int) -> tuple[OmegaState, ...]:
    """The omega states of an expand_sqrt(N) expansion, verified symbolically.

    Per state: (phi_n)* * omega_n = beta^2 (the defining inversion),
    0 < omega_n < beta in integer form, omega_1*(phi_1 + 2*mu_1*beta) =
    beta^2, and omega_{n+1}*(I_n*beta + omega_n) = beta^2. All checks
    are exact area-algebra identities with zero residual.
    """
    phis = increment_factors(e, N)  # validates the expansion/radicand pairing
    states = e.states
    beta = SurdLine(0, 1, N)
    beta_sq = line_mul(beta, beta)
    omegas = []
    for n in range(1, len(states)):
        w = OmegaState(mu=states[n - 1].mu, lambda_next=states[n].lam)
        w_line = w.as_line(N)
        phi_line = phis[n - 1].as_line(N)
        phi_conj = SurdLine(phi_line.c_alpha, -phi_line.c_beta, phi_line.radicand_ratio)
        if line_mul(phi_conj, w_line) != beta_sq:
            raise AssertionError(f"omega_{n} is not the inverse of (phi_{n})* for sqrt({N})")
        if w.mu * w.mu >= N or N >= (w.mu + w.lambda_next) ** 2:
            raise AssertionError(f"omega_{n} is not strictly between 0 and beta for sqrt({N})")
        omegas.append(w)

    mu1 = states[0].mu
    first = omegas[0].as_line(N)
    if line_mul(first, phis[0].as_line(N) + beta.scaled(2 * mu1)) != beta_sq:
        raise AssertionError(f"omega_1*(phi_1 + 2*mu_1*beta) != beta^2 for sqrt({N})")
    quotients = e.quotients
    for n in range(1, len(omegas)):
        lhs = line_mul(omegas[n].as_line(N), beta.scaled(quotients[n]) + omegas[n - 1].as_line(N))
        if lhs != beta_sq:
            raise AssertionError(f"omega_{n + 1}*(I_{n}*beta + omega_{n}) != beta^2 for sqrt({N})")
    return tuple(omegas)


def _reflection_implied_period(case: str, k: int, m: int, period: Sequence[int]) -> bool:
    """Do the reflection-derived quotient equalities hold on this period?

    Case I (omega_{k-1} = phi_k) forces length 2k-2 with I_{k+j} =
    I_{k-2-j}; Case II (phi_k = omega_k) forces length 2k-1 with
    I_{k+j} = I_{k-1-j}; both force the final quotient to equal 2*mu_1.
    """
    l = len(period)
    if case == "I":
        if l != 2 * k - 2:
            return False
        pairs = [(k + j, k - 2 - j) for j in range(k - 2)]
    else:
        if l != 2 * k - 1:
            return False
        pairs = [(k + j, k - 1 - j) for j in range(k - 1)]
    for i, j in pairs:
        if period[i - 1] != period[j - 1]:
            return False
    return period[l - 1] == 2 * m


def verify_palindrome(e: Expansion, m: int) -> PalindromeReport:
    """Check the palindromic shape of a period against the integer part m.

    holds is decided on the quotient list alone: the period minus its
    last element must read the same both ways and the last element must
    be 2*m. When the expansion carries integer increment-factor states,
    the reflection machinery runs as well and the two verdicts must
    agree (disagreement raises, since it would mean the structural
    argument and the definition diverge).
    """
    if not e.period:
        raise ValueError("expansion has an empty period")
    period = e.period
    l = len(period)
    interior = period[:-1]
    holds = interior == interior[::-1] and period[-1] == 2 * m

    matched = tuple(
        (i, l - i) for i in range(1, (l - 1) // 2 + 1) if period[i - 1] == period[l - i - 1]
    )
    case: Optional[str] = None
    center: Optional[int] = None
    mus, lams = e.mus, e.lams
    if len(mus) >= 2:
        # the keys find_reflection would read off phi_n and omega_n
        phi_keys = list(zip(mus, lams))
        omega_keys = list(zip(mus, lams[1:]))
        case, center = _first_coincidence(phi_keys, omega_keys)
        structural = _reflection_implied_period(case, center, m, period)
        if structural != holds:
            raise AssertionError(
                "quotient-level and reflection-level palindrome verdicts disagree"
            )
    return PalindromeReport(
        holds=holds,
        case=case,
        center_index=center,
        last_quotient_is_double=period[-1] == 2 * m,
        matched_pairs=matched,
    )


def period_stats(e: Expansion) -> PeriodStats:
    """Length of the period, distinct states inside it, and their count + 1."""
    if not e.period:
        raise ValueError("expansion has an empty period")
    if not e.trail:
        raise ValueError("expansion carries no states")
    l = len(e.period)
    lo, hi = 2 * len(e.preperiod), 2 * (len(e.preperiod) + l)  # x_j .. x_{j+l-1}, j = len(preperiod)
    distinct = len(set(zip(e.trail[lo:hi:2], e.trail[lo + 1 : hi : 2])))
    return PeriodStats(period_length=l, distinct_logoi=distinct, platonic_number=distinct + 1)
