"""Exact anthyphairesis (continued fractions) of quadratic surds.

Expansion runs on exact big-integer state, a period closes when the
first reduced state recurs, and the palindromic shape of every period is verified
both on the quotient list and through the apotome/binomial line algebra
that makes each inversion step exact.
"""

from .bookx import (
    TraceStep,
    basis,
    classify,
    conjugate,
    euler_trace,
    inverse_wrt_beta_squared,
    line_mul,
    logos_cross_check,
    render_trace,
    sign_of,
)
from .convergents import convergents, pell_fundamental, pell_negative, pell_solutions
from .engine import (
    Expansion,
    ResourceLimitExceeded,
    StepLimitExceeded,
    expand_sqrt,
    expand_surd,
    increment_factors,
    pigeonhole_bound,
    remainders,
)
from .oracle import oracle_expand, oracle_is_palindrome
from .palindrome import (
    PalindromeReport,
    PeriodStats,
    ReflectionNotFound,
    find_reflection,
    omega_sequence,
    period_stats,
    verify_palindrome,
)
from .surd import (
    QuadraticSurd,
    floor_surd,
    is_perfect_square,
    is_square_fraction,
    isqrt,
    normalize,
)

__all__ = [
    "Expansion",
    "PalindromeReport",
    "PeriodStats",
    "QuadraticSurd",
    "ReflectionNotFound",
    "ResourceLimitExceeded",
    "StepLimitExceeded",
    "TraceStep",
    "basis",
    "classify",
    "conjugate",
    "convergents",
    "euler_trace",
    "expand_sqrt",
    "expand_surd",
    "find_reflection",
    "floor_surd",
    "increment_factors",
    "inverse_wrt_beta_squared",
    "is_perfect_square",
    "is_square_fraction",
    "isqrt",
    "line_mul",
    "logos_cross_check",
    "normalize",
    "omega_sequence",
    "oracle_expand",
    "oracle_is_palindrome",
    "pell_fundamental",
    "pell_negative",
    "pell_solutions",
    "period_stats",
    "pigeonhole_bound",
    "remainders",
    "render_trace",
    "sign_of",
    "verify_palindrome",
]

__version__ = "0.1.0"
