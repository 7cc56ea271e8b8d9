"""Exact anthyphairesis (continued fractions) of quadratic surds.

Expansion runs on exact big-integer state, a period closes when the
first reduced state recurs, and the palindromic shape of every period is verified
both on the quotient list and through the apotome/binomial line algebra
that makes each inversion step exact.
"""

from . import bookx, convergents, engine, oracle, palindrome, surd

# The public names are those of the modules' own __all__ lists, read here
# while `convergents` still names the module: the star import below rebinds
# it to the function.
__all__ = sorted(name for module in (bookx, convergents, engine, oracle, palindrome, surd) for name in module.__all__)

from .bookx import *  # noqa: E402, F403
from .convergents import *  # noqa: E402, F403
from .engine import *  # noqa: E402, F403
from .oracle import *  # noqa: E402, F403
from .palindrome import *  # noqa: E402, F403
from .surd import *  # noqa: E402, F403

__version__ = "0.1.0"
