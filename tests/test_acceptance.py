"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is exact (integer/rational equality) except the stated
wall-clock budgets, which are asserted as given.
"""

import os
import random
import time
from contextlib import contextmanager

from anthyphairesis.bookx import basis, euler_trace, line_mul
from anthyphairesis.cli import main
from anthyphairesis.convergents import convergents, pell_fundamental
from anthyphairesis.engine import expand_sqrt, expand_surd, increment_factors, remainders
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.palindrome import find_reflection, omega_sequence, verify_palindrome
from anthyphairesis.surd import QuadraticSurd, floor_surd, is_perfect_square, isqrt, pigeonhole_bound


GOLDEN_54 = os.path.join(os.path.dirname(__file__), "..", "goldens", "trace54.txt")


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def non_squares(limit):
    return (n for n in range(2, limit + 1) if not is_perfect_square(n))


def test_criterion_01_paper_goldens():
    with verdict("1 (paper goldens, < 1 ms each)"):
        expected = {
            13: ((3,), (1, 1, 1, 1, 6)),
            19: ((4,), (2, 1, 3, 1, 2, 8)),
            46: ((6,), (1, 3, 1, 1, 2, 6, 2, 1, 1, 3, 1, 12)),
            54: ((7,), (2, 1, 6, 1, 2, 14)),
        }
        for n, (pre, per) in expected.items():
            expand_sqrt(n)  # warm-up
            best = min(
                _timed(lambda: expand_sqrt(n))[0] for _ in range(5)
            )
            e = expand_sqrt(n)
            assert e.preperiod == pre and e.period == per, n
            assert best < 1e-3, f"expand {n} took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_criterion_02_euler_trace_golden():
    with verdict("2 (symbolic trace of 54, exact)"):
        steps = euler_trace(54)
        assert [(s.lam, s.mu) for s in steps] == [
            (1, 7), (5, 3), (9, 6), (2, 6), (9, 3), (5, 7), (1, 7),
        ]
        assert [s.quotient for s in steps[:-1]] == [2, 1, 6, 1, 2, 14]
        assert steps[-1].repeats_index == 1  # phi_7 = phi_1
        assert main(["trace", "54", "--golden", GOLDEN_54, "--out", os.devnull]) == 0


def test_criterion_03_theorem_sweep_100k():
    with verdict("3 (palindromic periodicity for all non-square N <= 1e5)"):
        t0 = time.perf_counter()
        for n in non_squares(10**5):
            e = expand_sqrt(n)
            m = e.preperiod[0]
            period = e.period
            bound = pigeonhole_bound(n)
            steps_used = len(period)  # states consumed before the repeat
            assert steps_used <= bound, n
            assert steps_used < bound, n
            interior = period[:-1]
            assert interior == interior[::-1], n
            assert period[-1] == 2 * m, n
        elapsed = time.perf_counter() - t0
        print(f"  sweep to 1e5 in {elapsed:.1f}s single-threaded")
        assert elapsed < 60.0


def test_criterion_04_reflection_machinery_1k():
    with verdict("4 (reflection and omega identities for N <= 1e3)"):
        for n in non_squares(10**3):
            e = expand_sqrt(n)
            phis = increment_factors(e)  # verifies the inversion identity
            omegas = omega_sequence(e)  # verifies 3a-3d with zero residual
            case, k = find_reflection(phis, omegas)
            period = e.period
            m = e.preperiod[0]
            l = len(period)
            if case == "I":
                assert l == 2 * k - 2, n
                pairs = [(k + j, k - 2 - j) for j in range(k - 2)]
            else:
                assert l == 2 * k - 1, n
                pairs = [(k + j, k - 1 - j) for j in range(k - 1)]
            for i, j in pairs:
                assert period[i - 1] == period[j - 1], n
            assert period[-1] == 2 * m, n


def test_criterion_05_oracle_equivalence():
    with verdict("5 (engine/oracle agreement, N <= 1e3 and 1e3 random surds)"):
        for n in non_squares(10**3):
            e = expand_sqrt(n)
            steps = 3 * len(e.period) + 1
            assert oracle_expand(QuadraticSurd.sqrt_of(n), steps) == e.quotient_stream(steps), n

        rng = random.Random(0x5D17)
        checked = 0
        while checked < 10**3:
            q = rng.randint(1, 10**3) * rng.choice((1, -1))
            p = rng.randint(-(10**3), 10**3)
            d = rng.randint(2, 10**6)
            d += (p * p - d) % abs(q)  # keep q | d - p^2 so d stays small
            if d < 2 or is_perfect_square(d):
                continue
            s = QuadraticSurd(p, d, q)
            e = expand_surd(s)
            steps = len(e.preperiod) + 2 * len(e.period)
            assert oracle_expand(s, steps) == e.quotient_stream(steps), s
            checked += 1


def test_criterion_06_recurrence_identities_10k():
    with verdict("6 (state recurrences with exact divisibility, N <= 1e4)"):
        for n in non_squares(10**4):
            e = expand_sqrt(n)
            mus, lams = e.mus, e.lams
            quots = e.quotients
            for k in range(1, len(mus)):
                assert (n - mus[k - 1] * mus[k - 1]) % lams[k - 1] == 0, n
                assert lams[k] * lams[k - 1] == n - mus[k - 1] * mus[k - 1], n
                assert mus[k] + mus[k - 1] == quots[k] * lams[k], n


def test_criterion_07_logos_cross_product():
    with verdict("7 (Logos cross-product, symbolic)"):
        from anthyphairesis.bookx import logos_cross_check

        lines = remainders(19, 7)
        beta = (0, 1, 1)
        area = (326, -1421, 1)
        assert line_mul(basis(19), beta, lines[6]) == area
        assert line_mul(basis(19), lines[0], lines[5]) == area

        for n in non_squares(200):
            period = len(expand_sqrt(n).period)
            rem = remainders(n, 2 * period + 2)
            for k in range(period):
                assert logos_cross_check(
                    basis(n), rem[k], rem[k + 1], rem[k + period], rem[k + period + 1]
                ), n


def test_criterion_08_pell():
    with verdict("8 (Pell solutions verified and minimal, N <= 500)"):
        assert pell_fundamental(19) == (170, 39)
        e6 = remainders(19, 6)[5]
        assert (abs(e6[0]), abs(e6[1]), e6[2]) == (39, 170, 1)

        for n in non_squares(500):
            x, y = pell_fundamental(n)
            assert x * x - n * y * y == 1, n
            e = expand_sqrt(n)
            for p, q in convergents(e.quotient_stream(2 * len(e.period))):
                if q < y:
                    assert p * p - n * q * q != 1, n


def test_criterion_09_rational_radicands():
    from fractions import Fraction

    with verdict("9 (sqrt of 200 random rationals in (1, 100])"):
        rng = random.Random(0x9A7)
        checked = 0
        while checked < 200:
            den = rng.randint(1, 100)
            num = rng.randint(den + 1, 100 * den)
            ratio = Fraction(num, den)
            if is_perfect_square(ratio.numerator) and is_perfect_square(ratio.denominator):
                continue  # the square of a rational
            s = QuadraticSurd.sqrt_of_rational(num, den)
            e = expand_surd(s)
            m = floor_surd(s)
            assert m >= 1
            assert e.preperiod == (m,), (num, den)
            interior = e.period[:-1]
            assert interior == interior[::-1], (num, den)
            assert e.period[-1] == 2 * m, (num, den)
            steps = 1 + 2 * len(e.period)
            assert oracle_expand(s, steps) == e.quotient_stream(steps), (num, den)
            checked += 1


def test_criterion_10_sweep_determinism(tmp_path):
    with verdict("10 (sweep byte-identical across worker counts)"):
        for fmt in ("plain", "csv", "json"):
            single = tmp_path / f"single.{fmt}"
            multi = tmp_path / f"multi.{fmt}"
            assert main(["sweep", "500", "--format", fmt, "--out", str(single)]) == 0
            assert main(
                ["sweep", "500", "--format", fmt, "--jobs", "8", "--out", str(multi)]
            ) == 0
            assert single.read_bytes() == multi.read_bytes()
