"""convergents: three-term recurrence, quality identity, Pell solutions."""

import math

import pytest

from anthyphairesis.convergents import convergents, pell_fundamental, pell_negative, pell_solutions
from anthyphairesis.engine import expand_sqrt, expand_surd
from anthyphairesis.surd import QuadraticSurd, is_perfect_square


def test_convergents_19():
    cs = list(convergents(expand_sqrt(19), 6))
    assert cs == [(4, 1), (9, 2), (13, 3), (48, 11), (61, 14), (170, 39)]
    assert 170 * 170 - 19 * 39 * 39 == 1


def test_first_convergent_is_first_quotient():
    for n in (2, 13, 19, 54):
        assert list(convergents(expand_sqrt(n), 1)) == [(expand_sqrt(n).preperiod[0], 1)]


def test_convergents_sqrt2_side_and_diameter():
    cs = list(convergents(expand_sqrt(2), 4))
    assert cs == [(1, 1), (3, 2), (7, 5), (17, 12)]
    for p, q in cs:
        assert abs(p * p - 2 * q * q) == 1


def test_convergents_terminated_expansion_caps():
    e = expand_surd(QuadraticSurd(3, 0, 2))  # [1, 2]
    assert list(convergents(e, 10)) == [(1, 1), (3, 2)]


def test_convergents_rejects_count_below_one():
    with pytest.raises(ValueError):
        list(convergents(expand_sqrt(19), 0))


def test_convergents_coprime_and_cross_rule():
    for n in (19, 31, 61, 94, 139):
        cs = list(convergents(expand_sqrt(n), 12))
        for p, q in cs:
            assert math.gcd(p, q) == 1
        for (p0, q0), (p1, q1) in zip(cs, cs[1:]):
            assert p1 * q0 - p0 * q1 in (1, -1)


def test_quality_identity_and_alternation():
    # p_k^2 - N*q_k^2 = (-1)^(k+1) * lam_{k+2}, the engine's lambda chain
    for n in range(2, 1001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        period = len(e.period)
        lams = e.lams
        for k, (p, q) in enumerate(convergents(e, 2 * period)):
            idx = k + 1
            while idx >= len(lams):
                idx -= period
            expected = lams[idx] if k % 2 else -lams[idx]
            assert p * p - n * q * q == expected


def test_pell_examples():
    assert pell_fundamental(19) == (170, 39)
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(13) == (649, 180)
    assert 649 * 649 - 13 * 180 * 180 == 1


def test_pell_rejects_squares():
    with pytest.raises(ValueError):
        pell_fundamental(16)
    with pytest.raises(ValueError):
        pell_negative(9)


def test_pell_negative():
    assert pell_negative(2) == (1, 1)
    assert pell_negative(13) == (18, 5)
    assert 18 * 18 - 13 * 5 * 5 == -1
    assert pell_negative(19) is None  # even period


def test_pell_minimality_small_range():
    for n in range(2, 101):
        if is_perfect_square(n):
            continue
        x, y = pell_fundamental(n)
        assert x * x - n * y * y == 1
        e = expand_sqrt(n)
        for p, q in convergents(e, 2 * len(e.period)):
            if q < y:
                assert p * p - n * q * q != 1


LONG_PERIOD_N = (1000003, 10000019, 92590649, 150008437)


def test_pell_solutions_match_convergent_recurrence():
    # the half-period product tree against the full three-term recurrence
    for n in range(2, 3001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        l = len(e.period)
        index = l - 1 if l % 2 == 0 else 2 * l - 1
        full = list(convergents(e, index + 1))
        fundamental, negative = pell_solutions(n, e)
        assert fundamental == full[index], n
        if l % 2:
            assert negative == full[l - 1], n
        else:
            assert negative is None, n


def test_pell_solutions_rejects_foreign_or_square_expansion():
    with pytest.raises(ValueError):
        pell_solutions(54, expand_sqrt(19))
    with pytest.raises(ValueError):
        pell_solutions(16, expand_sqrt(16))
    assert pell_solutions(13) == ((649, 180), (18, 5))


def test_pell_solutions_rejects_radicand_with_same_integer_part():
    # sqrt(19) and sqrt(20) share the integer part 4
    with pytest.raises(ValueError, match=r"does not belong to sqrt\(20\)"):
        pell_solutions(20, expand_sqrt(19))


def test_pell_against_sympy_diop_dn():
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    for n in [n for n in range(2, 501) if not is_perfect_square(n)] + list(LONG_PERIOD_N):
        fundamental, negative = pell_solutions(n)
        assert [fundamental] == [tuple(map(int, s)) for s in diop_DN(n, 1)], n
        expected_negative = [tuple(map(int, s)) for s in diop_DN(n, -1)]
        assert ([] if negative is None else [negative]) == expected_negative, n
