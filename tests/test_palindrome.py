"""palindrome: quotient-level checks, omega sequence, reflection search."""

import itertools
import random

import pytest

from anthyphairesis.engine import Expansion, expand_sqrt, expand_surd, increment_factors
from anthyphairesis.palindrome import (
    ReflectionNotFound,
    find_reflection,
    omega_sequence,
    period_stats,
    verify_palindrome,
)
from anthyphairesis.surd import QuadraticSurd, is_perfect_square, isqrt, normalize


def test_verify_palindrome_paper_periods():
    r = verify_palindrome(expand_sqrt(19), 4)
    assert r.holds

    r = verify_palindrome(expand_sqrt(46), 6)
    assert r.holds
    assert r.case == "I"  # odd interior, center quotient 6

    r = verify_palindrome(expand_sqrt(13), 3)
    assert r.holds
    assert r.case == "II"  # even interior


def test_verify_palindrome_negative_case():
    fake = Expansion(preperiod=(1,), period=(2, 3))
    r = verify_palindrome(fake, 1)
    assert not r.holds  # 3 != 2*1
    assert r.case is None and r.center_index is None


def test_verify_palindrome_rejects_empty_period():
    with pytest.raises(ValueError):
        verify_palindrome(Expansion(preperiod=(2,), period=()), 2)


def test_verify_palindrome_fails_when_last_not_doubled():
    # take a real period and break only the final quotient
    e = expand_sqrt(19)
    broken = Expansion(preperiod=e.preperiod, period=e.period[:-1] + (7,))
    assert not verify_palindrome(broken, 4).holds


def test_omega_sequence_54():
    e = expand_sqrt(54)
    omegas = tuple(omega_sequence(e, 54))
    assert omegas == (
        (7, 5), (3, 9), (6, 2), (6, 9), (3, 5), (7, 1),
    )
    # derived: omega_3 and phi_4 denote the same line (alpha - 6*beta)/2
    phis = tuple(increment_factors(e, 54))
    assert omegas[2] == phis[3] == (6, 2)


def test_omega_sequence_rejects_foreign_expansion():
    # sqrt(19) and sqrt(20) share the integer part 4
    with pytest.raises(ValueError, match=r"does not belong to sqrt\(20\)"):
        omega_sequence(expand_sqrt(19), 20)


def test_omega_sequence_trivial():
    e = expand_sqrt(2)
    omegas = tuple(omega_sequence(e, 2))
    assert omegas[0] == (1, 1)  # omega_1 = phi_1


def test_omega_sequence_is_mu_n_with_lam_n_plus_1():
    # omega_sequence reads its pairs off consecutive increment factors; they
    # are the trail's (mu_n, lam_{n+1}), n = 1 .. l, for every N
    count = 0
    for n in range(2, 3001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        assert tuple(omega_sequence(e, n)) == tuple(zip(e.mus, e.lams[1:])), n
        count += 1
    assert count == 2946


def test_find_reflection_cases():
    e = expand_sqrt(54)
    case, k = find_reflection(increment_factors(e, 54), omega_sequence(e, 54))
    assert (case, k) == ("I", 4)

    e = expand_sqrt(13)
    # lambda plateau lam_3 = lam_4 = 3 forces phi_3 = omega_3
    assert e.lams[2:4] == (3, 3)
    case, k = find_reflection(increment_factors(e, 13), omega_sequence(e, 13))
    assert (case, k) == ("II", 3)

    e = expand_sqrt(2)
    case, k = find_reflection(increment_factors(e, 2), omega_sequence(e, 2))
    assert (case, k) == ("II", 1)


@pytest.mark.parametrize("keys", [list, iter], ids=["lists", "one-shot iterators"])
def test_find_reflection_diagnostic_on_garbage(keys):
    e = expand_sqrt(19)
    phis = tuple(increment_factors(e, 19))
    # omegas from a different radicand cannot close the reflection
    other = expand_sqrt(31)
    bad_omegas = tuple(zip(other.mus, other.lams))[: len(phis) - 1]
    a, b, c, d = (1, 1), (2, 2), (3, 3), (4, 4)
    cases = [
        (phis[:2], bad_omegas[:1], "no coincidence found within the supplied sequences"),
        ([a, b, a], [c, d], "phi_3 repeats phi_1 instead of omega_2"),
        ([a, b, c], [c, d], "phi_3 repeats omega_1 instead of omega_2"),
        ([a, b], [c, a], "omega_2 repeats phi_1 instead of phi_2"),
        ([a, b], [c, c], "omega_2 repeats omega_1 instead of phi_2"),
        ([a, b, c], [d], "no coincidence found within the supplied sequences"),
        ([], [], "no coincidence found within the supplied sequences"),
    ]
    for phi_keys, omega_keys, message in cases:
        with pytest.raises(ReflectionNotFound) as exc:
            find_reflection(keys(phi_keys), keys(omega_keys))
        assert str(exc.value) == message


def test_reflection_pairing_and_quotient_equalities():
    # phi read backwards meets omega: Case I phi_{k+t} = omega_{k-1-t},
    # Case II phi_{k+t} = omega_{k-t}; plus the I-pair equalities and the
    # doubled final quotient
    for n in range(2, 1001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        phis = tuple(increment_factors(e, n))
        omegas = tuple(omega_sequence(e, n))
        case, k = find_reflection(phis, omegas)
        report = verify_palindrome(e, isqrt(n))
        assert (report.case, report.center_index) == (case, k), n
        l = len(e.period)
        period = e.period
        m = e.preperiod[0]
        if case == "I":
            assert l == 2 * k - 2
            for t in range(k - 1):
                assert phis[k + t - 1] == omegas[k - 2 - t]
            for j in range(k - 2):
                assert period[k + j - 1] == period[k - 3 - j]
        else:
            assert l == 2 * k - 1
            for t in range(k):
                assert phis[k + t - 1] == omegas[k - 1 - t]
            for j in range(k - 1):
                assert period[k + j - 1] == period[k - 2 - j]
        assert period[-1] == 2 * m


def test_palindrome_theorem_desk_scale():
    for n in range(2, 2001):
        if is_perfect_square(n):
            continue
        assert verify_palindrome(expand_sqrt(n), isqrt(n)).holds


def test_period_stats():
    # (period length, distinct logoi, Platonic number)
    assert period_stats(expand_sqrt(54)) == (6, 6, 7)
    assert period_stats(expand_sqrt(2)) == (1, 1, 2)
    assert period_stats(expand_sqrt(19))[0] == 6


def test_period_stats_surd_path():
    from anthyphairesis.engine import expand_surd
    from anthyphairesis.surd import QuadraticSurd

    e = expand_surd(QuadraticSurd(7, 54, 5))
    assert period_stats(e) == (6, 6, 7)


def _period_states(e):
    # the pairs (p, q) of x_j .. x_{j+l-1}, j = len(preperiod), read off the trail
    lo, hi = 2 * len(e.preperiod), 2 * (len(e.preperiod) + len(e.period))
    return list(zip(e.trail[lo:hi:2], e.trail[lo + 1 : hi : 2]))


def test_distinct_logoi_is_the_period_length():
    # period_stats counts no states: the period closes at the first recurrence
    # of its first state, so the states inside it are distinct
    rng = random.Random(0xD15)
    surds = []
    while len(surds) < 2000:
        if len(surds) % 4 == 3:  # sqrt(P/Q)
            s = QuadraticSurd.sqrt_of_rational(rng.randint(1, 5000), rng.randint(1, 60))
        else:
            q = rng.randint(1, 300) * rng.choice((1, -1))
            s = QuadraticSurd(rng.randint(-1000, 1000), rng.randint(2, 20000), q)
        if not is_perfect_square(s.d):
            surds.append(normalize(s))
    assert sum(s.q < 0 for s in surds) > 500 and sum(s.p == 0 for s in surds) >= 500
    sqrts = (expand_sqrt(n) for n in range(2, 20001) if not is_perfect_square(n))
    for e in itertools.chain(sqrts, map(expand_surd, surds)):  # one expansion alive at a time
        assert len(set(_period_states(e))) == len(e.period) == period_stats(e)[1], (e.trail[:2], e.radicand)


@pytest.mark.parametrize("n", [13, 19, 46, 54, 61, 94])
def test_tampered_state_fails_both_symbolic_checks(n):
    # every mu_k and lam_k after the first, nudged up or down, is rejected by
    # the increment factors (ValueError) and by omega_sequence; there the
    # omega identities run first (AssertionError), and only the closing
    # mu_{l+1}, which no omega reads, falls to the increment factors
    e = expand_sqrt(n)
    closing_mu = len(e.trail) - 2
    for i in range(3, closing_mu + 1):  # trail[1], trail[2] are lam_1, mu_1; the last q is not viewed
        for delta in (-1, 1):
            trail = list(e.trail)
            trail[i] += delta
            if trail[i] <= 0:
                continue
            tampered = e._replace(trail=tuple(trail))
            with pytest.raises(ValueError):
                increment_factors(tampered, n)
            with pytest.raises(ValueError if i == closing_mu else AssertionError):
                omega_sequence(tampered, n)
