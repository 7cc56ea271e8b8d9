"""palindrome: quotient-level checks, omega sequence, reflection search."""

import itertools
import random
import sys

import pytest

from anthyphairesis import palindrome
from anthyphairesis.engine import (
    Expansion,
    ResourceLimitExceeded,
    StepLimitExceeded,
    expand_sqrt,
    expand_surd,
    increment_factors,
)
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.palindrome import (
    ReflectionNotFound,
    certify,
    find_reflection,
    omega_sequence,
    period_stats,
    verify_palindrome,
)
from anthyphairesis.surd import QuadraticSurd, is_perfect_square, normalize
from test_cli import _VERIFY_CHECKS, TAMPERED


def test_verify_palindrome_paper_periods():
    r = verify_palindrome(expand_sqrt(19))
    assert r.holds

    r = verify_palindrome(expand_sqrt(46))
    assert r.holds
    assert r.case == "I"  # odd interior, center quotient 6

    r = verify_palindrome(expand_sqrt(13))
    assert r.holds
    assert r.case == "II"  # even interior


def test_verify_palindrome_negative_case():
    fake = Expansion(preperiod=(1,), period=(2, 3))
    r = verify_palindrome(fake)
    assert not r.holds  # 3 != 2*1
    assert r.case is None and r.center_index is None


def test_verify_palindrome_rejects_empty_period():
    with pytest.raises(ValueError):
        verify_palindrome(Expansion(preperiod=(2,), period=()))


def test_verify_palindrome_fails_when_last_not_doubled():
    # take a real period and break only the final quotient
    e = expand_sqrt(19)
    broken = Expansion(preperiod=e.preperiod, period=e.period[:-1] + (7,))
    assert not verify_palindrome(broken).holds


def test_omega_sequence_54():
    e = expand_sqrt(54)
    omegas = tuple(omega_sequence(e))
    assert omegas == (
        (7, 5), (3, 9), (6, 2), (6, 9), (3, 5), (7, 1),
    )
    # derived: omega_3 and phi_4 denote the same line (alpha - 6*beta)/2
    phis = tuple(increment_factors(e))
    assert omegas[2] == phis[3] == (6, 2)


def test_omega_sequence_trivial():
    e = expand_sqrt(2)
    omegas = tuple(omega_sequence(e))
    assert omegas[0] == (1, 1)  # omega_1 = phi_1


def test_omega_sequence_is_mu_n_with_lam_n_plus_1():
    # omega_sequence reads its pairs off consecutive increment factors; they
    # are the trail's (mu_n, lam_{n+1}), n = 1 .. l, for every N
    count = 0
    for n in range(2, 3001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        assert tuple(omega_sequence(e)) == tuple(zip(e.mus, e.lams[1:])), n
        count += 1
    assert count == 2946


def test_find_reflection_cases():
    e = expand_sqrt(54)
    case, k = find_reflection(increment_factors(e), omega_sequence(e))
    assert (case, k) == ("I", 4)

    e = expand_sqrt(13)
    # lambda plateau lam_3 = lam_4 = 3 forces phi_3 = omega_3
    assert e.lams[2:4] == (3, 3)
    case, k = find_reflection(increment_factors(e), omega_sequence(e))
    assert (case, k) == ("II", 3)

    e = expand_sqrt(2)
    case, k = find_reflection(increment_factors(e), omega_sequence(e))
    assert (case, k) == ("II", 1)


@pytest.mark.parametrize("keys", [list, iter], ids=["lists", "one-shot iterators"])
def test_find_reflection_diagnostic_on_garbage(keys):
    e = expand_sqrt(19)
    phis = tuple(increment_factors(e))
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
        phis = tuple(increment_factors(e))
        omegas = tuple(omega_sequence(e))
        case, k = find_reflection(phis, omegas)
        report = verify_palindrome(e)
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
        assert verify_palindrome(expand_sqrt(n)).holds


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
                increment_factors(tampered)
            with pytest.raises(ValueError if i == closing_mu else AssertionError):
                omega_sequence(tampered)


# certify: the checks of `anth verify`, run on an expansion with no CLI

CONVERGENTS = sys.modules["anthyphairesis.convergents"]  # the package's `convergents` is the function


def _outcomes(failures: dict[str, str] | None = None) -> list[tuple[str, str | None]]:
    """certify's pairs, in order, when the checks named fail with the messages given and the others pass."""
    return [(name, (failures or {}).get(name)) for name in _VERIFY_CHECKS]


@pytest.mark.parametrize("n", [2, 3, 13, 19, 46, 54, 61, 94, 1000003])
def test_certify_passes_every_check_in_order(n):
    assert list(certify(expand_sqrt(n))) == _outcomes()


def test_certify_reports_what_a_tampered_expansion_fails():
    # the seeded faults of verify's CLI tests, each with the same messages
    for tamper, failures in TAMPERED:
        assert list(certify(tamper(expand_sqrt(19)))) == _outcomes(failures)


def test_certify_reports_a_wrong_oracle_quotient(monkeypatch):
    def one_wrong(s, steps):
        quotients = oracle_expand(s, steps)
        quotients[7] += 1
        return quotients

    monkeypatch.setattr(palindrome, "oracle_expand", one_wrong)
    failures = {"oracle agreement (3 periods)": "oracle quotients diverge from the engine"}
    assert list(certify(expand_sqrt(19))) == _outcomes(failures)


@pytest.mark.parametrize("n, k", [(19, 5), (13, 9)], ids=["even period 6", "odd period 5"])
def test_certify_reports_a_pell_pair_that_is_not_fundamental(monkeypatch, n, k):
    # both Pell paths return the square of the fundamental pair: only the period-end convergent shows it
    pell_solutions = CONVERGENTS.pell_solutions

    def squared(source, **budget):
        (x, y), negative = pell_solutions(source, **budget)
        return (x * x + n * y * y, 2 * x * y), negative

    monkeypatch.setattr(CONVERGENTS, "pell_solutions", squared)
    failures = {"convergent quality": f"convergent {k} is not the fundamental Pell solution"}
    assert list(certify(expand_sqrt(n))) == _outcomes(failures)


def test_certify_reports_a_raising_pell_in_each_check_that_asks(monkeypatch):
    pell_solutions = CONVERGENTS.pell_solutions

    def raising(source, **budget):
        if isinstance(source, Expansion):
            raise ArithmeticError("pell from the trail fails")
        return pell_solutions(source, **budget)

    monkeypatch.setattr(CONVERGENTS, "pell_solutions", raising)
    failures = {name: "pell from the trail fails" for name in ("convergent quality", "pell fundamental")}
    assert list(certify(expand_sqrt(19))) == _outcomes(failures)


@pytest.mark.parametrize("error", [StepLimitExceeded, ResourceLimitExceeded, MemoryError])
def test_certify_lets_a_budget_error_out_after_the_checks_before_it(monkeypatch, error):
    def exhausted(*args):
        raise error("sqrt(19): oracle out of budget")

    monkeypatch.setattr(palindrome, "oracle_expand", exhausted)
    checks = certify(expand_sqrt(19))
    assert list(itertools.islice(checks, 4)) == _outcomes()[:4]
    with pytest.raises(error, match=r"^sqrt\(19\): oracle out of budget$"):
        next(checks)


def test_certify_takes_the_step_budget():
    # 6 steps fit the expansion of sqrt(19) (period 6) but not the oracle's 3l + 1 = 19 quotients
    with pytest.raises(StepLimitExceeded, match=r"^sqrt\(19\): oracle agreement needs 19 steps, more than 6 steps$"):
        list(certify(expand_sqrt(19, 6), 6))
    assert list(certify(expand_sqrt(19, 19), 19)) == _outcomes()


def test_certify_frees_the_expansion_before_it_expands_the_tail(monkeypatch):
    # the tail's expansion builds a trail as large as e's: e must be gone by then
    freed = []

    class Marked(int):  # the closing q of the trail, which neither the tail nor any check keeps
        def __del__(self):
            freed.append(int(self))

    def marked(n):
        e = expand_sqrt(n)
        return e._replace(trail=e.trail[:-1] + (Marked(e.trail[-1]),))

    def expanding(*args):
        assert freed == [3]  # q_7 = q_1 = 19 - 4^2
        return expand_surd(*args)

    monkeypatch.setattr(palindrome, "expand_surd", expanding)
    outcomes = list(certify(marked(19)))  # not inside the assert, whose rewriting would keep the expansion
    assert outcomes == _outcomes() and freed == [3]
