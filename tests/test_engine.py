"""engine: state recurrence, period detection, increment factors, remainders."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from anthyphairesis.bookx import euler_trace
from anthyphairesis.convergents import pell_solutions
from anthyphairesis.engine import (
    Expansion,
    _anthyphairesis,
    _to_centre,
    expand_sqrt,
    expand_surd,
    increment_factors,
    remainders,
)
from anthyphairesis.palindrome import omega_sequence
from anthyphairesis.surd import (
    QuadraticSurd,
    StepLimitExceeded,
    _dec,
    floor_surd,
    is_perfect_square,
    isqrt,
    normalize,
    pigeonhole_bound,
)

PAPER_EXPANSIONS = {
    19: ((4,), (2, 1, 3, 1, 2, 8)),
    54: ((7,), (2, 1, 6, 1, 2, 14)),
    46: ((6,), (1, 3, 1, 1, 2, 6, 2, 1, 1, 3, 1, 12)),
    13: ((3,), (1, 1, 1, 1, 6)),
}


@pytest.mark.parametrize("n", sorted(PAPER_EXPANSIONS))
def test_expand_sqrt_paper_values(n):
    pre, per = PAPER_EXPANSIONS[n]
    e = expand_sqrt(n)
    assert e.preperiod == pre
    assert e.period == per
    assert not e.terminated


def test_expand_sqrt_trivial_cases():
    e = expand_sqrt(2)
    assert (e.preperiod, e.period) == ((1,), (2,))
    e = expand_sqrt(4)
    assert e.terminated and e.preperiod == (2,) and e.period == ()


def test_expand_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        expand_sqrt(0)


def _states(e):
    """The complete quotients (p_k + sqrt(d))/q_k of an expansion's trail."""
    t = e.trail
    return [QuadraticSurd(t[i], e.radicand, t[i + 1]) for i in range(0, len(t), 2)]


def test_state_trail_shape():
    e = expand_sqrt(19)
    assert len(e.mus) == len(e.lams) == len(e.quotients)
    assert (e.mus[0], e.lams[0]) == (e.mus[len(e.period)], e.lams[len(e.period)])  # the closing repeat


def test_state_trail_is_plain_ints():
    e = expand_sqrt(54)
    assert e.mus == (7, 3, 6, 6, 3, 7, 7)
    assert e.lams == (1, 5, 9, 2, 9, 5, 1)
    assert expand_surd(QuadraticSurd(1, 5, 2)).mus == ()


def test_recurrence_identities_and_bounds():
    for n in range(2, 400):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        mus, lams = e.mus, e.lams
        quots = e.quotients
        for k in range(1, len(mus)):
            assert lams[k] * lams[k - 1] == n - mus[k - 1] * mus[k - 1]
            assert mus[k] + mus[k - 1] == quots[k] * lams[k]
            assert 1 <= lams[k] < n
            assert mus[k] * mus[k] < n
        # minimality: nothing recurs strictly inside the period
        keys = list(zip(mus, lams))[:-1]
        assert len(set(keys)) == len(keys)
        assert all(q >= 1 for q in quots[1:])


def test_quotient_equals_floor_of_complete_quotient():
    # I_k = floor((m + mu_k)/lam_{k+1}) must agree with the exact floor
    # of the complete quotient surd (mu_k + sqrt(N))/lam_{k+1}
    for n in (13, 19, 46, 54, 61, 94):
        e = expand_sqrt(n)
        for k in range(1, len(e.mus)):
            surd = QuadraticSurd(e.mus[k - 1], n, e.lams[k])
            assert e.quotients[k] == floor_surd(surd)


def test_purely_periodic_tail():
    for n in range(2, 200):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        tail = QuadraticSurd(e.mus[0], n, e.lams[1])
        te = expand_surd(tail)
        assert te.preperiod == ()
        assert te.period == e.period


def test_expansion_determinism():
    a = expand_sqrt(139)
    b = expand_sqrt(139)
    assert a == b
    assert repr(a) == repr(b)


def test_step_limit_exhaustion_is_loud():
    with pytest.raises(StepLimitExceeded) as exc:
        expand_sqrt(54, max_steps=2)
    assert str(exc.value) == "sqrt(54): no state repeated within 2 steps"


def test_step_limit_exceeded_survives_pickling():
    with pytest.raises(StepLimitExceeded) as exc:
        expand_sqrt(54, max_steps=2)
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is StepLimitExceeded
    assert str(copy) == str(exc.value) == "sqrt(54): no state repeated within 2 steps"


def test_lost_divisibility_is_loud():
    # (1 + sqrt(7))/4 is not normalized: 4 does not divide 7 - 1, and the
    # first step gives p = -1, so q would be (7 - 1)/4
    with pytest.raises(AssertionError) as exc:
        _anthyphairesis(1, 7, 4, None)
    assert str(exc.value) == "lost divisibility at step 1 of (1+sqrt(7))/4"


def test_expand_surd_purely_periodic_input():
    e = expand_surd(QuadraticSurd(7, 54, 5))
    assert e.preperiod == ()
    assert e.period == (2, 1, 6, 1, 2, 14)


def test_expand_surd_rational_radicand():
    from anthyphairesis.oracle import oracle_expand

    s = QuadraticSurd.sqrt_of_rational(7, 3)
    e = expand_surd(s)
    assert e.preperiod == (1,)
    assert e.period == (1, 1, 8, 1, 1, 2)
    assert e.period[-1] == 2 * e.preperiod[0]
    interior = e.period[:-1]
    assert interior == interior[::-1]
    # derived values certified by the oracle across three full periods
    steps = 1 + 3 * len(e.period)
    assert oracle_expand(s, steps) == e.quotient_stream(steps)


def test_expand_surd_rational_value():
    e = expand_surd(QuadraticSurd(3, 0, 2))
    assert e.terminated
    assert e.preperiod == (1, 2)
    e = expand_surd(QuadraticSurd(0, 225, 5))  # 15/5 = 3
    assert e.terminated and e.preperiod == (3,)


def test_expand_surd_negative_value():
    e = expand_surd(QuadraticSurd(-3, 2, 1))
    assert e.preperiod[0] == -2
    assert all(q >= 1 for q in e.quotients[1:])


def test_expand_surd_state_repeat_is_full_triple():
    e = expand_surd(QuadraticSurd(1, 5, 2))  # (1+sqrt(5))/2, golden ratio
    assert e.preperiod == ()
    assert e.period == (1,)
    assert _states(e)[0] == _states(e)[1] == QuadraticSurd(1, 5, 2)


def ones_then_two(k: int) -> QuadraticSurd:
    """The surd [1, 1, ..., 1 (k ones); (2)]: x <- 1 + 1/x applied k times to 1 + sqrt(2)."""
    a, b, c = 1, 1, 1  # x = (a + b*sqrt(2))/c
    for _ in range(k):
        n = a * a - 2 * b * b  # 1 + 1/x = (n + c*a - c*b*sqrt(2))/n
        a, b, c = n + c * a, -c * b, n
        g = math.gcd(math.gcd(a, b), c)
        a, b, c = a // g, b // g, c // g
    if b < 0:
        a, b, c = -a, -b, -c
    return QuadraticSurd(a, 2 * b * b, c)


def test_long_preperiod_within_the_default_budget():
    for k in range(301):
        s = ones_then_two(k)
        e = expand_surd(s)
        assert (e.preperiod, e.period) == ((1,) * k, (2,)), k
        # the preperiod term of the default budget
        assert len(e.preperiod) <= abs(normalize(s).q).bit_length() + 2, k
    with pytest.raises(StepLimitExceeded):
        expand_surd(ones_then_two(11), max_steps=10)


def test_expand_surd_against_sympy():
    pytest.importorskip("sympy")
    from sympy.ntheory.continued_fraction import continued_fraction_periodic

    def sympy_split(s):
        # [a_0, ..., a_{j-1}, [period]] for an irrational, a flat list for a rational
        got = continued_fraction_periodic(s.p, s.q, s.d)
        if got and isinstance(got[-1], list):
            return tuple(got[:-1]), tuple(got[-1])
        return tuple(got), ()

    # sympy takes milliseconds per quotient, so the inputs stay small
    rng = random.Random(0x5E1)
    surds = [ones_then_two(k) for k in (0, 1, 11, 40)]
    for i in range(24):
        q = rng.randint(1, 12) * (-1 if i % 2 else 1)
        surds.append(QuadraticSurd(rng.randint(-100, 100), rng.randint(2, 200), q))
    for _ in range(12):
        surds.append(QuadraticSurd.sqrt_of_rational(rng.randint(1, 200), rng.randint(1, 10)))
    for s in surds:
        e = expand_surd(s)
        assert (e.preperiod, e.period) == sympy_split(s), s


def _is_reduced(x: QuadraticSurd) -> bool:
    # x > 1 and -1 < conj(x) < 0, by exact floors; conj(x) = (-p + sqrt(d))/(-q)
    return floor_surd(x) >= 1 and floor_surd(QuadraticSurd(-x.p, x.d, -x.q)) == -1


def test_preperiod_ends_at_the_first_reduced_state():
    # Galois: a complete quotient is purely periodic exactly when it is reduced
    rng = random.Random(0x6A1)
    for _ in range(300):
        q = rng.randint(1, 200) * rng.choice((1, -1))
        s = QuadraticSurd(rng.randint(-500, 500), rng.randint(2, 5000), q)
        e = expand_surd(s)
        if e.terminated:
            continue
        states = _states(e)
        reduced = [_is_reduced(x) for x in states]
        assert reduced.index(True) == len(e.preperiod), s
        assert all(reduced[len(e.preperiod) :]), s
        assert states[len(e.preperiod)] == states[-1], s


def test_increment_factors_paper_table():
    e = expand_sqrt(54)
    fs = increment_factors(e)
    assert [(lam, mu) for mu, lam in fs] == [
        (1, 7), (5, 3), (9, 6), (2, 6), (9, 3), (5, 7), (1, 7),
    ]


def test_increment_factors_first_factor_and_trivial():
    fs = tuple(increment_factors(expand_sqrt(19)))
    assert fs[0] == (4, 1)
    fs = tuple(increment_factors(expand_sqrt(2)))
    assert fs == ((1, 1), (1, 1))


def _sqrt19_with(states: dict[int, tuple[int, int]], period: tuple[int, ...] = (2, 1, 3, 1, 2, 8)) -> Expansion:
    """expand_sqrt(19) with each trail state (p_k, q_k) replaced by states[k], and its period by period."""
    trail = list(expand_sqrt(19).trail)
    for k, state in states.items():
        trail[2 * k : 2 * k + 2] = state
    return Expansion((4,), period, 19, tuple(trail))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: increment_factors(expand_sqrt(16)), ValueError, "terminated expansion has no increment factors"),
        (
            lambda: increment_factors(expand_surd(QuadraticSurd(1, 5, 2))),
            ValueError,
            "expansion does not carry integer increment-factor states",
        ),
        (
            lambda: increment_factors(_sqrt19_with({2: (-1, 6)}, (1, 1, 3, 1, 2, 8))),
            ValueError,
            "increment factor 2 is not smaller than beta",
        ),
        (lambda: omega_sequence(expand_sqrt(16)), ValueError, "terminated expansion has no increment factors"),
        (
            lambda: omega_sequence(_sqrt19_with({1: (5, -6)})),
            AssertionError,
            "omega_1 is not strictly between 0 and beta for sqrt(19)",
        ),
        (
            lambda: pell_solutions(_sqrt19_with({}, (1, 8))),
            AssertionError,
            "period-end convergent of sqrt(19) does not solve Pell",
        ),
        (
            lambda: pell_solutions(_sqrt19_with({}, (8,))),
            AssertionError,
            "odd-period convergent of sqrt(19) does not solve negative Pell",
        ),
    ],
    ids=["terminated", "no states", "phi not below beta", "omega of terminated", "omega_1 bounds", "pell", "negative pell"],
)
def test_certifier_errors(call, error, message):
    # each certifier raise that some input reaches; the divisibility raise of
    # increment_factors, omega_1's identity and the squared Pell check follow
    # from an earlier check, so no input reaches them
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


_PAST_THE_LIMIT = 7 * 10**5000 + 1  # 5,001 digits, past every int-to-str limit; 2 mod 3, so no square


def _off_first_state(n: int) -> Expansion:
    """An expansion of sqrt(n) whose preperiod (1,) is not (isqrt(n),) and whose one
    state (mu_1, lam_1) = (1, 1) is not (isqrt(n), 1), so no omega reads it."""
    return Expansion((1,), (2,), n, (0, 1, 1, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda n: euler_trace(n, 1), StepLimitExceeded, "trace of {} exceeded 1 steps without repeating"),
        (lambda n: pell_solutions(_off_first_state(n)), ValueError, "preperiod is not (isqrt(N),) for {}"),
        (lambda n: increment_factors(_off_first_state(n)), ValueError, "first state is not (isqrt(N), 1) for {}"),
        (lambda n: omega_sequence(_off_first_state(n)), ValueError, "first state is not (isqrt(N), 1) for {}"),
    ],
    ids=["euler_trace", "pell_solutions", "increment_factors", "omega_sequence"],
)
def test_messages_write_an_n_past_the_int_to_str_limit(call, error, message):
    # the intended error, not str()'s ValueError for too many digits
    with pytest.raises(error) as exc:
        call(_PAST_THE_LIMIT)
    assert str(exc.value) == message.format(f"sqrt({_dec(_PAST_THE_LIMIT)})")


def _line_ratio_floor(u, v, n: int) -> int:
    # exact floor of (value of u)/(value of v), both line triples over ratio n
    c1, c2 = Fraction(u[0], u[2]), Fraction(u[1], u[2])
    c3, c4 = Fraction(v[0], v[2]), Fraction(v[1], v[2])
    a = c1 * c3 * n - c2 * c4
    b = c2 * c3 - c1 * c4
    c = c3 * c3 * n - c4 * c4
    scale = a.denominator * b.denominator * c.denominator
    a, b, c = int(a * scale), int(b * scale), int(c * scale)
    if b < 0:
        a, b, c = -a, -b, -c
    return floor_surd(QuadraticSurd(a, b * b * n, c))


def test_remainders_paper_values_19():
    lines = remainders(19, 7)
    expected = [
        (1, -4, 1), (-2, 9, 1), (3, -13, 1), (-11, 48, 1), (14, -61, 1), (-39, 170, 1), (326, -1421, 1),
    ]
    assert list(lines) == expected


def test_remainders_sqrt2():
    # b = 2*e1 + e2 forces e2 = 3*beta - 2*alpha
    lines = remainders(2, 2)
    assert lines == ((1, -1, 1), (-2, 3, 1))


def test_remainders_13_step_floors():
    # derived: the quotient of each division step must equal the exact
    # floor of the remainder ratio e_{k-1}/e_k
    n = 13
    lines = remainders(n, 3)
    assert lines == ((1, -3, 1), (-1, 4, 1), (2, -7, 1))
    e = expand_sqrt(n)
    chain = [(1, 0, 1), (0, 1, 1)] + list(lines)
    for k in range(len(chain) - 2):
        assert _line_ratio_floor(chain[k], chain[k + 1], n) == e.quotient_stream(k + 1)[k]


def test_remainders_rejects_squares():
    with pytest.raises(ValueError):
        remainders(16, 3)


def test_pigeonhole_bound():
    assert pigeonhole_bound(2) == 3
    assert pigeonhole_bound(54) == 57
    assert pigeonhole_bound(19) == 21
    assert len(expand_sqrt(19).period) == 6  # actual period found in 6 steps
    with pytest.raises(ValueError):
        pigeonhole_bound(1)


def test_engine_oracle_agreement_sample():
    from anthyphairesis.oracle import oracle_expand

    for n in range(2, 200):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        steps = 3 * len(e.period) + 1
        assert oracle_expand(QuadraticSurd.sqrt_of(n), steps) == e.quotient_stream(steps)


def test_engine_oracle_agreement_random_surds():
    from anthyphairesis.oracle import oracle_expand

    rng = random.Random(0xA17)
    for _ in range(100):
        q = rng.randint(1, 1000) * rng.choice((1, -1))
        p = rng.randint(-1000, 1000)
        d = rng.randint(2, 10**6)
        d += (p * p - d) % abs(q)  # make q | d - p^2
        if is_perfect_square(d):
            continue
        s = QuadraticSurd(p, d, q)
        e = expand_surd(s)
        steps = len(e.preperiod) + 2 * len(e.period)
        assert oracle_expand(s, steps) == e.quotient_stream(steps)


def test_resource_limit_exceeded_survives_pickling():
    from anthyphairesis.surd import ResourceLimitExceeded

    exc = pickle.loads(pickle.dumps(ResourceLimitExceeded("sqrt(46): 10 steps fill this process's memory")))
    assert type(exc) is ResourceLimitExceeded
    assert str(exc) == "sqrt(46): 10 steps fill this process's memory"


def test_centre_stop_gives_the_first_half_of_every_period_below_1e5():
    # trail-free expansion to the centre against the full period, parity included
    for n in range(2, 100_000):
        e = expand_sqrt(n)
        if e.terminated:
            continue
        l = len(e.period)
        assert _to_centre(n) == (e.period[: l // 2], l % 2 == 1), n


def test_centre_stop_budget_boundary(monkeypatch):
    # a period of length l reaches its centre in exactly l // 2 steps; one fewer runs out of the budget or the memory
    from anthyphairesis import surd
    from anthyphairesis.surd import ResourceLimitExceeded

    for n in range(2, 3001):
        e = expand_sqrt(n)
        if e.terminated:
            continue
        l = len(e.period)
        assert _to_centre(n, l // 2) == (e.period[: l // 2], l % 2 == 1), n
        short = l // 2 - 1
        if short < 1:
            continue
        with pytest.raises(StepLimitExceeded) as info:
            _to_centre(n, short)
        assert str(info.value) == f"sqrt({n}): centre of the period not reached within {short} steps"
        monkeypatch.setattr(surd, "_memory_steps", lambda bytes_per_step: short)
        with pytest.raises(ResourceLimitExceeded) as info:
            _to_centre(n)
        assert str(info.value) == f"sqrt({n}): centre of the period not reached within {short} steps, all that fit in memory"
        monkeypatch.undo()


def test_trail_budget_boundary(monkeypatch):
    # a budget of b steps lets the trail take b + 1 quotients: an expansion of L quotients
    # closes within L - 1, and L - 2 runs out of the budget or the memory, also inside the preperiod
    from anthyphairesis import surd
    from anthyphairesis.surd import ResourceLimitExceeded

    rng = random.Random(0xB0D)
    cases = [(expand_sqrt, n, f"sqrt({n})", ()) for n in range(2, 3001) if not is_perfect_square(n)]
    surds = [ones_then_two(k) for k in (1, 5, 11, 40)]
    for _ in range(100):
        q = -rng.randint(1, 60)
        p, d = rng.randint(-300, 300), rng.randint(2, 3000)
        if (d - p * p) % q and not is_perfect_square(d):
            surds.append(QuadraticSurd(p, d, q))
    for s in surds:
        preperiod = len(expand_surd(s).preperiod)
        cases.append((expand_surd, s, str(normalize(s)), range(preperiod)))
    for expand, x, head, inside in cases:
        e = expand(x)
        steps = len(e.quotients)
        assert expand(x, steps - 1) == e, head
        for short in sorted({steps - 2, *inside}):
            with pytest.raises(StepLimitExceeded) as info:
                expand(x, short)
            assert str(info.value) == f"{head}: no state repeated within {short} steps"
            monkeypatch.setattr(surd, "_memory_steps", lambda bytes_per_step: short)
            with pytest.raises(ResourceLimitExceeded) as info:
                expand(x)
            assert str(info.value) == f"{head}: no state repeated within {short} steps, all that fit in memory"
            monkeypatch.undo()


def test_period_states_are_reduced_and_the_preperiod_minimal():
    # Galois: the preperiod ends at the first state in the reduced box and every later
    # state stays in it, so q > 0 there and the period's floor is (p + r) // q
    rng = random.Random(0x6B0)
    expansions = [expand_sqrt(n) for n in range(2, 3001)]
    for _ in range(1000):
        q = rng.randint(1, 200) * rng.choice((1, -1))
        expansions.append(expand_surd(QuadraticSurd(rng.randint(-500, 500), rng.randint(2, 5000), q)))
    for e in expansions:
        if e.terminated:
            continue
        r = isqrt(e.radicand)
        boxed = [q > 0 and 0 < p <= r < p + q and q - p <= r for p, q in zip(e.trail[::2], e.trail[1::2])]
        j = len(e.preperiod)
        assert all(boxed[j:]), e
        assert not any(boxed[:j]), e
