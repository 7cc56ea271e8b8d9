"""bookx: line/area algebra, conjugacy, classification, symbolic trace."""

import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anthyphairesis.bookx import (
    BETA_SQUARED,
    _add,
    _is_beta_squared,
    _plus_beta,
    _product,
    _reduced,
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
from anthyphairesis.engine import expand_sqrt, increment_factors, remainders
from anthyphairesis.palindrome import _trace_quotients
from anthyphairesis.surd import ResourceLimitExceeded, StepLimitExceeded, is_perfect_square, isqrt

GOLDEN_54 = os.path.join(os.path.dirname(__file__), "..", "goldens", "trace54.txt")


def _triple(c_alpha, c_beta):
    """The reduced triple (a, b, den) of the line or area with rational coefficients (c_alpha, c_beta)."""
    x, y = Fraction(c_alpha), Fraction(c_beta)
    den = x.denominator * y.denominator // math.gcd(x.denominator, y.denominator)
    return int(x * den), int(y * den), den


def _coeffs(u):
    a, b, den = u
    return Fraction(a, den), Fraction(b, den)


def test_line_mul_paper_products():
    assert line_mul(basis(54), (1, -7, 1), (1, 7, 1)) == (0, 5, 1)  # 54b^2 - 49b^2
    assert line_mul(basis(19), (1, -4, 1), (-39, 170, 1)) == (326, -1421, 1)
    assert line_mul(basis(7), (0, 1, 1), (0, 1, 1)) == (0, 1, 1)


def test_basis_rejects_square_ratio():
    with pytest.raises(ValueError):
        basis(4)
    with pytest.raises(ValueError):
        basis(Fraction(9, 4))


def test_basis_of_an_int_and_of_a_fraction():
    assert basis(7) == (7, 1)
    assert basis(Fraction(7, 3)) == basis(Fraction(14, 6)) == (7, 3)
    assert basis(Fraction(7, 1)) == (7, 1)
    for bad in (0, -7, Fraction(-7, 3), 1, Fraction(1, 4)):
        with pytest.raises(ValueError):
            basis(bad)


def test_conjugate():
    assert conjugate((1, -7, 1)) == (1, 7, 1)
    assert conjugate((0, 3, 1)) == (0, -3, 1)


nonsquare_ratio = st.integers(min_value=2, max_value=10**4).filter(
    lambda r: not is_perfect_square(r)
)
coeff = st.fractions(min_value=-30, max_value=30)


@given(coeff, coeff, nonsquare_ratio)
def test_conjugate_involution_and_rational_product(c_a, c_b, ratio):
    u = _triple(c_a, c_b)
    assert conjugate(conjugate(u)) == u
    assert line_mul(basis(ratio), u, conjugate(u))[0] == 0


def test_inverse_paper_values():
    b54 = basis(54)
    assert inverse_wrt_beta_squared(b54, (1, -7, 1)) == (1, 7, 5)  # 5*psi_1 = a + 7b
    assert inverse_wrt_beta_squared(b54, (1, -6, 9)) == (1, 6, 2)  # 2*psi_3 = a + 6b
    assert inverse_wrt_beta_squared(b54, (0, 2, 1)) == (0, 1, 2)


def test_inverse_of_zero_line():
    with pytest.raises(ZeroDivisionError):
        inverse_wrt_beta_squared(basis(54), (0, 0, 1))


@given(coeff, coeff, nonsquare_ratio)
def test_inverse_involution_and_unit_product(c_a, c_b, ratio):
    u = _triple(c_a, c_b)
    if u[:2] == (0, 0):
        return
    pq = basis(ratio)
    v = inverse_wrt_beta_squared(pq, u)
    assert line_mul(pq, u, v) == (0, 1, 1)
    assert inverse_wrt_beta_squared(pq, v) == u


def _sign(c_a, c_b, ratio):
    """sign_of of c_a*alpha + c_b*beta over alpha^2 = ratio*beta^2, Fraction denominators cleared."""
    return sign_of(basis(ratio), _triple(c_a, c_b))


def test_sign_of_examples():
    assert _sign(1, -4, 19) == 1  # a remainder, hence positive
    assert _sign(0, 0, 19) == 0
    assert _sign(-1, 4, 19) == -1


def test_sign_of_rejects_bad_ratio():
    with pytest.raises(ValueError):
        _sign(1, 1, Fraction(4, 9))
    with pytest.raises(ValueError):
        _sign(1, 1, 0)
    with pytest.raises(ValueError):
        _sign(1, 1, -3)


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.integers(min_value=2, max_value=10**6).filter(lambda r: not is_perfect_square(r)),
)
def test_sign_of_antisymmetry(c_a, c_b, ratio):
    assert _sign(c_a, c_b, ratio) == -_sign(-c_a, -c_b, ratio)


@settings(max_examples=300)
@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
    st.integers(min_value=2, max_value=10**4).filter(lambda r: not is_perfect_square(r)),
)
def test_sign_of_matches_float_estimate(c_a, c_b, ratio):
    approx = float(c_a) * math.sqrt(ratio) + float(c_b)
    got = _sign(c_a, c_b, ratio)
    if abs(approx) > 1e-6:
        assert got == (1 if approx > 0 else -1)
    elif c_a == 0 and c_b == 0:
        assert got == 0


def test_classify_examples():
    b54 = basis(54)
    assert classify(b54, (1, -7, 1)) == "apotome"
    assert classify(b54, (1, 7, 1)) == "binomial"
    assert classify(b54, (-1, 7, 1)) == "other"  # negation of an apotome
    assert classify(b54, (0, 3, 1)) == "rational_multiple"
    assert classify(b54, (3, 0, 1)) == "rational_multiple"
    # negative value with one negative coefficient: 2b - a over ratio 19
    assert classify(basis(19), (-1, 2, 1)) == "other"


def test_conjugacy_identity_all_small_pairs():
    # (alpha - mu*beta)(alpha + mu*beta) = (N - mu^2)*beta^2 exactly
    for n in range(2, 10**4 + 1):
        if is_perfect_square(n):
            continue
        pq = basis(n)
        for mu in range(isqrt(n) + 1):
            area = line_mul(pq, (1, -mu, 1), (1, mu, 1))
            assert area == (0, n - mu * mu, 1)


def test_apotome_binomial_round_trip_from_increment_factors():
    # X.112/X.113: the inverse of an apotome is a binomial and back
    for n in range(2, 1001):
        if is_perfect_square(n):
            continue
        pq = basis(n)
        for mu, lam in increment_factors(expand_sqrt(n)):
            phi = _triple(Fraction(1, lam), Fraction(-mu, lam))
            assert classify(pq, phi) == "apotome"
            psi = inverse_wrt_beta_squared(pq, phi)
            assert classify(pq, psi) == "binomial"
            assert classify(pq, inverse_wrt_beta_squared(pq, psi)) == "apotome"


def test_logos_cross_check_paper_example():
    n = 19
    pq = basis(n)
    e = remainders(n, 7)
    beta = (0, 1, 1)
    assert logos_cross_check(pq, beta, e[0], e[5], e[6])  # b/e1 = e6/e7
    # derived negative: both areas computed, they differ
    assert line_mul(pq, beta, e[6]) != line_mul(pq, e[0], e[4])
    assert not logos_cross_check(pq, beta, e[0], e[4], e[6])


def test_logos_cross_check_identical_ratio():
    u = (2, -3, 1)
    v = (1, 5, 1)
    assert logos_cross_check(basis(19), u, v, u, v)


def test_logos_cross_check_period_multiples():
    for n in (19, 31, 44, 61):
        period = len(expand_sqrt(n).period)
        lines = remainders(n, 2 * period + 2)
        for k in range(period):
            assert logos_cross_check(
                basis(n), lines[k], lines[k + 1], lines[k + period], lines[k + period + 1]
            )


def test_euler_trace_54_matches_table():
    steps = euler_trace(54)
    assert len(steps) == 7
    assert [(s.lam, s.mu) for s in steps] == [
        (1, 7), (5, 3), (9, 6), (2, 6), (9, 3), (5, 7), (1, 7),
    ]
    assert [s.quotient for s in steps[:-1]] == [2, 1, 6, 1, 2, 14]
    assert steps[-1].repeats_index == 1
    # row 2 spot check: I_1 = 2 and 5*phi_2 = alpha - 3*beta
    assert steps[0].quotient == 2
    assert steps[1].phi == (1, -3, 5)
    # conjugacy product constants are the lambda chain
    assert [s.product_constant for s in steps[:-1]] == [5, 9, 2, 9, 5, 1]


def test_euler_trace_trivial_and_errors():
    steps = euler_trace(2)
    assert len(steps) == 2
    assert steps[1].repeats_index == 1
    with pytest.raises(ValueError):
        euler_trace(16)
    with pytest.raises(StepLimitExceeded) as exc:
        euler_trace(54, max_steps=2)
    assert str(exc.value) == "trace of sqrt(54) exceeded 2 steps without repeating"


def test_euler_trace_agrees_with_engine():
    for n in range(2, 1001):
        if is_perfect_square(n):
            continue
        steps = euler_trace(n)
        quots = [steps[0].mu] + [s.quotient for s in steps if s.quotient is not None]
        assert tuple(quots) == expand_sqrt(n).quotients


def _ref_term(coeff, symbol):
    return symbol if coeff == 1 else f"{coeff}*{symbol}"


def _ref_line(u, name):
    a, b, den = u
    sign = "+" if b > 0 else "-"
    return f"{_ref_term(den, name)} = {_ref_term(a, 'alpha')} {sign} {_ref_term(abs(b), 'beta')}"


def _ref_render_trace(steps, N):
    """render_trace as it read when each line was rendered on its own, line by line."""
    pq = basis(N)
    out = [f"anthyphairesis trace: alpha^2 = {N}*beta^2"]
    quotients = []
    for i, s in enumerate(steps):
        out.append(
            f"step {s.index}: {_ref_line(s.phi, f'phi_{s.index}')}"
            f" ({classify(pq, s.phi)}; lambda_{s.index} = {s.lam}, mu_{s.index} = {s.mu})"
        )
        if s.repeats_index is not None:
            out.append(
                f"  phi_{s.index} = phi_{s.repeats_index}:"
                f" periodicity by the incremental Logos criterion (period {len(steps) - s.repeats_index})"
            )
            continue
        out.append(f"  conjugate: {_ref_line(conjugate(s.phi), f'phi_{s.index}*')}")
        out.append(
            f"  product:   lambda_{s.index}*phi_{s.index}*phi_{s.index}*"
            f" = {s.product_constant}*beta^2 = lambda_{s.index + 1}*beta^2"
        )
        out.append(f"  inverse:   {_ref_line(s.psi, f'psi_{s.index}')}")
        out.append(f"  quotient:  I_{s.index} = {s.quotient}")
        out.append(f"  next:      {_ref_line(steps[i + 1].phi, f'phi_{s.index + 1}')}")
        quotients.append(s.quotient)
    out.append(f"anthyphairesis: [{steps[0].mu}, period({', '.join(str(q) for q in quotients)})]")
    return "\n".join(out) + "\n"


def test_render_trace_matches_the_line_by_line_reference_to_2000():
    ones = set()  # (coefficient, whether it was 1) over every phi and psi rendered
    for n in range(2, 2001):
        if is_perfect_square(n):
            continue
        steps = euler_trace(n)
        assert render_trace(steps, n) == _ref_render_trace(steps, n), n
        for s in steps:
            for a, b, den in (s.phi, s.psi or s.phi):
                ones |= {("den", den == 1), ("a", a == 1), ("|b|", abs(b) == 1)}
    # a is 1 in every phi and psi of a sqrt(N) trace: (alpha -/+ mu*beta)/lam
    assert ones == {("den", True), ("den", False), ("a", True), ("|b|", True), ("|b|", False)}


def test_render_trace_is_stable():
    text = render_trace(euler_trace(54), 54)
    assert text.startswith("anthyphairesis trace: alpha^2 = 54*beta^2\n")
    assert "5*psi_1 = alpha + 7*beta" in text
    assert text.endswith("anthyphairesis: [7, period(2, 1, 6, 1, 2, 14)]\n")
    assert render_trace(euler_trace(54), 54) == text


# The integer layer against a Fraction reference written here, without bookx:
# a line is the coefficient pair (c_alpha, c_beta), alpha^2 = r*beta^2.


def _ref_mul(u, v, r):
    return (u[0] * v[1] + u[1] * v[0], u[0] * v[0] * r + u[1] * v[1])


def _ref_sign(c_a, c_b, r):
    """Sign of c_a*sqrt(r) + c_b by bisecting sqrt(r) until both bounds give one sign."""
    if c_a == 0:
        return (c_b > 0) - (c_b < 0)
    lo, hi = Fraction(0), Fraction(r) + 1
    while True:
        s_lo, s_hi = c_a * lo + c_b, c_a * hi + c_b
        if (s_lo > 0) == (s_hi > 0) and s_lo != 0 and s_hi != 0:
            return 1 if s_lo > 0 else -1
        mid = (lo + hi) / 2
        if mid * mid < r:
            lo = mid
        else:
            hi = mid


def _ref_classify(c_a, c_b, r):
    if c_a == 0 or c_b == 0:
        return "rational_multiple"
    if c_a > 0 and c_b > 0:
        return "binomial"
    return "apotome" if _ref_sign(c_a, c_b, r) > 0 else "other"


def _assert_reduced(u):
    a, b, den = u
    assert den > 0 and math.gcd(a, b, den) == 1


rational_ratio = st.builds(Fraction, st.integers(1, 400), st.integers(1, 60)).filter(
    lambda r: not (is_perfect_square(r.numerator) and is_perfect_square(r.denominator))
)


@given(coeff, coeff, coeff, coeff, st.one_of(nonsquare_ratio, rational_ratio))
def test_integer_layer_matches_fraction_reference(c1, c2, c3, c4, ratio):
    r = Fraction(ratio)
    pq = basis(ratio)
    assert pq == (r.numerator, r.denominator)
    u, v = _triple(c1, c2), _triple(c3, c4)
    _assert_reduced(u)
    assert _coeffs(u) == (c1, c2)

    ab, bb = _ref_mul((c1, c2), (c3, c4), r)
    area = line_mul(pq, u, v)
    _assert_reduced(area)
    assert _coeffs(area) == (ab, bb)

    w = conjugate(u)
    _assert_reduced(w)
    assert _coeffs(w) == (c1, -c2)

    assert sign_of(pq, u) == _ref_sign(c1, c2, r)
    assert classify(pq, u) == _ref_classify(c1, c2, r)

    if c1 == c2 == 0:
        with pytest.raises(ZeroDivisionError):
            inverse_wrt_beta_squared(pq, u)
        return
    norm = c1 * c1 * r - c2 * c2
    inv = inverse_wrt_beta_squared(pq, u)
    _assert_reduced(inv)
    assert _coeffs(inv) == (c1 / norm, -c2 / norm)
    assert _ref_mul((c1, c2), _coeffs(inv), r) == (0, 1)


small = st.integers(-6, 6)
raw_triple = st.tuples(small, small, small)  # any den, 0 and negative ones too
any_ratio = st.one_of(nonsquare_ratio, rational_ratio)


@given(coeff, coeff, coeff, coeff, any_ratio)
def test_product_reduces_to_line_mul(c1, c2, c3, c4, ratio):
    pq = basis(ratio)
    u, v = _triple(c1, c2), _triple(c3, c4)
    assert _reduced(*_product(pq, u, v)) == line_mul(pq, u, v)


@given(raw_triple, raw_triple, any_ratio, st.booleans(), st.integers(-3, 3))
@example((0, 0, 0), (1, 1, 1), 54, False, 1)  # line_mul raises: all of the product is 0
@example((-1, 7, -1), (1, 7, 5), 54, False, 1)  # alpha - 7*beta with den < 0, times its inverse
@example((1, -7, 0), (1, 7, 5), 54, False, 1)  # den = 0, and line_mul does not raise
@example((1, -7, 1), (1, 7, 1), 54, False, 1)  # 5*beta^2
def test_is_beta_squared_is_line_mul_equal_to_beta_squared(u, v, ratio, to_inverse, c):
    """Also for unreduced triples; v is then c times an inverse of u, c = 0 included."""
    pq = basis(ratio)
    if to_inverse and u[:2] != (0, 0):
        a, b, den = inverse_wrt_beta_squared(pq, u)
        v = (c * a, c * b, c * den)
    try:
        expected = line_mul(pq, u, v) == BETA_SQUARED
    except ZeroDivisionError:
        expected = False
    assert _is_beta_squared(pq, u, v) == expected


@given(coeff, coeff, st.integers(-(10**6), 10**6))
def test_plus_beta_is_add(c_a, c_b, k):
    u = _triple(c_a, c_b)
    assert _plus_beta(u, k) == _add(u, (0, k, 1))


def test_euler_trace_agrees_with_engine_to_3000():
    # N <= 1000 is covered by test_euler_trace_agrees_with_engine
    for n in range(1001, 3001):
        if is_perfect_square(n):
            continue
        steps = euler_trace(n)
        quots = [steps[0].mu] + [s.quotient for s in steps if s.quotient is not None]
        assert tuple(quots) == expand_sqrt(n).quotients, n


def test_trace_and_oracle_run_without_the_engine_recurrence(monkeypatch):
    from anthyphairesis import engine
    from anthyphairesis.oracle import oracle_expand
    from anthyphairesis.surd import QuadraticSurd

    def unavailable(*args):
        raise AssertionError("the engine recurrence was called")

    monkeypatch.setattr(engine, "_anthyphairesis", unavailable)
    with pytest.raises(AssertionError):
        expand_sqrt(54)
    with open(GOLDEN_54, encoding="utf-8") as fh:
        assert render_trace(euler_trace(54), 54) == fh.read()
    assert oracle_expand(QuadraticSurd.sqrt_of(54), 20) == [7] + ([2, 1, 6, 1, 2, 14] * 4)[:19]


def test_trace_quotients_equal_euler_trace_and_the_engine_to_3000():
    # verify's quotient-only path runs the stepper of euler_trace; its phi_1
    # stop closes the period because no other phi repeats first (Galois)
    for n in range(2, 3001):
        if is_perfect_square(n):
            continue
        steps = euler_trace(n)
        assert _trace_quotients(n) == (steps[0].mu, *(s.quotient for s in steps[:-1])) == expand_sqrt(n).quotients, n
        assert len({s.phi for s in steps[:-1]}) == len(steps) - 1 and steps[-1].phi == steps[0].phi, n


@pytest.mark.parametrize("n", [2, 13, 19, 46, 54, 61, 94])
def test_trace_quotients_honour_the_step_budget(n):
    # a period of l steps fits a budget of l, as in euler_trace and the engine, and l - 1 raises the same error
    e = expand_sqrt(n)
    l = len(e.period)
    assert _trace_quotients(n, l) == e.quotients
    for trace in (euler_trace, _trace_quotients):
        with pytest.raises(StepLimitExceeded) as exc:
            trace(n, l - 1)
        assert str(exc.value) == f"trace of sqrt({n}) exceeded {l - 1} steps without repeating"


def test_trace_quotients_are_charged_with_the_trail_step_beside_them(monkeypatch):
    # memory for 10 trail steps: sqrt(43) expands in its 10, but 10 trace steps
    # of a trail step plus a quotient do not fit, and euler_trace's 4 KB steps fit 2
    from anthyphairesis import engine, surd

    monkeypatch.setattr(surd, "_memory_steps", lambda bytes_per_step: 10 * engine._TRAIL_STEP_BYTES // bytes_per_step)
    assert len(expand_sqrt(43).period) == 10
    assert _trace_quotients(19) == expand_sqrt(19).quotients
    with pytest.raises(ResourceLimitExceeded) as exc:
        _trace_quotients(43)
    assert str(exc.value) == "trace of sqrt(43) exceeded 9 steps, all that fit in memory"
    with pytest.raises(ResourceLimitExceeded) as exc:
        euler_trace(19)
    assert str(exc.value) == "trace of sqrt(19) exceeded 2 steps, all that fit in memory"
