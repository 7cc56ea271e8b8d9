"""surd_core: exact isqrt, normalization and floor."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anthyphairesis.surd import (
    QuadraticSurd,
    floor_surd,
    is_perfect_square,
    isqrt,
    normalize,
)


def test_isqrt_examples():
    assert isqrt(54) == 7
    assert isqrt(0) == 0
    assert isqrt(10**18) == 10**9
    # derived: direct multiplication check on the boundary value
    n = (10**9 + 1) ** 2 - 1
    r = isqrt(n)
    assert r == 10**9
    assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_contract_up_to_one_million():
    for n in range(10**6):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**80))
def test_isqrt_matches_stdlib(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)
    assert r == math.isqrt(n)


def same_value(a: QuadraticSurd, b: QuadraticSurd) -> bool:
    # rational parts p/q and irrational parts sqrt(d)/q must both match;
    # the latter cross-multiplies to d1*q2^2 == d2*q1^2 with matching q signs
    if a.p * b.q != b.p * a.q:
        return False
    if a.d * b.q * b.q != b.d * a.q * a.q:
        return False
    return a.d == 0 or (a.q > 0) == (b.q > 0)


def test_normalize_examples():
    s = QuadraticSurd(7, 54, 5)
    assert normalize(s) == s  # 5 | 54 - 49 already

    t = normalize(QuadraticSurd(1, 2, 4))
    assert t == QuadraticSurd(4, 32, 16)
    assert same_value(t, QuadraticSurd(1, 2, 4))
    assert (t.d - t.p * t.p) % t.q == 0  # normalized

    r = normalize(QuadraticSurd(0, 4, 1))
    assert r.is_rational
    assert Fraction(r.p + isqrt(r.d), r.q) == 2


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=-200, max_value=200).filter(lambda q: q != 0),
)
def test_normalize_idempotent_and_value_preserving(p, d, q):
    s = QuadraticSurd(p, d, q)
    t = normalize(s)
    assert (t.d - t.p * t.p) % t.q == 0  # normalized
    assert same_value(s, t)
    assert normalize(t) == t


def test_floor_surd_examples():
    assert floor_surd(QuadraticSurd(7, 54, 5)) == 2  # integral part of 14/5
    assert floor_surd(QuadraticSurd(0, 19, 1)) == 4
    assert floor_surd(QuadraticSurd(-3, 2, 1)) == -2


def _floor_by_interval(s: QuadraticSurd) -> int:
    """Independent floor: shrink a rational interval around sqrt(d) until
    it excludes every integer boundary."""
    if is_perfect_square(s.d):
        return math.floor(Fraction(s.p + isqrt(s.d), s.q))
    bits = 16
    while True:
        scale = 1 << bits
        lo = isqrt(s.d * scale * scale)  # lo/scale <= sqrt(d) < (lo+1)/scale
        ends = (
            Fraction(s.p * scale + lo, s.q * scale),
            Fraction(s.p * scale + lo + 1, s.q * scale),
        )
        fl = math.floor(min(ends))
        fh = math.floor(max(ends))
        if fl == fh:
            return fl
        bits *= 2


def test_floor_surd_against_interval_oracle():
    rng = random.Random(0xF100)
    for _ in range(10**4):
        p = rng.randint(-(10**9), 10**9)
        d = rng.randint(0, 10**9)
        q = rng.randint(1, 10**9) * rng.choice((1, -1))
        s = QuadraticSurd(p, d, q)
        assert floor_surd(s) == _floor_by_interval(s)


def test_str_writes_each_field_in_full_past_the_int_to_str_limit():
    big = 7 * 10**5000 + 1  # more digits than Python's default int-to-str limit, 4300
    digits = "7" + "0" * 4999 + "1"
    assert str(QuadraticSurd(0, big, 1)) == f"sqrt({digits})"
    assert str(QuadraticSurd(-big, big, big)) == f"(-{digits}+sqrt({digits}))/{digits}"
