"""convergents: three-term recurrence, quality identity, Pell solutions."""

import ast
import inspect
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthyphairesis import engine
from anthyphairesis.convergents import _last_convergent, _matrix_product, convergents, pell_fundamental, pell_negative, pell_solutions
from anthyphairesis.engine import expand_sqrt, expand_surd
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.surd import QuadraticSurd, is_perfect_square


def test_convergents_19():
    cs = list(convergents(expand_sqrt(19).quotient_stream(6)))
    assert cs == [(4, 1), (9, 2), (13, 3), (48, 11), (61, 14), (170, 39)]
    assert 170 * 170 - 19 * 39 * 39 == 1


def test_first_convergent_is_first_quotient():
    for n in (2, 13, 19, 54):
        assert list(convergents(expand_sqrt(n).quotient_stream(1))) == [(expand_sqrt(n).preperiod[0], 1)]


def test_convergents_sqrt2_side_and_diameter():
    cs = list(convergents(expand_sqrt(2).quotient_stream(4)))
    assert cs == [(1, 1), (3, 2), (7, 5), (17, 12)]
    for p, q in cs:
        assert abs(p * p - 2 * q * q) == 1


def test_convergents_terminated_expansion_caps():
    e = expand_surd(QuadraticSurd(3, 0, 2))  # [1, 2]
    assert list(convergents(e.quotient_stream(10))) == [(1, 1), (3, 2)]


def test_convergents_of_any_quotient_stream():
    # one convergent per quotient, from a tuple, a one-shot iterator or the oracle; none from none
    assert list(convergents(())) == []
    assert list(convergents(iter([4, 2, 1]))) == [(4, 1), (9, 2), (13, 3)]
    for s in (QuadraticSurd(7, 54, 5), QuadraticSurd(-3, 5, 4), QuadraticSurd(0, 21, 3), QuadraticSurd(3, 0, 2)):
        assert list(convergents(oracle_expand(s, 20))) == list(convergents(expand_surd(s).quotient_stream(20))), s


def test_convergents_read_one_quotient_per_pair():
    read = []

    def stream():
        for a in itertools.cycle((1, 2)):
            read.append(a)
            yield a

    pairs = convergents(stream())
    assert [next(pairs) for _ in range(3)] == [(1, 1), (3, 2), (4, 3)]
    assert read == [1, 2, 1]


def test_convergents_coprime_and_cross_rule():
    for n in (19, 31, 61, 94, 139):
        cs = list(convergents(expand_sqrt(n).quotient_stream(12)))
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
        for k, (p, q) in enumerate(convergents(e.quotient_stream(2 * period))):
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
        for p, q in convergents(e.quotient_stream(2 * len(e.period))):
            if q < y:
                assert p * p - n * q * q != 1


def _times(x, y):
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_product_tree_equals_the_plain_product(seed):
    # every length 0..140, so both sides of every leaf boundary; quotients of 1 and past 2^64 among them
    rng = random.Random(seed)
    draws = (lambda: 1, lambda: rng.randint(2, 300), lambda: rng.randint(2**64, 2**80))
    qs = tuple(rng.choice(draws)() for _ in range(140))
    assert 1 in qs and max(qs) > 2**64
    plain = (1, 0, 0, 1)
    for n in range(141):
        assert _matrix_product(qs, 0, n) == plain, n
        if n < 140:
            plain = _times(plain, (qs[n], 1, 1, 0))


def test_last_convergent_at_every_length_across_the_runs():
    # lengths 1..200 cross the 64-quotient run boundaries at 64, 128 and 192, and an odd matrix at each level
    rng = random.Random(7)
    draws = (lambda: 1, lambda: rng.randint(2, 300), lambda: rng.randint(2**64, 2**80))
    qs = [rng.choice(draws)() for _ in range(200)]
    for n, pair in enumerate(convergents(qs), 1):
        assert _last_convergent(qs[:n]) == pair, n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2**70), min_size=1, max_size=200), st.integers(1, 4000))
def test_last_convergent_is_the_last_of_convergents(pattern, length):
    # a drawn pattern cycled to a drawn length, as verify cycles the period over the stream
    qs = list(itertools.islice(itertools.cycle(pattern), length))
    assert _last_convergent(qs) == list(convergents(qs))[-1]


def _reachable(tree: ast.Module, roots: tuple[str, ...]) -> set[str]:
    """Project functions called, directly or not, from the roots: a name defined in the module
    is followed into its body, a name imported from the package is a leaf."""
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    project = set(bodies) | {alias.asname or alias.name for node in tree.body
                             if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    seen, todo = set(), [bodies[root] for root in roots]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in project - seen:
                seen.add(node.func.id)
                if node.func.id in bodies:
                    todo.append(bodies[node.func.id])
    return seen


def test_the_period_end_product_shares_no_code_with_pell():
    """verify compares _last_convergent with pell_solutions, so no project function may be reachable
    from both: the allow-list is empty."""
    tree = ast.parse(inspect.getsource(sys.modules["anthyphairesis.convergents"]))
    product = _reachable(tree, ("_last_convergent",))
    pell = _reachable(tree, ("pell_solutions", "_matrix_product"))
    assert "convergents" in product and {"_matrix_product", "_to_centre"} <= pell
    assert product.isdisjoint(pell), product & pell


def _package_references() -> dict[str, set[str]]:
    """Each function and class of the library modules, as module.name, mapped to the project names
    its body refers to: its module's own, and those imported from the package at the top or at call time."""
    refs = {}
    for short in ("bookx", "convergents", "engine", "oracle", "palindrome", "surd"):
        tree = ast.parse(inspect.getsource(sys.modules[f"anthyphairesis.{short}"]))
        defined = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names = {node.name: f"{short}.{node.name}" for node in defined}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names |= {alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names}
        for node in defined:  # a class's body holds its methods: QuadraticSurd reaches _dec through __str__
            body = (name for stmt in node.body for name in ast.walk(stmt) if isinstance(name, ast.Name))
            refs[f"{short}.{node.name}"] = {names[name.id] for name in body if name.id in names}
    return refs


def test_the_steppers_share_only_the_budget_net_the_surd_type_and_isqrt():
    """The six steppers of the three derivations, and Pell's two products, reach the project functions and
    classes of their own, except for this allow-list, which is exactly what some two of them share:
    - the budget net: engine._budget, _exhausted, _memory_steps, pigeonhole_bound, StepLimitExceeded and
      ResourceLimitExceeded;
    - surd.QuadraticSurd (the messages name the surd), with surd._dec, which its __str__ reaches;
    - surd.isqrt.
    surd.normalize, which expand_surd and oracle_expand share, lies outside the steppers."""
    allowed = {
        "engine._budget", "engine._exhausted", "engine._memory_steps", "engine.pigeonhole_bound",
        "engine.StepLimitExceeded", "engine.ResourceLimitExceeded", "surd.QuadraticSurd", "surd._dec", "surd.isqrt",
    }
    refs = _package_references()
    steppers = ("engine._anthyphairesis", "engine._to_centre", "oracle.oracle_expand", "bookx._trace_steps",
                "convergents._matrix_product", "convergents._last_convergent")
    reach = {}
    for root in steppers:
        seen, todo = {root}, [root]
        while todo:
            for name in refs.get(todo.pop(), set()) - seen:
                seen.add(name)
                todo.append(name)
        reach[root] = seen
    assert {"surd.floor_surd", "surd.normalize"} <= reach["oracle.oracle_expand"]
    assert {"bookx.inverse_wrt_beta_squared", "engine._budget"} <= reach["bookx._trace_steps"]  # a call-time import
    shared = set()
    for a, b in itertools.combinations(steppers, 2):
        assert reach[a] & reach[b] <= allowed, (a, b, reach[a] & reach[b] - allowed)
        shared |= reach[a] & reach[b]
    assert shared == allowed


LONG_PERIOD_N = (1000003, 10000019, 92590649, 150008437)


def test_pell_solutions_match_convergent_recurrence():
    # the half-period product tree, from the centre stop and from the full expansion,
    # against the full three-term recurrence
    for n in range(2, 3001):
        if is_perfect_square(n):
            continue
        e = expand_sqrt(n)
        l = len(e.period)
        index = l - 1 if l % 2 == 0 else 2 * l - 1
        full = list(convergents(e.quotient_stream(index + 1)))
        fundamental, negative = pell_solutions(e)
        assert pell_solutions(n) == (fundamental, negative), n
        assert fundamental == full[index], n
        if l % 2:
            assert negative == full[l - 1], n
        else:
            assert negative is None, n


def test_pell_solutions_rejects_foreign_or_square_expansion():
    with pytest.raises(ValueError, match=r"^preperiod is not \(isqrt\(N\),\) for sqrt\(54\)$"):
        pell_solutions(expand_surd(QuadraticSurd(7, 54, 5)))  # (7+sqrt(54))/5: radicand 54, but not sqrt(54)
    with pytest.raises(ValueError):
        pell_solutions(expand_sqrt(16))
    assert pell_solutions(13) == ((649, 180), (18, 5))


def _spy_on_centre_stop(monkeypatch) -> list[tuple[int, int]]:
    """The N of every expansion to the centre that pell_solutions makes from now on, with their half lengths."""
    calls = []

    def spy(n, *rest):
        half, odd = engine._to_centre(n, *rest)
        calls.append((n, len(half)))
        return half, odd

    monkeypatch.setattr(sys.modules["anthyphairesis.convergents"], "_to_centre", spy)
    return calls


def test_pell_against_sympy_diop_dn(monkeypatch):
    pytest.importorskip("sympy")
    from sympy.solvers.diophantine.diophantine import diop_DN

    centre_stops = _spy_on_centre_stop(monkeypatch)
    ns = [n for n in range(2, 501) if not is_perfect_square(n)] + list(LONG_PERIOD_N)
    for n in ns:
        fundamental, negative = pell_solutions(n)  # no expansion given: the centre stop runs
        assert [fundamental] == [tuple(map(int, s)) for s in diop_DN(n, 1)], n
        expected_negative = [tuple(map(int, s)) for s in diop_DN(n, -1)]
        assert ([] if negative is None else [negative]) == expected_negative, n
    assert [n for n, _ in centre_stops] == ns


def test_pell_of_a_long_period_expands_half_of_it(monkeypatch):
    n = 10**13 + 3
    e = expand_sqrt(n)
    assert len(e.period) == 171_126
    centre_stops = _spy_on_centre_stop(monkeypatch)
    assert pell_solutions(n) == pell_solutions(e)
    assert centre_stops == [(n, 171_126 // 2)]
