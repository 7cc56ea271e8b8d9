"""oracle: the deliberately naive expansion used to certify the engine."""

import inspect
import random

from anthyphairesis import oracle as oracle_module
from anthyphairesis.engine import expand_surd
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.surd import QuadraticSurd, is_perfect_square, normalize

F59, F60 = 956722026041, 1548008755920  # consecutive Fibonacci numbers: 58 quotients, the most below their size


def test_oracle_sqrt19_two_periods():
    got = oracle_expand(QuadraticSurd.sqrt_of(19), 12)
    assert got == [4, 2, 1, 3, 1, 2, 8, 2, 1, 3, 1, 2]


def test_oracle_rational_terminates():
    assert oracle_expand(QuadraticSurd(3, 0, 2), 10) == [1, 2]
    assert oracle_expand(QuadraticSurd(0, 49, 7), 5) == [1]


def test_oracle_sqrt54_first_steps():
    assert oracle_expand(QuadraticSurd.sqrt_of(54), 6) == [7, 2, 1, 6, 1, 2]


def test_oracle_emits_exactly_requested_steps():
    assert len(oracle_expand(QuadraticSurd.sqrt_of(2), 40)) == 40


def _engine_quotients(s: QuadraticSurd, k: int) -> list[int]:
    e = expand_surd(s)
    return list(e.preperiod[:k]) if e.terminated else e.quotient_stream(k)


def test_oracle_agrees_with_the_engine_rational_or_not():
    # seeded surds with q of both signs, many not normalized, about one in
    # ten with a square radicand (a rational, decided once, then plain Euclid)
    rng = random.Random(0x0AC1E)
    surds = [QuadraticSurd(F60, 0, F59), QuadraticSurd(-F60, 0, F59), QuadraticSurd(F59, 25, -F60)]
    while len(surds) < 300:
        q = rng.randint(1, 400) * rng.choice((1, -1))
        d = rng.randint(0, 150) ** 2 if rng.random() < 0.1 else rng.randint(2, 20000)
        surds.append(QuadraticSurd(rng.randint(-1000, 1000), d, q))
    assert sum(is_perfect_square(s.d) for s in surds) >= 20
    assert sum(s.q < 0 for s in surds) >= 100 and sum(normalize(s) != s for s in surds) >= 100
    for s in surds:
        for k in (1, 2, 3, 12, 40, 200, rng.randint(4, 199)):
            assert oracle_expand(s, k) == _engine_quotients(s, k), (s, k)


def test_oracle_reads_every_count_of_fibonacci_ratios():
    # F60/F59 = [1; 1, ..., 1, 2]: every count up to 200, past its end
    for s in (QuadraticSurd(F60, 0, F59), QuadraticSurd(F59, 0, F60), QuadraticSurd(0, F60 * F60, -F59)):
        for k in range(1, 201):
            assert oracle_expand(s, k) == _engine_quotients(s, k), (s, k)
    assert oracle_expand(QuadraticSurd(F60, 0, F59), 200) == [1] * 57 + [2]


def test_oracle_shares_no_engine_code():
    # the whole point of the oracle is independence from the engine
    import ast

    tree = ast.parse(inspect.getsource(oracle_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("engine" in mod or "bookx" in mod for mod in imported)
