"""oracle: the deliberately naive expansion used to certify the engine."""

import inspect

from anthyphairesis import oracle as oracle_module
from anthyphairesis.oracle import oracle_expand
from anthyphairesis.surd import QuadraticSurd


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
