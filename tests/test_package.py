"""The package surface: its exports, its value types, its start-up imports and the README's library example."""

import ast
import importlib
import io
import os
import pickle
import re
import subprocess
import sys
import tokenize

import pytest

import anthyphairesis
from anthyphairesis import QuadraticSurd, euler_trace, expand_sqrt, expand_surd, period_stats, verify_palindrome

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_package_exports_every_public_name():
    for short in ("bookx", "convergents", "engine", "oracle", "palindrome", "surd"):
        module = importlib.import_module(f"anthyphairesis.{short}")
        for name in module.__all__:
            assert name in anthyphairesis.__all__, f"{short}.{name}"
            assert getattr(anthyphairesis, name) is getattr(module, name), f"{short}.{name}"


def test_readme_library_example():
    # each statement runs in order; an expression whose whole comment is a
    # Python literal must also equal that literal
    with open(README, encoding="utf-8") as fh:
        (source,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        try:
            expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(code, namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"a literal comment on a statement that has no value: {code}"
        assert eval(code, namespace) == expected, code
        checked += 1
    assert checked >= 5


def _values():
    e = expand_sqrt(19)
    return {
        "QuadraticSurd": (QuadraticSurd(1, 5, 2), "p"),
        "Expansion": (e, "period"),
        "PalindromeReport": (verify_palindrome(e, 4), "holds"),
        "PeriodStats": (period_stats(e), "period_length"),
        "TraceStep": (euler_trace(19)[0], "quotient"),
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_value_types_are_immutable_named_tuples(name):
    value, field = _values()[name]
    assert type(value).__name__ == name
    assert value == tuple(value)  # equal to the plain tuple of its fields
    fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in value._fields)
    assert repr(value) == f"{name}({fields})"  # the repr a dataclass of these fields has
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0  # no instance dict: __slots__ = ()


def test_quadratic_surd_repr_and_validation():
    assert repr(QuadraticSurd(1, 5, 2)) == "QuadraticSurd(p=1, d=5, q=2)"
    assert str(QuadraticSurd(1, 5, 2)) == "(1+sqrt(5))/2"
    with pytest.raises(ValueError, match="radicand must be non-negative"):
        QuadraticSurd(0, -1, 1)
    with pytest.raises(ValueError, match="denominator must be non-zero"):
        QuadraticSurd(1, 5, 0)
    with pytest.raises(ValueError, match="denominator must be non-zero"):
        QuadraticSurd(1, 5, 2)._replace(q=0)
    assert QuadraticSurd(1, 5, 2)._replace(d=7) == QuadraticSurd(1, 7, 2)


def test_values_survive_a_pickle_round_trip():
    # sweep --jobs 2 sends expansions between processes
    for value in (QuadraticSurd(7, 54, 5), expand_sqrt(46), expand_surd(QuadraticSurd(7, 54, 5)), expand_sqrt(49)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)


def test_importing_the_cli_loads_no_heavy_module():
    # against a bare interpreter, since the site module may import some of these itself
    listing = "import sys; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)

    def modules(code):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True)
        return set(done.stdout.split())

    added = modules("import anthyphairesis.cli; " + listing) - modules(listing)
    assert "anthyphairesis.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "multiprocessing", "typing"}
