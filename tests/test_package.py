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
from anthyphairesis import QuadraticSurd, cli, euler_trace, expand_sqrt, expand_surd, verify_palindrome

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_package_exports_every_public_name():
    for short in ("bookx", "convergents", "engine", "oracle", "palindrome", "surd"):
        module = importlib.import_module(f"anthyphairesis.{short}")
        for name in module.__all__:
            assert name in anthyphairesis.__all__, f"{short}.{name}"
            assert getattr(anthyphairesis, name) is getattr(module, name), f"{short}.{name}"


PUBLIC_NAMES = [
    "Expansion", "PalindromeReport", "QuadraticSurd", "ReflectionNotFound",
    "ResourceLimitExceeded", "StepLimitExceeded", "TraceStep", "basis", "certify", "classify", "conjugate",
    "convergents", "euler_trace", "expand_sqrt", "expand_surd", "find_reflection", "floor_surd",
    "increment_factors", "inverse_wrt_beta_squared", "is_perfect_square", "isqrt", "line_mul",
    "logos_cross_check", "normalize", "omega_sequence", "oracle_expand", "pell_fundamental",
    "pell_negative", "pell_solutions", "period_stats", "pigeonhole_bound", "remainders",
    "render_trace", "sign_of", "verify_palindrome",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert anthyphairesis.__all__ == PUBLIC_NAMES
    assert cli.__all__ == ["main"]  # the command line exports only its entry point


def test_readme_lists_each_module_exports():
    # each module's bullet in the Library section opens with its __all__, in order
    with open(README, encoding="utf-8") as fh:
        library = fh.read().split("## Library", 1)[1].split("\n## ", 1)[0]
    listed = dict(re.findall(r"^- `(\w+)` \(([^)]*)\):", library, re.M))
    for short in ("bookx", "convergents", "engine", "oracle", "palindrome", "surd", "cli"):
        module = importlib.import_module(f"anthyphairesis.{short}")
        assert re.findall(r"`(\w+)`", listed[short]) == module.__all__, short


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
        "PalindromeReport": (verify_palindrome(e), "holds"),
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
    # value types cross process boundaries intact (sweep --jobs 2 sends record dicts)
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
