"""The package surface: its exports, its value types, its start-up imports and the README's library example."""

import ast
import importlib
import inspect
import io
import os
import pickle
import re
import subprocess
import sys
import tokenize
import typing

import pytest

import anthyphairesis
from anthyphairesis import QuadraticSurd, cli, euler_trace, expand_sqrt, expand_surd, verify_palindrome

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


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
    "normalize", "omega_sequence", "oracle_expand", "pell_fundamental", "pell_negative",
    "pell_solutions", "period_stats", "pigeonhole_bound", "render_trace", "sign_of", "verify_palindrome",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 33
    assert anthyphairesis.__all__ == PUBLIC_NAMES
    assert cli.__all__ == ["main"]  # the command line exports only its entry point


def _bench_assignments(filename, *names):
    """The literal keys or items of the named module-level assignments in bench/<filename>, read without importing it."""
    with open(os.path.join(BENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names:
            value = node.value
            items = value.keys if isinstance(value, ast.Dict) else value.elts
            found[node.targets[0].id] = [ast.literal_eval(item) for item in items]
    assert sorted(found) == sorted(names), filename
    return found


def _bench_layers():
    """bench's traced modules, and every module.name its layer lists and units name."""
    tracing = _bench_assignments("tracing.py", "MODULES", "UNITS")
    layers = _bench_assignments("run.py", "LAYER_TIMES", "LAYER_CALLS")
    return tracing["MODULES"], layers["LAYER_TIMES"] + layers["LAYER_CALLS"] + tracing["UNITS"]


def _untraced(modules, names):
    """The names that are not a function defined in a traced module and listed in its __all__."""
    missing = []
    for qualified in names:
        short, name = qualified.split(".")
        module = importlib.import_module(f"anthyphairesis.{short}")
        fn = getattr(module, name, None)
        if not (
            short in modules
            and name in module.__all__
            and inspect.isfunction(fn)
            and fn.__module__ == module.__name__
        ):
            missing.append(qualified)
    return missing


def test_bench_layers_are_traced_functions():
    # the tracer wraps only the functions of MODULES named in each module's __all__,
    # and bench/run.py reads tracer.stats[name] for each layer: any other name is a KeyError
    modules, names = _bench_layers()
    assert "bookx.line_mul" in names and "surd.isqrt" in names
    assert _untraced(modules, names) == []


def test_bench_layer_check_names_an_unexported_layer(monkeypatch):
    from anthyphairesis import bookx

    modules, names = _bench_layers()
    monkeypatch.setattr(bookx, "__all__", [name for name in bookx.__all__ if name != "line_mul"])
    assert set(_untraced(modules, names)) == {"bookx.line_mul"}
    assert _untraced([m for m in modules if m != "surd"], ["surd.isqrt", "bookx.euler_trace"]) == ["surd.isqrt"]
    assert _untraced(modules, ["engine.Expansion", "bookx.BETA_SQUARED"]) == ["engine.Expansion", "bookx.BETA_SQUARED"]


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


def _defined_here():
    """Every function and class each module of the package defines, with the methods, properties and wrapped functions of its classes."""
    for short in sorted(f[:-3] for f in os.listdir(os.path.join(SRC, "anthyphairesis")) if f.endswith(".py")):
        module = importlib.import_module("anthyphairesis" if short == "__init__" else f"anthyphairesis.{short}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{short}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", member
            elif inspect.isfunction(inspect.unwrap(obj)):
                yield f"{short}.{name}", obj


def test_every_annotation_resolves():
    names = []
    for name, obj in _defined_here():
        typing.get_type_hints(obj)  # a NameError names an annotation that does not resolve
        names.append(name)
    assert {"bookx.basis", "engine.Expansion.mus", "cli._parsers", "surd._memory_steps"} <= set(names)
