"""The package surface: its exports and the README's library example."""

import ast
import importlib
import io
import os
import re
import tokenize

import anthyphairesis

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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
