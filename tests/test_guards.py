"""Source rules that keep the engine's guards alive under ``python -O``."""

import ast
from pathlib import Path

import randomhorizon

SOURCES = sorted(Path(randomhorizon.__file__).parent.rglob("*.py"))


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so a guard written as one
    # silently stops guarding; the engine raises its own exceptions instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floats_in_the_exact_engine():
    # Fraction(1, 2) == 0.5 holds and format_fraction(0.5) prints "1/2", so
    # a float that leaks into an exact value passes every equality test and
    # every output pin; only ``mc`` (numpy) and ``cli`` (its options) may
    # use floats, and ``space.frac`` names the type to reject it
    exact = [p for p in SOURCES if p.name not in ("mc.py", "cli.py")]
    assert {p.name for p in exact} >= {"space.py", "projections.py", "io.py"}
    found = []
    for path in exact:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "space.py":
            frac = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "frac"
            )
            allowed = {id(n) for n in ast.walk(frac)}
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            name = isinstance(node, ast.Name) and node.id == "float"
            if (literal or name) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
