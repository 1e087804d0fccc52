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
