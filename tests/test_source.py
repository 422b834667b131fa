"""Checks on the package source itself."""

import ast
from pathlib import Path

import chipchain

PACKAGE = Path(chipchain.__file__).resolve().parent


def test_the_package_holds_no_assert_statement():
    """`python -O` strips asserts, so a check in the package raises instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
