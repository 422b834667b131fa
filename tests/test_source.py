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


def _top_level(name: str):
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8")).body


def test_the_scenario_grammar_stays_in_config():
    """network_sim runs a parsed config; only config reads its text."""
    grammar = ("parse_", "load_", "_parse_", "bundled_scenario",
               "list_bundled_scenarios")
    defined = [node.name for node in _top_level("network_sim.py")
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith(grammar)]
    assert defined == []

    def imported(name: str) -> set[str]:
        return {node.module for node in _top_level(name)
                if isinstance(node, ast.ImportFrom) and node.level == 1}

    assert "_lines" not in imported("network_sim.py")
    assert "network_sim" not in imported("config.py")
