"""Checks on the library's source text."""
from __future__ import annotations

import ast
from pathlib import Path

import distopt

SOURCES = sorted(Path(distopt.__file__).parent.glob("*.py"))


def test_the_library_states_invariants_without_assert():
    # ``python -O`` strips assert statements, so an invariant written as
    # one would silently stop holding there
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_only_core_builds_distributions_from_checked_entries():
    # ``Distribution._from_checked`` trusts its entries; only the core
    # operations, which derive them from already-validated distributions,
    # may vouch for that
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in ("_from_checked", "_settle")
    ]
    assert found == []
