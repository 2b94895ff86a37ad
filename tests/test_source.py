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


def test_every_public_name_has_a_caller_in_the_library():
    # a name the package exports but none of its modules uses is API that
    # only tests call; the reference brute force is kept for them on purpose
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exempt = {"__version__", "brute_force_w_max"}
    assert sorted(set(distopt.__all__) - used - exempt) == []
