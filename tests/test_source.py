"""Checks on the library's source text."""
from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import distopt
from distopt.optimizer import OptimizationResult

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


def _names(node: ast.AST) -> set[str]:
    """The top-level module, alias, variable or attribute names ``node``
    mentions."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]} | {a.name for a in node.names}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_only_instances_knows_the_schema():
    # the instance contract lives in one module: the others neither import
    # ``jsonschema`` nor name the schema
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "instances.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _names(node) & {"jsonschema", "INSTANCE_SCHEMA"}
    ]
    assert found == []


def test_the_cli_imports_no_private_name():
    # the CLI goes through the library's public entry points, so it reads
    # what ``optimize`` decided instead of running a step of it again
    cli = Path(distopt.__file__).with_name("cli.py")
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(cli.read_text(), str(cli)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_one_library_path_measures_a_crossing_candidate():
    # ``extension_verdict`` measures and classifies every candidate the
    # optimizer and the CLI look at; ``synthesize`` builds contexts from
    # bare ratios
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(func, ast.FunctionDef)
        and func.name not in ("extension_verdict", "synthesize")
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "from_run"
    ]
    assert found == []


def test_importing_the_package_leaves_jsonschema_unloaded():
    # ``jsonschema`` is imported on the first instance check, not with the
    # package
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, distopt, distopt.cli; print('jsonschema' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(distopt.__file__).parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_optimize_alone_builds_a_result():
    # a run ends one way: its stages return verdicts, and ``optimize``
    # builds the one result from the run; nothing rebuilds or amends one
    result_fields = {f.name for f in dataclasses.fields(OptimizationResult)}
    built, amended = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        inside = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "optimize"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            where = f"{path.name}:{node.lineno}"
            if _names(node.func) == {"OptimizationResult"}:
                built.append((where, id(node) in inside))
            if _names(node.func) == {"replace"} and result_fields & {
                k.arg for k in node.keywords
            }:
                amended.append(where)
    assert [inside for _, inside in built] == [True], built
    assert amended == []


def test_no_greedy_loop_rebuilds_its_remaining_pool():
    # a build constructs its ``GreedyBuild`` once and keeps its offers
    # current with ``add``; one constructed inside a loop body would walk
    # the pool again every step, and a probe and its lookahead go on with a
    # copy of the run's
    calls, in_loops, in_probe = [], [], []
    for path in SOURCES:
        if path.name not in ("sequence.py", "optimizer.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        looped = {
            id(node)
            for loop in ast.walk(tree)
            if isinstance(loop, (ast.For, ast.While))
            for stmt in loop.body + loop.orelse
            for node in ast.walk(stmt)
        }
        probe = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and func.name in ("best_next_in_sequence", "_lookahead_block")
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func) == {"GreedyBuild"}:
                calls.append(f"{path.name}:{node.lineno}")
                if id(node) in looped:
                    in_loops.append(calls[-1])
                if id(node) in probe:
                    in_probe.append(calls[-1])
    assert len(calls) >= 3, calls  # the run, its restart, a sweep
    assert in_loops == []
    assert in_probe == []
