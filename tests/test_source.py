"""Checks on the library's source text."""
from __future__ import annotations

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import distopt
from distopt.optimizer import OptimizationResult

from conftest import FIVE_POINT

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


def test_only_core_names_the_exact_sums_and_only_a_greedy_build_seeds_them():
    # the exact running sums live in the core; a state carries them only
    # when a ``GreedyBuild`` seeds its start state, so the brute force, the
    # carve and the oracle build their distributions with fsum
    private = {"_sums", "_summed", "_units", "_UNIT", "_SUM_LIMIT"}
    named, seeded = [], []
    for path in SOURCES:
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        named += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _names(node) & private
        ]
        init = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GreedyBuild"
            for func in cls.body
            if isinstance(func, ast.FunctionDef) and func.name == "__init__"
            for node in ast.walk(func)
        }
        seeded += [
            (f"{path.name}:{node.lineno}", id(node) in init)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and _names(node) == {"running_sums"}
        ]
    assert named == []
    assert [inside for _, inside in seeded] == [True], seeded


def test_every_public_name_has_a_caller_in_the_library():
    # a name the package exports but none of its modules uses is API that
    # only tests call; such code belongs in ``tests/reference.py``
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exempt = {"__version__"}
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


def test_the_lower_layers_import_no_upper_one_at_run_time():
    # ``optimizer`` imports the lower layers, and ``sequence`` takes its
    # ``OptimizerConfig``; were a lower layer to import an upper one when
    # run, importing the package would go round a cycle
    lower = {"core", "participation", "valuation", "sequence", "thresholds"}
    upper = {"optimizer", "instances", "oracle", "cli"}
    found, typing_only = [], []
    for path in SOURCES:
        if path.stem not in lower:
            continue
        tree = ast.parse(path.read_text(), str(path))
        guarded = {
            id(node)
            for branch in ast.walk(tree)
            if isinstance(branch, ast.If) and _names(branch.test) == {"TYPE_CHECKING"}
            for node in ast.walk(branch)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = {part for a in node.names for part in a.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                named = set((node.module or "").split(".")) | {a.name for a in node.names}
            else:
                continue
            where = [f"{path.name}:{node.lineno} {name}" for name in sorted(named & upper)]
            (typing_only if id(node) in guarded else found).extend(where)
    assert found == []
    assert any(
        w.startswith("sequence.py:") and w.endswith(" optimizer") for w in typing_only
    ), typing_only


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


def test_json_is_written_only_through_canonical_json():
    # ``canonical_json`` writes the stdlib's bytes; its fallback is the one
    # place that calls ``json.dumps``, so no writer can bypass it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        fallback = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "canonical_json"
            for handler in ast.walk(func)
            if isinstance(handler, ast.ExceptHandler)
            for node in ast.walk(handler)
        }
        found += [
            (f"{path.name}:{node.lineno}", id(node) in fallback)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and {a.name for a in node.names} & {"dump", "dumps"}
            or isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and _names(node.value) == {"json"}
        ]
    assert [inside for _, inside in found] == [True], found


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
    # optimizer and the CLI look at
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(func, ast.FunctionDef)
        and func.name != "extension_verdict"
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "from_run"
    ]
    assert found == []


def test_the_oracle_checks_thresholds_without_the_library_formulas():
    # ``crosscheck_thresholds`` compares measured value changes against
    # threshold rules it writes out itself; naming the library's formulas,
    # classifier or context would let one algebra slip pass both sides
    library = {
        "x_l_kappa", "x_u_kappa", "x_c_kappa", "viability_limit_m_ratio",
        "classify", "threshold_report", "extension_verdict", "ExtensionContext",
    }
    oracle = Path(distopt.__file__).with_name("oracle.py")
    bodies = {
        func.name: func
        for func in ast.walk(ast.parse(oracle.read_text(), str(oracle)))
        if isinstance(func, ast.FunctionDef)
        and func.name in ("crosscheck_thresholds", "_sample_context")
    }
    assert sorted(bodies) == ["_sample_context", "crosscheck_thresholds"]
    found = {
        f"{name}:{node.lineno}": sorted(_names(node) & library)
        for name, func in bodies.items()
        for node in ast.walk(func)
        if _names(node) & library
    }
    assert found == {}


def test_importing_the_package_leaves_jsonschema_unloaded(tmp_path):
    # ``jsonschema`` is imported only to word a rejection: not with the
    # package, not by ``gen`` and not by a valid instance's run
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(FIVE_POINT))
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**FIVE_POINT, "surprise": True}))
    gen = ["gen", "--profile", "uniform", "--output", str(tmp_path / "gen.json")]
    for argv, loaded in [
        ([], False),
        (gen, False),
        (["optimize", "--input", str(valid)], False),
        (["optimize", "--input", str(invalid)], True),
    ]:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, distopt, distopt.cli\n"
                f"if {argv!r}: distopt.cli.main({argv!r})\n"
                "print('jsonschema' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(distopt.__file__).parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loaded), argv


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
