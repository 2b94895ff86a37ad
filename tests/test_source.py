"""Checks on the library's source text."""
from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
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


def _fresh_dict(node: ast.expr) -> bool:
    """A dict display, a dict comprehension or a ``dict(...)`` call."""
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


def _bound_names(target: ast.expr) -> list[str]:
    """The names an assignment to ``target`` binds (not its subscripts or
    attributes)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound_names(elt)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


def test_core_hands_the_checked_builds_only_dicts_it_has_just_made():
    # ``_from_checked`` takes ownership of the dict it is handed and keeps it
    # as the entries, and so does ``_settle``, which it hands that dict on to;
    # every other call passes a dict its own function has just made, inline
    # or through a name bound only to such dicts, never entries it shares
    tree = ast.parse((Path(distopt.__file__).parent / "core.py").read_text())
    calls, found = 0, []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "_from_checked":
            continue
        bindings: dict[str, list[bool]] = {
            arg.arg: [False] for arg in func.args.args + func.args.kwonlyargs
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.For, ast.comprehension)):
                targets, value = [node.target], None
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets, value = [node.optional_vars], None
            else:
                continue
            for target in targets:
                fresh = isinstance(target, ast.Name) and value is not None and _fresh_dict(value)
                for name in _bound_names(target):
                    bindings.setdefault(name, []).append(fresh)
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("_from_checked", "_settle")
            ):
                continue
            calls += 1
            (arg,) = node.args
            if _fresh_dict(arg):
                continue
            if isinstance(arg, ast.Name) and all(bindings.get(arg.id, [False])):
                continue
            found.append(f"core.py:{node.lineno} {ast.unparse(arg)}")
    assert calls >= 6
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
    upper = {"optimizer", "instances", "generate", "oracle", "cli"}
    # every module sits in exactly one layer, so a new one cannot slip past
    assert not lower & upper
    assert lower | upper == {path.stem for path in SOURCES} - {"__init__"}
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


def test_every_oracle_check_has_a_fault_that_trips_it():
    # each check the oracle records a mismatch under is one that
    # ``test_oracle.py`` sees fail under a fault of its own, so a new check
    # cannot land without one; and records are made by the recorder alone
    from test_oracle import FAULTS

    oracle = Path(distopt.__file__).with_name("oracle.py")
    tree = ast.parse(oracle.read_text(), str(oracle))
    recorder = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_record"
    )
    checks = {
        ast.literal_eval(node.args[1])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func) == {"_record"}
    }
    assert checks == set(FAULTS)
    inside = {id(node) for node in ast.walk(recorder)}
    appends = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "append"
        and _names(node.value) == {"mismatches"}
        and id(node) not in inside
    ]
    assert appends == []


def test_importing_the_package_leaves_jsonschema_unloaded(tmp_path):
    # importing the package loads none of its submodules, ``gen`` loads
    # the contract and the generators but not the optimizer, and
    # ``jsonschema`` is imported only to word a rejection: not with the
    # package, not by ``gen`` and not by a valid instance's run
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(FIVE_POINT))
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**FIVE_POINT, "surprise": True}))
    gen = ["gen", "--profile", "uniform", "--output", str(tmp_path / "gen.json")]
    watched = ("jsonschema", "dataclasses", "logging", "hashlib")
    loaded = {}
    for name, argv in [
        ("import", []),
        ("gen", gen),
        ("valid", ["optimize", "--input", str(valid)]),
        ("invalid", ["optimize", "--input", str(invalid)]),
    ]:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, distopt\n"
                f"if {argv!r}:\n"
                "    import distopt.cli\n"
                f"    distopt.cli.main({argv!r})\n"
                "print(sorted(m for m in sys.modules\n"
                f"    if m.startswith('distopt') or m in {watched!r}))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(distopt.__file__).parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert loaded["import"] == {"distopt"}
    assert loaded["gen"] == {
        "distopt", "distopt.cli", "distopt.instances", "distopt.generate",
    }
    assert not loaded["valid"] & {"distopt.oracle", "distopt.generate"}
    assert "distopt.optimizer" in loaded["valid"]
    assert ["jsonschema" in loaded[name] for name in loaded] == [
        False, False, False, True,
    ]


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


def test_the_per_sample_value_types_are_slotted_and_write_each_field_once():
    # the oracle builds these on every sample: without ``__slots__`` each
    # would carry a dict, and a ``__post_init__`` writes its checked fields
    # a second time after the generated ``__init__`` has written them; the
    # types that check their input do so in an ``__init__`` of their own
    from distopt.core import Point, PointIncrement
    from distopt.participation import ParticipationModel
    from distopt.valuation import ValueDelta

    for cls in (Point, PointIncrement, ParticipationModel, ValueDelta):
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls.__dict__["__slots__"] == tuple(names), cls
        assert not hasattr(cls, "__post_init__"), cls
        if cls is ValueDelta:  # no checks: the generated ``__init__``
            continue
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        written = [
            node.args[1].value
            for node in ast.walk(init)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
        ]
        assert sorted(written) == sorted(names), cls
