"""Every command of the ``compare_revisions.py`` corpus writes the bytes
recorded in ``recipe_digests.json``.

The corpus is that tool's: ``optimize --format csv`` and ``carveout`` on
each input of ``RECIPES``, plain-JSON ``optimize`` and ``analyze`` in both
formats on its ``SINGLES``, ``optimize --batch`` over its ``BATCH``
directory, ``gen`` on five profiles at seeds 0-3, and ``oracle-check`` at
seeds 0 and 1.  A command's digest is one sha256 over
its exit code, its stderr and every file it writes, by name.  A change
that is meant to keep output bytes must keep every digest.  A new entry,
or one that a change moves on purpose, is recorded with
``PYTHONPATH=src python3 tests/test_recipe_digests.py NAME [NAME ...]``,
which leaves every other entry as it is.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from distopt import oracle, thresholds as th

from compare_revisions import RECIPES, _searched, commands, run_command, write_inputs

DIGESTS = Path(__file__).with_name("recipe_digests.json")

#: command names and subcommands do not depend on where the inputs are written
PLAN = commands(Path("inputs"), list(RECIPES))
NAMES = list(PLAN)


def write_plan(root: Path) -> dict[str, list[str]]:
    """Write the corpus inputs under ``root``; each command's argv by name."""
    inputs = root / "inputs"
    inputs.mkdir()
    return commands(inputs, write_inputs(inputs))


def command_digest(name: str, argv: list[str], root: Path) -> str:
    """Run command ``name`` with its output directory under ``root``; the
    sha256 of its exit code, stderr and output files."""
    out = root / "out" / name
    out.mkdir(parents=True)
    code, stderr = run_command(argv, out, root)
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    text = json.dumps({"code": code, "stderr": stderr, "files": files}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, dict[str, list[str]], dict[str, str]]:
    root = tmp_path_factory.mktemp("recipes")
    return root, write_plan(root), json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_command_output_matches_its_recorded_digest(name: str, corpus, monkeypatch) -> None:
    monkeypatch.delenv("DISTOPT_LOG", raising=False)
    root, plan, recorded = corpus
    assert command_digest(name, plan[name], root) == recorded[name]


def test_the_corpus_runs_every_subcommand_and_searches_every_outcome_kind() -> None:
    subcommands = {argv[0] for argv in PLAN.values()}
    assert subcommands == {"optimize", "analyze", "carveout", "gen", "oracle-check"}
    searched = {recipe.args[0] for recipe in RECIPES.values() if recipe.func is _searched}
    assert searched == th.NASH_KINDS | {
        th.SCENARIO_II_CONSUMER_PREFERS, th.SCENARIO_III_PRODUCER_PREFERS,
        th.UNDER_SERVED, th.SATURATED_CONSUMER,
    }


#: ``crosscheck_measurements(seed)`` at the revision that recorded them
CROSSCHECK_MEASUREMENTS = {
    0: "3267ffe9c202662a1b534d6d0dc7699f703d08feba18bb11d31e6503044a4f7d",
    1: "b529d11f62ba7c4f0d72031968826ec799d8fe542751fd570dcdaf0b99b6bc38",
}


def crosscheck_measurements(seed: int) -> str:
    """The sha256 of every potential and value change that
    ``crosscheck_thresholds(200, seed)`` measures, in order, bit for bit."""
    measured: list[str] = []
    potential, delta_s = oracle.potential, oracle.delta_s

    def recorded_potential(*args):
        m = potential(*args)
        measured.append(m.hex())
        return m

    def recorded_delta_s(*args):
        delta = delta_s(*args)
        measured.append(f"{delta.delta_s.hex()} {delta.delta_v.hex()}")
        return delta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "potential", recorded_potential)
        mp.setattr(oracle, "delta_s", recorded_delta_s)
        oracle.crosscheck_thresholds(200, seed)
    return hashlib.sha256("\n".join(measured).encode()).hexdigest()


def test_the_crosscheck_measures_what_it_measured_at_each_seed() -> None:
    # the ``oracle-check`` report counts checks and lists mismatches, so
    # its bytes are the same at seeds 0 and 1 and miss a change of what
    # the cross-check measures; these digests do not
    digests = {seed: crosscheck_measurements(seed) for seed in CROSSCHECK_MEASUREMENTS}
    assert digests[0] != digests[1]
    assert digests == CROSSCHECK_MEASUREMENTS


if __name__ == "__main__":
    import os
    import tempfile

    names = sys.argv[1:]
    if not names:
        sys.exit("no command names given, so nothing was recorded; "
                 f"name entries of: {' '.join(NAMES)}")
    unknown = [name for name in names if name not in NAMES]
    if unknown:
        sys.exit(f"not command names: {' '.join(unknown)}")
    os.environ.pop("DISTOPT_LOG", None)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        plan = write_plan(Path(tmp))
        table.update((name, command_digest(name, plan[name], Path(tmp))) for name in names)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(names)} entries in {DIGESTS}", file=sys.stderr)
