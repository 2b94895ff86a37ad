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

Every ``optimize`` and ``analyze`` report the corpus writes is also read
by ``audit.audit``, whose rules check that the report's parts agree; a
report that breaks one for a known reason is listed in
``AUDIT_EXCEPTIONS``.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from distopt import cli, oracle, thresholds as th

from audit import audit
from compare_revisions import RECIPES, _searched, commands, run_command, write_inputs
from conftest import FIVE_POINT

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


#: command name -> report file -> what ``audit`` finds there, for the
#: reports that break a rule for a known reason
AUDIT_EXCEPTIONS = {
    # a run that exhausts its step budget before any probe reports a
    # StayAtDStar_Thm2 verdict that is not Nash (CHANGES.md:54)
    name: {"r.json": ["nash_follows_from_kind: verdict: StayAtDStar_Thm2 with is_nash False"]}
    for name in ("optimize/step-budget-12", "optimize-json/step-budget-12")
}


def audit_reports(out: Path) -> dict[str, list[str]]:
    """What ``audit`` finds in each ``optimize`` or ``analyze`` report
    under ``out``, by file name, for the reports where it finds anything."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.name in ("r.json", "a.json") or path.name.endswith(".report.json"):
            if broken := audit(json.loads(path.read_text())):
                found[path.name] = broken
    return found


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[Path, dict[str, list[str]], dict[str, str]]:
    root = tmp_path_factory.mktemp("recipes")
    return root, write_plan(root), json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_command_output_matches_its_recorded_digest(name: str, corpus, monkeypatch) -> None:
    monkeypatch.delenv("DISTOPT_LOG", raising=False)
    root, plan, recorded = corpus
    assert command_digest(name, plan[name], root) == recorded[name]
    assert audit_reports(root / "out" / name) == AUDIT_EXCEPTIONS.get(name, {})


def test_the_corpus_runs_every_subcommand_and_searches_every_outcome_kind() -> None:
    subcommands = {argv[0] for argv in PLAN.values()}
    assert subcommands == {"optimize", "analyze", "carveout", "gen", "oracle-check"}
    searched = {recipe.args[0] for recipe in RECIPES.values() if recipe.func is _searched}
    assert searched == th.NASH_KINDS | {
        th.SCENARIO_II_CONSUMER_PREFERS, th.SCENARIO_III_PRODUCER_PREFERS,
        th.UNDER_SERVED, th.SATURATED_CONSUMER,
    }


def test_the_auditor_flags_a_report_whose_parts_disagree(tmp_path) -> None:
    source, out = tmp_path / "five.json", tmp_path / "r.json"
    source.write_text(json.dumps(FIVE_POINT))
    assert cli.main(["optimize", "--input", str(source), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["kind"] == th.STAY_AT_D_STAR_THM2
    assert audit(report) == []

    # its thresholds decide a stay, at kappa_r2 = -0.5
    edited = json.loads(out.read_text())
    edited["verdict"]["kind"] = th.SCENARIO_I_BOTH_PREFER
    assert audit(edited) == [
        "verdict_follows_from_thresholds: verdict Scenario_i_BothPreferDPrime, "
        "but its thresholds decide StayAtDStar_Thm2"
    ]
    # a threshold moved under its kind, read back from its printed repr
    edited = json.loads(out.read_text())
    edited["thresholds"].update(kappa_r2=0.5, x_l_kappa="inf", x_c_kappa="-inf")
    assert audit(edited) == [
        "verdict_follows_from_thresholds: verdict StayAtDStar_Thm2, "
        "but its thresholds decide Scenario_ii_ConsumerPrefers",
        "verdict_follows_from_thresholds: x_l_kappa is not the adaptive threshold",
    ]
    # a Nash flag, and a recommended carve nothing came of
    edited = json.loads(out.read_text())
    edited["verdict"].update(is_nash=False, carveout_recommended=True)
    assert audit(edited) == [
        "nash_follows_from_kind: verdict: StayAtDStar_Thm2 with is_nash False",
        "nash_follows_from_kind: verdict: is_pareto differs from is_nash",
        "recommended_carve_is_tried: StayAtDStar_Thm2 recommends a carve, "
        "but none was made or refused",
    ]


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
