"""Report bytes on a fixed corpus match the digests recorded in
``golden_digests.json`` and ``golden_command_digests.json``.

The corpus covers plain ``uniform`` and ``monotone`` pools, the
table-transform, table-curve, saturating and ``unit_chunks`` variants (one
with chunks small enough that the trace sweep's step limit binds), an
explicit two-point seed, a pool whose trace runs one step past D*, the
lookahead-promoted ``LOOKAHEAD`` instance, and searched ``scenario:``
instances with and without carveouts.  Every
``optimize`` output (the JSON report, and the report and both curve files
of ``--format csv``) is hashed into the first file; the ``analyze``
outputs (JSON, and the thresholds file of ``--format csv``) for the first
pool point outside D*, and the ``carveout`` report, into the second.  A
change that is meant to keep report bytes must keep every digest.  A new
entry, or one that a change moves on purpose, is recorded in both files with
``PYTHONPATH=src python3 tests/test_golden.py NAME [NAME ...]``, which
leaves every other entry as it is.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from distopt.cli import canonical_json, main
from distopt.oracle import find_scenario_instance, generate_instance

from compare_revisions import saturating, table_participation, table_transform, unit_chunks
from conftest import LOOKAHEAD

DIGESTS = Path(__file__).with_name("golden_digests.json")
COMMAND_DIGESTS = Path(__file__).with_name("golden_command_digests.json")


def _fine_chunks(inst: dict) -> None:
    """Chunks so small that the sweep stops at its 10-steps-per-point limit."""
    inst["optimizer"] = {"increment_policy": {"kind": "unit_chunks", "chunk": 0.05}}


def _explicit_seed(inst: dict) -> None:
    """Seed the build with the last two pool points, as one two-point block."""
    inst["optimizer"] = {"seed_policy": {"ids": [pt["id"] for pt in inst["points"][-2:]]}}


#: name -> (profile, seed, size, variant)
POOLS = {
    "uniform-40": ("uniform", 11, 40, None),
    "uniform-60": ("uniform", 12, 60, None),
    "monotone-30": ("monotone", 13, 30, None),
    "monotone-50": ("monotone", 14, 50, None),
    "table-transform-40": ("uniform", 15, 40, table_transform),
    "table-curve-50": ("uniform", 16, 50, table_participation),
    "saturating-45": ("uniform", 17, 45, saturating),
    "unit-chunks-40": ("uniform", 18, 40, unit_chunks),
    "monotone-unit-chunks-35": ("monotone", 19, 35, unit_chunks),
    "fine-chunks-12": ("uniform", 20, 12, _fine_chunks),
    "explicit-seed-30": ("uniform", 20, 30, _explicit_seed),
    # the declining-tail walk records one step past D*: 5 of 6 steps build it
    "monotone-past-d-star-7": ("monotone", 2, 7, None),
}

#: name -> a fixed instance
FIXED = {
    # a lookahead step promotes the probe block to a D²* climb
    "lookahead": LOOKAHEAD,
}

#: name -> (verdict kind searched for, search seed, carveout required)
SCENARIOS = {
    "scenario-stay": ("StayAtDStar_Thm2", 3, False),
    "scenario-d2": ("ContinueToD2Star_Thm4", 3, False),
    "scenario-i": ("Scenario_i_BothPreferDPrime", 3, False),
    "scenario-ii-carve": ("Scenario_ii_ConsumerPrefers", 4, True),
    "scenario-iii-carve": ("Scenario_iii_ProducerPrefers", 5, True),
    "scenario-underserved": ("UnderServed", 3, False),
    "scenario-ii": ("Scenario_ii_ConsumerPrefers", 3, False),
    # the only searched template with ``unit_chunks``
    "scenario-iii": ("Scenario_iii_ProducerPrefers", 3, False),
    "scenario-iv": ("Scenario_iv_StayAtDStar", 3, False),
    "scenario-saturated": ("SaturatedConsumer", 3, False),
}


def corpus_instance(name: str) -> dict:
    if name in POOLS:
        profile, seed, size, variant = POOLS[name]
        inst = generate_instance(profile, seed, size)
        if variant is not None:
            variant(inst)
        return inst
    if name in FIXED:
        return json.loads(json.dumps(FIXED[name]))
    kind, seed, carve = SCENARIOS[name]
    found = find_scenario_instance(kind, budget=300, rng_seed=seed, require_carveout=carve)
    assert found is not None, f"no {kind} instance found for {name}"
    return found.instance


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def output_digests(name: str, work: Path) -> dict:
    """sha256 of every file ``optimize`` writes for one corpus instance."""
    text = canonical_json(corpus_instance(name))
    work.mkdir(parents=True, exist_ok=True)
    src = work / "instance.json"
    src.write_text(text)
    json_rc = main(["optimize", "--input", str(src), "--output", str(work / "json.report.json")])
    csv_rc = main(
        [
            "optimize",
            "--input",
            str(src),
            "--output",
            str(work / "csv.json"),
            "--format",
            "csv",
        ]
    )
    return {
        "instance": hashlib.sha256(text.encode()).hexdigest(),
        "exit": [json_rc, csv_rc],
        "json": _sha(work / "json.report.json"),
        "csv.report": _sha(work / "csv.json"),
        "csv.trace": _sha(work / "csv.trace.csv"),
        "csv.thresholds": _sha(work / "csv.thresholds.csv"),
    }


def command_digests(name: str, work: Path) -> dict:
    """sha256 of every file ``analyze`` and ``carveout`` write for one
    corpus instance; the analyzed candidate is the first pool point that
    the ``optimize`` report leaves outside D*."""
    inst = corpus_instance(name)
    work.mkdir(parents=True, exist_ok=True)
    src = work / "instance.json"
    src.write_text(canonical_json(inst))
    main(["optimize", "--input", str(src), "--output", str(work / "opt.json")])
    in_d_star = {pt["id"] for pt in json.loads((work / "opt.json").read_text())["d_star"]["points"]}
    outside = [str(pt["id"]) for pt in inst["points"] if str(pt["id"]) not in in_d_star]
    got: dict = {"candidate": outside[0] if outside else None}
    if outside:
        analyze = ["analyze", "--input", str(src), "--candidate", outside[0], "--output"]
        got["analyze.exit"] = [
            main(analyze + [str(work / "ana.report.json")]),
            main(analyze + [str(work / "ana-csv.json"), "--format", "csv"]),
        ]
        got["analyze.json"] = _sha(work / "ana.report.json")
        got["analyze.csv.report"] = _sha(work / "ana-csv.json")
        got["analyze.csv.thresholds"] = _sha(work / "ana-csv.thresholds.csv")
    got["carveout.exit"] = main(["carveout", "--input", str(src), "--output", str(work / "carve.json")])
    got["carveout.json"] = _sha(work / "carve.json")
    return got


NAMES = list(POOLS) + list(FIXED) + list(SCENARIOS)


@pytest.mark.parametrize("name", NAMES)
def test_optimize_outputs_match_recorded_digests(name: str, tmp_path: Path) -> None:
    recorded = json.loads(DIGESTS.read_text())[name]
    got = output_digests(name, tmp_path)
    assert got["instance"] == recorded["instance"], "the corpus instance itself changed"
    assert got == recorded


@pytest.mark.parametrize("name", NAMES)
def test_analyze_and_carveout_outputs_match_recorded_digests(name: str, tmp_path: Path) -> None:
    assert command_digests(name, tmp_path) == json.loads(COMMAND_DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:]
    if not names:
        sys.exit("no corpus names given, so nothing was recorded; "
                 f"name entries of: {' '.join(NAMES)}")
    unknown = [name for name in names if name not in NAMES]
    if unknown:
        sys.exit(f"not corpus names: {' '.join(unknown)}")
    for path, digests in ((DIGESTS, output_digests), (COMMAND_DIGESTS, command_digests)):
        table = json.loads(path.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            table.update((name, digests(name, Path(tmp) / name)) for name in names)
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"recorded {', '.join(names)} in {path}", file=sys.stderr)
