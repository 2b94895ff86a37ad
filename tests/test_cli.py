from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distopt import cli, instances, oracle
from distopt.oracle import find_scenario_instance, generate_instance
from distopt.thresholds import (
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    threshold_report,
    x_l_kappa,
)

from conftest import FIVE_POINT, LADDER, SECOND_CROSSING, SUBNORMAL_SCALE, make_instance
from reference import synthesize


def write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_optimize_writes_a_report(tmp_path, capsys):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    out = tmp_path / "five.report.json"
    assert cli.main(["optimize", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == FIVE_POINT["schema_version"]
    assert report["instance"]["fingerprint"] == cli.fingerprint(FIVE_POINT)
    assert [p["id"] for p in report["d_star"]["points"]] == ["c2", "c3", "c4", "c5"]
    assert report["n_star"] == 4.0
    assert report["verdict"]["kind"] == "StayAtDStar_Thm2"
    assert report["thresholds"]["kappa_r2"] == pytest.approx(-0.5)


def test_optimize_to_stdout(tmp_path, capsys):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    assert cli.main(["optimize", "--input", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_star"] == 4.0


def test_csv_format_needs_an_output_path(tmp_path, capsys):
    # the usage error comes before the instance is read, so nothing is
    # written to stdout first
    inp = write(tmp_path, "five.json", FIVE_POINT)
    for command in (["optimize"], ["analyze", "--candidate", "c1"]):
        assert cli.main([*command, "--input", inp, "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert captured.err == "error: --format csv requires --output\n"


def test_carveout_has_no_format_option(tmp_path, capsys):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    with pytest.raises(SystemExit) as exc:
        cli.main(["carveout", "--input", inp, "--format", "csv",
                  "--output", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_the_parser_is_built_once_and_reused_past_a_usage_error(tmp_path, capsys):
    # ``set_defaults(func=...)`` binds the ``cmd_*`` functions into the
    # cached parser once per process, so patching one of them afterwards
    # would not reach ``main``; no test does
    assert cli.build_parser() is cli.build_parser()
    inp = write(tmp_path, "five.json", FIVE_POINT)
    argv = ["optimize", "--input", inp]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--input", inp])  # no --candidate
    assert exc.value.code == 2
    assert "--candidate" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_csv_curves_are_written(tmp_path):
    inp = write(tmp_path, "ladder.json", LADDER)
    out = tmp_path / "ladder.report.json"
    assert cli.main(["optimize", "--input", inp, "--output", str(out), "--format", "csv"]) == 0
    trace = (tmp_path / "ladder.report.trace.csv").read_text().splitlines()
    assert trace[0] == "j,id,weight,n,q,m,w,is_d_star"
    assert len(trace) == 13  # header + every pool point
    thresh = (tmp_path / "ladder.report.thresholds.csv").read_text().splitlines()
    assert thresh[0].startswith("n_r2,x_l_kappa,x_u_kappa,x_u_kappa_alt")
    assert len(thresh) == 51


def _landscape(**ratios) -> list[dict[str, str]]:
    """The thresholds CSV rows of the reference context with ``ratios``
    replaced, at N* = Q* = 1."""
    ctx = dataclasses.replace(synthesize(0.2, 0.5, 0.5, 2.0), **ratios)
    text = cli.threshold_csv(ctx, 1.0, 1.0, ctx.model)
    return list(csv.DictReader(io.StringIO(text)))


def test_a_mode_other_than_adaptive_reads_the_reactive_producer_threshold():
    # ``from_run`` does not check the consumer mode, so the report and the
    # CSV must share classify's rule: any mode but adaptive is reactive
    ctx = synthesize(0.2, 0.5, 0.5, 2.0, consumer_mode="bogus")
    report = threshold_report(ctx)
    assert report["x_l_kappa"] == report["x_l_kappa_reactive"] == 0.25
    rows = list(csv.DictReader(io.StringIO(cli.threshold_csv(ctx, 1.0, 1.0, ctx.model))))
    assert len(rows) == 50
    for row in rows:
        _, reactive = x_l_kappa(float(row["n_r2"]), ctx.tp2_ratio)
        assert row["x_l_kappa"] == repr(reactive)
    assert rows[24]["n_r2"] == "0.5" and rows[24]["x_l_kappa"] == "0.25"


def test_the_thresholds_csv_reads_a_vanishing_ordering_denominator_as_inf():
    # at n_r2 = 0.02, 1 - n_r1 + tp2 * n_r2 = 1 - 0.5 - 25 * 0.02 = 0
    rows = _landscape(n_r1=0.5, tp2_ratio=-25.0)
    assert (rows[0]["x_u_kappa"], rows[0]["x_u_kappa_alt"]) == ("inf", "inf")
    assert all(math.isfinite(float(row["x_u_kappa"])) for row in rows[1:])


def test_the_thresholds_csv_measures_from_d_star_when_the_last_step_is_all_of_it():
    # with n_r1 = 1 the earlier base holds no volume, so its slope column
    # repeats the crossing's
    rows = _landscape(n_r1=1.0)
    assert all(row["kappa_ar2"] == row["kappa_r2"] for row in rows)


def test_a_run_without_a_witness_removes_an_earlier_thresholds_csv(tmp_path):
    # both runs write next to one output path; the second instance is
    # under-served, so its verdict has no witness and no thresholds file
    out = str(tmp_path / "r.json")
    thresholds = tmp_path / "r.thresholds.csv"
    five = write(tmp_path, "five.json", FIVE_POINT)
    assert cli.main(["optimize", "--input", five, "--output", out, "--format", "csv"]) == 0
    assert thresholds.exists()
    under = write(tmp_path, "under.json", generate_instance("underserved", 1))
    assert cli.main(["optimize", "--input", under, "--output", out, "--format", "csv"]) == 2
    assert json.loads((tmp_path / "r.json").read_text())["thresholds"] is None
    assert (tmp_path / "r.trace.csv").exists()
    assert not thresholds.exists()


def test_analyze_without_a_witness_removes_an_earlier_thresholds_csv(tmp_path):
    out = str(tmp_path / "a.json")
    thresholds = tmp_path / "a.thresholds.csv"
    five = write(tmp_path, "five.json", FIVE_POINT)
    analyze = ["analyze", "--output", out, "--format", "csv", "--input"]
    assert cli.main([*analyze, five, "--candidate", "c1"]) == 0
    assert thresholds.exists()
    # every point worthless to the producer: the crossing context is
    # degenerate, so the verdict has no witness
    worthless = json.loads(json.dumps(FIVE_POINT))
    for point in worthless["points"]:
        point["p"] = -1.0
    assert cli.main([*analyze, write(tmp_path, "worthless.json", worthless),
                     "--candidate", "c2"]) == 0
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["thresholds"] is None
    assert report["verdict"]["kind"] == "StayAtDStar_Thm2"
    assert report["verdict"]["indeterminate"]
    assert report["verdict"]["notes"][0].startswith("crossing context degenerate")
    assert not thresholds.exists()


def test_schema_violations_exit_one(tmp_path, capsys):
    bad = dict(FIVE_POINT)
    bad.pop("participation")
    inp = write(tmp_path, "bad.json", bad)
    assert cli.main(["optimize", "--input", inp]) == 1

    dup = make_instance([("a", 1.0, 1.0, 1.0)])
    dup["points"].append(dict(dup["points"][0]))
    inp2 = write(tmp_path, "dup.json", dup)
    assert cli.main(["optimize", "--input", inp2]) == 1

    (tmp_path / "noise.json").write_text("{not json")
    assert cli.main(["optimize", "--input", str(tmp_path / "noise.json")]) == 1
    capsys.readouterr()


def test_duplicate_point_ids_end_as_one_error_line(tmp_path, capsys):
    dup = make_instance([("a", 1.0, 1.0, 1.0), ("b", 2.0, 1.0, 1.0)])
    dup["points"][1]["id"] = "a"
    inp = write(tmp_path, "dup.json", dup)
    assert cli.main(["optimize", "--input", inp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inp} has duplicate point ids\n"
    with pytest.raises(instances.InstanceError, match="^instance has duplicate point ids$"):
        instances.build_objects(dup)


def test_a_pool_of_negligible_weights_ends_as_an_error_line(tmp_path, capsys):
    light = make_instance([("a", 1.0, 1.0, 1e-10), ("b", 2.0, 1.0, 1e-9)])
    inp = write(tmp_path, "light.json", light)
    assert cli.main(["optimize", "--input", inp]) == 1
    assert capsys.readouterr().err == (
        f"error: {inp} is not a valid instance: every point weight is at most 1e-09, "
        "so the pool is empty\n"
    )


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read {inp}: [Errno 2] No such file or directory: '{inp}'"),
        (b"{not json", "{inp} is not valid JSON: Expecting property name enclosed "
                       "in double quotes: line 1 column 2 (char 1)"),
        (b'{"points": NaN}', "{inp} is not valid JSON: NaN is not a JSON number"),
        (b'{"points": -Infinity}', "{inp} is not valid JSON: -Infinity is not a JSON number"),
        (b"\xff{}", "{inp} is not valid JSON: 'utf-8' codec can't decode byte 0xff "
                    "in position 0: invalid start byte"),
    ],
    ids=["missing", "not-json", "nan", "infinity", "not-utf8"],
)
def test_unreadable_instances_end_as_an_error_line(tmp_path, content, message):
    inp = str(tmp_path / "bad.json")
    if content is not None:
        (tmp_path / "bad.json").write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {message.format(inp=inp)}\n"
    assert proc.stdout == ""


def test_unknown_schema_keys_are_rejected(tmp_path, capsys):
    inst = make_instance([("a", 1.0, 1.0, 1.0)])
    inst["surprise"] = True
    inp = write(tmp_path, "extra.json", inst)
    assert cli.main(["optimize", "--input", inp]) == 1
    capsys.readouterr()


def test_degenerate_instances_exit_two_but_still_report(tmp_path):
    inp = write(tmp_path, "u.json", make_instance([("u", 10.0, 1.0, 1.0)]))
    out = tmp_path / "u.report.json"
    assert cli.main(["optimize", "--input", inp, "--output", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"]["kind"] == "UnderServed"


def test_batch_mode_reports_every_file(tmp_path):
    write(tmp_path, "one.json", FIVE_POINT)
    write(tmp_path, "two.json", make_instance([("u", 10.0, 1.0, 1.0)]))
    (tmp_path / "stale.report.json").write_text("{}")
    code = cli.main(["optimize", "--batch", str(tmp_path)])
    assert code == 2  # worst exit among the batch
    assert (tmp_path / "one.report.json").exists()
    assert (tmp_path / "two.report.json").exists()
    # pre-existing report files are not treated as instances
    assert not (tmp_path / "stale.report.report.json").exists()


def test_batch_mode_carries_on_past_an_invalid_file(tmp_path, capsys):
    write(tmp_path, "a.json", {**FIVE_POINT, "optimizer": {"seed_policy": {"ids": ["c5", "c5"]}}})
    write(tmp_path, "b.json", FIVE_POINT)
    assert cli.main(["optimize", "--batch", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "a.json" in err[0]
    assert not (tmp_path / "a.report.json").exists()
    assert json.loads((tmp_path / "b.report.json").read_text())["n_star"] == 4.0


def test_optimize_needs_an_input_or_a_batch(capsys):
    assert cli.main(["optimize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: optimize needs --input or --batch\n"


def test_batch_mode_needs_a_directory(tmp_path, capsys):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    assert cli.main(["optimize", "--batch", inp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {inp} is not a directory\n"
    assert not (tmp_path / "five.report.json").exists()


def test_analyze_reports_the_probe_candidate(tmp_path):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    out = tmp_path / "ana.json"
    assert cli.main(["analyze", "--input", inp, "--candidate", "c1",
                     "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidate"] == "c1"
    assert report["verdict"]["kind"] == "StayAtDStar_Thm2"
    assert report["thresholds"]["kappa_r2"] == pytest.approx(-0.5)


def test_analyze_measures_the_candidate_against_the_step_that_reached_d_star(tmp_path):
    # the declining-tail walk records p06 past D* = p00-p04; the base the
    # ordering limits need is p03, the step that reached D*
    inp = str(tmp_path / "monotone.json")
    assert cli.main(["gen", "--profile", "monotone", "--seed", "2", "--size", "7",
                     "--output", inp]) == 0
    out = tmp_path / "ana.json"
    assert cli.main(["analyze", "--input", inp, "--candidate", "p06",
                     "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["thresholds"]["n_r1"] > 0
    assert not any("unusable" in note for note in report["verdict"]["notes"])


def test_analyze_validates_the_candidate(tmp_path, capsys):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    assert cli.main(["analyze", "--input", inp, "--candidate", "ghost"]) == 1
    assert cli.main(["analyze", "--input", inp, "--candidate", "c5"]) == 1
    capsys.readouterr()


def test_carveout_command_on_a_carving_instance(tmp_path):
    found = find_scenario_instance(
        SCENARIO_II_CONSUMER_PREFERS, budget=20, rng_seed=0, require_carveout=True
    )
    assert found is not None
    inp = write(tmp_path, "carve.json", found.instance)
    out = tmp_path / "carve.report.json"
    assert cli.main(["carveout", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["applicable"] and report["feasible"]
    assert report["carveout"]["n_y"] > 0.0


def test_carveout_reports_why_the_recommended_carve_was_not_made(tmp_path):
    # the run's own carve of the probe block fails; ``carveout`` reports
    # that failure rather than carving anything else
    found = find_scenario_instance(SCENARIO_III_PRODUCER_PREFERS, budget=300, rng_seed=3)
    assert found is not None
    reason = "carve volume exceeded the extension's participation gap"
    assert found.result.verdict.carveout_recommended
    assert f"carveout infeasible: {reason}" in found.result.verdict.notes
    inp = write(tmp_path, "iii.json", found.instance)
    out = tmp_path / "iii.carveout.json"
    assert cli.main(["carveout", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["applicable"] and not report["feasible"]
    assert report["carveout"] is None
    assert report["reason"] == reason == found.result.carve_failure


def test_an_uncarved_landing_that_misses_a_budget_is_an_infeasible_carve(tmp_path, capsys):
    # D* plus the Scenario ii block already lands within the crossing
    # tolerance, so nothing is carved, but the block brings the producer
    # negative value: no carve can make that up
    inst = {
        "points": [
            {"id": "D", "c": 1.082, "p": 3.928, "n": 1.732},
            {"id": "q0", "c": 7.729, "p": 1.633, "n": 1.503},
            {"id": "q1", "c": 1.572, "p": 0.243, "n": 1.283},
            {"id": "q2", "c": 6.438, "p": -5.749, "n": 0.591},
            {"id": "q3", "c": 4.48, "p": 2.981, "n": 0.585},
        ],
        "participation": {"kind": "power", "zeta": 1.5016, "alpha": 0.954},
    }
    inp = write(tmp_path, "uncarved.json", inst)
    assert cli.main(["optimize", "--input", inp]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == SCENARIO_II_CONSUMER_PREFERS
    assert cli.main(["carveout", "--input", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["applicable"] and not report["feasible"]
    assert report["carveout"] is None
    assert verdict["notes"][-1] == f"carveout infeasible: {report['reason']}"


def test_a_share_that_rounds_to_one_still_gets_a_report(tmp_path, capsys):
    # next to a base of weight 1, a point of weight 1e17 has a share of
    # exactly 1.0 in floating point
    inst = {
        "points": [{"id": "a", "c": 2, "p": 1, "n": 1}, {"id": "b", "c": 1, "p": 1, "n": 1e17}],
        "participation": {"kind": "power", "zeta": 1, "alpha": 0.5},
    }
    inp = write(tmp_path, "heavy.json", inst)
    assert cli.main(["optimize", "--input", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d_star"]["n"] == 1.0


def test_carveout_command_without_a_disagreement(tmp_path):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    out = tmp_path / "carve.json"
    assert cli.main(["carveout", "--input", inp, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not report["applicable"]
    assert report["reason"]


def test_gen_profiles_validate_and_are_deterministic(tmp_path):
    for profile in ("uniform", "monotone", "underserved", "saturated",
                    "scenario:StayAtDStar_Thm2"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["gen", "--profile", profile, "--seed", "9",
                         "--output", str(a)]) == 0
        assert cli.main(["gen", "--profile", profile, "--seed", "9",
                         "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), profile
        inst = json.loads(a.read_text())
        # generated files themselves pass the input gate
        import jsonschema

        jsonschema.validate(inst, instances.INSTANCE_SCHEMA)


def test_gen_rejects_unknown_profiles(tmp_path, capsys):
    assert cli.main(["gen", "--profile", "mystery"]) == 1
    capsys.readouterr()


def test_gen_of_an_unfound_scenario_exits_two(monkeypatch, capsys):
    # a search that finds nothing is an unmet generation target, not a
    # usage error
    monkeypatch.setattr(oracle, "find_scenario_instance", lambda *a, **kw: None)
    argv = ["gen", "--profile", f"scenario:{SCENARIO_II_CONSUMER_PREFERS}"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"no instance realizing {SCENARIO_II_CONSUMER_PREFERS!r} "
        "found within the search budget\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--profile", "uniform", "--size", "0"], "size must be at least 1, got 0"),
        (["gen", "--profile", "monotone", "--size", "-3"], "size must be at least 1, got -3"),
        (["oracle-check", "--samples", "10", "--grid", "1"], "grid size must be at least 2, got 1"),
        (["oracle-check", "--samples", "10", "--grid", "0"], "grid size must be at least 2, got 0"),
        (["oracle-check", "--samples", "0"], "sample count must be at least 1, got 0"),
        (["oracle-check", "--samples", "-4"], "sample count must be at least 1, got -4"),
    ],
)
def test_sizes_below_their_minimum_end_as_an_error_line(argv, message):
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_oracle_check_passes_at_small_sizes(tmp_path):
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-check", "--samples", "400", "--grid", "8",
                     "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["threshold_crosscheck"]["mismatches"] == []
    assert report["finite_difference"]["mismatches"] == []


def test_log_env_var_does_not_change_results(tmp_path, monkeypatch):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    quiet = tmp_path / "quiet.json"
    assert cli.main(["optimize", "--input", inp, "--output", str(quiet)]) == 0
    monkeypatch.setenv("DISTOPT_LOG", "debug")
    loud = tmp_path / "loud.json"
    assert cli.main(["optimize", "--input", inp, "--output", str(loud)]) == 0
    assert quiet.read_bytes() == loud.read_bytes()


def test_console_script_roundtrip(tmp_path):
    inp = write(tmp_path, "chain.json", SECOND_CROSSING)
    out = tmp_path / "chain.report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp,
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["verdict"]["kind"] == "ContinueToD2Star_Thm4"
    assert report["d2_star"] is not None
    assert report["d2_deltas"]["delta_v"] == pytest.approx(0.0, abs=1e-9)


def test_canonical_json_is_stable_and_strict():
    text = cli.canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    with pytest.raises(ValueError):
        cli.canonical_json({"x": float("nan")})


def _stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(write, obj) -> str | tuple[type, str]:
    """What ``write(obj)`` returns, or the type and text of what it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: strings with JSON's structural characters, escapes, newlines and
#: non-ASCII, and the row boundary the emitter rewrites
_TEXT = (
    st.text(st.sampled_from('{}[]"\\\n\t ,:aZ0\x00\x7fé€\U0001f600'), max_size=8)
    | st.just("},\n    {")
    | st.text(max_size=4)
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, -5e-324, 1e308, -1e308, -0.0])
    | _TEXT
)
_ROWS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4), min_size=1, max_size=4)
_TREES = st.recursive(
    _SCALARS | _ROWS,
    lambda kids: st.lists(kids | _ROWS, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_canonical_json_writes_the_stdlib_bytes(obj):
    assert cli.canonical_json(obj) == _stdlib_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [{"id": f"p{i}", "c": i / 3, "p": i / 7, "n": i} for i in range(6000)],
        list(range(60_000)),
        {f"k{i}": i / 3 for i in range(40_000)},
        {"d_star": {"points": [{"id": f"p{i}", "n": 1.5} for i in range(12_000)]}},
    ],
    ids=["rows", "ints", "dict", "nested-rows"],
)
def test_canonical_json_writes_every_chunk_of_a_long_container(obj):
    # on Python 3.10 and 3.11 the C encoder returns a list that starts a new
    # chunk after every 100,000 pieces; each of these needs more than one
    assert cli.canonical_json(obj) == _stdlib_json(obj)


@settings(max_examples=150, deadline=None)
@given(
    _TREES,
    st.sampled_from([float("nan"), float("inf"), -float("inf"), {1}]),
    st.sampled_from([
        lambda tree, bad: bad,
        lambda tree, bad: [tree, bad],
        lambda tree, bad: {"a": tree, "b": bad},
        lambda tree, bad: {"rows": [{"a": 1}, {"b": bad}], "tree": tree},
        lambda tree, bad: [{"a": tree, "b": [1, bad]}],
    ]),
)
def test_canonical_json_raises_what_the_stdlib_raises(tree, bad, place):
    obj = place(tree, bad)
    raised = _outcome(cli.canonical_json, obj)
    assert isinstance(raised, tuple)
    assert raised == _outcome(_stdlib_json, obj)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inst: inst.pop("participation"),
        lambda inst: inst.update(surprise=True),
        lambda inst: inst["points"][0].update(n=0),
        lambda inst: inst["points"][0].pop("c"),
        lambda inst: inst["points"].clear(),
        lambda inst: inst["participation"].update(kind="cubic"),
        lambda inst: inst["participation"].update(alpha=1.5, zeta=-1),
        lambda inst: inst["transform"].update(table=[[1.0]]),
        lambda inst: inst.update(optimizer={"increment_policy": {"kind": "unit_chunks"}}),
        lambda inst: inst.update(optimizer={"seed_policy": "lowest"}),
        lambda inst: inst.update(schema_version=2),
        # the edges of the compiled predicate's rules
        lambda inst: inst["points"][0].update(n=True),
        lambda inst: inst.update(schema_version=True),
        lambda inst: inst.update(optimizer={"lookahead_steps": 2.5}),
        lambda inst: inst.update(optimizer={"seed_policy": {"ids": []}}),
        lambda inst: inst["points"][0].update(weight=1.0),
        lambda inst: inst.update(
            optimizer={"increment_policy": {"kind": "unit_chunks", "chunk": 0.5, "size": 1}}
        ),
        lambda inst: inst.update(participation={"kind": "table", "knots": [[1, 2, 3]]}),
    ],
)
def test_schema_errors_read_as_jsonschema_validate_reports_them(tmp_path, capsys, mutate):
    import jsonschema

    inst = json.loads(json.dumps(FIVE_POINT))
    mutate(inst)
    inp = write(tmp_path, "bad.json", inst)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(inst, instances.INSTANCE_SCHEMA)
    assert cli.main(["optimize", "--input", inp]) == 1
    assert capsys.readouterr().err == (
        f"error: {inp} failed schema validation: {expected.value.message}\n"
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inst: inst.update(schema_version=1.0),
        lambda inst: inst.update(optimizer={"lookahead_steps": 2.0}),
        lambda inst: inst["participation"].update(cap=3.0),
    ],
    ids=["schema-version-1.0", "lookahead-steps-2.0", "power-curve-with-a-cap"],
)
def test_schema_edges_are_accepted(tmp_path, capsys, mutate):
    # 1.0 is the integer 1 to the schema, and a curve may carry the fields
    # of another kind
    inst = json.loads(json.dumps(FIVE_POINT))
    mutate(inst)
    assert instances._instance_predicate()(inst)
    reports = []
    for obj in (FIVE_POINT, inst):
        assert cli.main(["optimize", "--input", write(tmp_path, "i.json", obj)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        del report["instance"]
    assert reports[1] == reports[0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inst: inst["participation"].pop("zeta"),
        lambda inst: inst.update(participation={"kind": "saturating", "zeta": 1.0, "alpha": 0.5}),
        lambda inst: inst.update(participation={"kind": "table"}),
        lambda inst: inst.update(transform={"kind": "affine", "a": 2.0}),
        lambda inst: inst.update(participation={"kind": "table", "knots": [[2.0, 1.0], [1.0, 2.0]]}),
        lambda inst: inst["points"][0].update(c=float("nan")),
        lambda inst: inst.update(transform={"kind": "table", "table": [[2.0, 1.0]]}),
        lambda inst: inst.update(optimizer={"seed_policy": {"ids": ["ghost"]}}),
        lambda inst: inst.update(optimizer={"seed_policy": {"ids": ["c5", "c5"]}}),
        lambda inst: inst.update(
            optimizer={"increment_policy": {"kind": "unit_chunks", "chunk": 1e-9}}
        ),
        lambda inst: [pt.update(n=1e-9) for pt in inst["points"]],
    ],
    ids=[
        "power-without-zeta",
        "saturating-without-cap",
        "table-curve-without-knots",
        "affine-without-b",
        "knots-not-increasing",
        "nan-score",
        "table-transform-missing-p",
        "seed-id-outside-pool",
        "seed-id-repeated",
        "chunk-at-drop-tolerance",
        "every-weight-at-drop-tolerance",
    ],
)
def test_invalid_instances_end_as_an_error_line(tmp_path, mutate):
    inst = json.loads(json.dumps(FIVE_POINT))
    mutate(inst)
    inp = write(tmp_path, "bad.json", inst)  # json.dumps writes NaN as a bare NaN
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {inp} ")
    assert "Traceback" not in proc.stderr


def test_a_vanishing_ordering_limit_denominator_ends_in_a_verdict(tmp_path):
    # the probe block z gives n_r1 = n_r2 = 0.5 and tp2 = -1, so the
    # ordering-limit denominator 1 - n_r1 + tp2 * n_r2 is exactly 0
    inst = make_instance(
        [("a", 3.0, 1.0, 1.0), ("r", 2.0, 1.0, 1.0), ("z", 1.0, -1.0, 1.0)],
        zeta=0.8,
        alpha=1.0,
    )
    inp = write(tmp_path, "degenerate.json", inst)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout)["verdict"]
    assert verdict["kind"] == "StayAtDStar_Thm2"
    assert verdict["indeterminate"]
    assert verdict["notes"] == ["crossing context degenerate: degenerate ordering-limit denominator"]


@pytest.mark.parametrize(
    "p, candidate, note",
    [
        # as above: the probe z leaves the ordering limit without a scale
        (
            {"a": 1.0, "r": 1.0, "z": -1.0},
            "z",
            "degenerate ordering-limit denominator",
        ),
        # every point is worthless to the producer, so E(T|D*) < 0
        (
            {"a": -1.0, "r": -1.0, "z": -1.0},
            "a",
            "mean transformed producer value at the crossing must be positive",
        ),
    ],
    ids=["vanishing-ordering-limit", "negative-crossing-value"],
)
def test_analyze_reads_a_degenerate_context_as_optimize_does(tmp_path, p, candidate, note):
    inst = make_instance(
        [("a", 3.0, p["a"], 1.0), ("r", 2.0, p["r"], 1.0), ("z", 1.0, p["z"], 1.0)],
        zeta=0.8,
        alpha=1.0,
    )
    inp = write(tmp_path, "degenerate.json", inst)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "analyze", "--input", inp,
         "--candidate", candidate],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["thresholds"] is None
    assert report["verdict"] == {
        "kind": "StayAtDStar_Thm2",
        "is_nash": True,
        "is_pareto": True,
        "carveout_recommended": False,
        "indeterminate": True,
        "notes": [f"crossing context degenerate: {note}"],
    }


@pytest.mark.parametrize(
    "command", [["optimize"], ["analyze", "--candidate", "p0"], ["carveout"]]
)
def test_an_explicit_seed_off_the_greedy_order_ends_as_an_error_line(tmp_path, command):
    # seeded by its point of lowest consumer value, this pool's probe block
    # beats the crossing on both value and participation, which the greedy
    # order rules out
    found = find_scenario_instance("StayAtDStar_Thm2", rng_seed=6)
    inst = dict(found.instance, optimizer={"seed_policy": {"ids": ["p3"]}})
    inp = write(tmp_path, "seeded.json", inst)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", *command, "--input", inp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {inp}: ")
    assert "build order violated" in proc.stderr
    assert "explicit seed ['p3']" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "participation",
    [
        SUBNORMAL_SCALE["participation"],
        {"kind": "saturating", "zeta": 1, "alpha": 0.05, "cap": 5e-324},
    ],
    ids=["power-zeta", "saturating-cap"],
)
def test_a_subnormal_participation_scale_ends_in_a_report(tmp_path, participation):
    # the ordering bound's pull n_r2 * M(D_a + r2)/N* rounds to 0, which
    # leaves that bound as unbounded as a non-positive ratio does
    inp = write(tmp_path, "subnormal.json", {**SUBNORMAL_SCALE, "participation": participation})
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["thresholds"]["f_up"] == "inf"


#: c = p = 1e300 at one point: the report's values overflow to inf
OVERFLOWING = {
    "points": [
        {"id": "a", "c": 1e300, "p": 1e300, "n": 1},
        {"id": "b", "c": 1, "p": 1, "n": 1},
    ],
    "participation": {"kind": "power", "zeta": 1, "alpha": 1},
}


def test_a_non_finite_report_value_ends_as_an_error_line(tmp_path):
    inp = write(tmp_path, "overflow.json", OVERFLOWING)
    out = tmp_path / "overflow.report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp,
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"error: {inp}: the report holds a non-finite value "
        "(Out of range float values are not JSON compliant: inf)\n"
    )
    assert not out.exists()


def test_batch_mode_carries_on_past_a_non_finite_report(tmp_path):
    # the overflowing file sorts first, so the batch must carry on past it
    write(tmp_path, "a.json", OVERFLOWING)
    write(tmp_path, "b.json", FIVE_POINT)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--batch", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {tmp_path / 'a.json'}: ")
    assert not (tmp_path / "a.report.json").exists()
    assert json.loads((tmp_path / "b.report.json").read_text())["n_star"] == 4.0


#: b's unit weight vanishes beside a's 1e16 in the volume's float sum, so
#: the probe's volume change is exactly zero
VOLUME_ABSORBED = {
    "points": [
        {"id": "a", "c": 2, "p": 1, "n": 1e16},
        {"id": "b", "c": 1, "p": 1, "n": 1},
    ],
    "participation": {"kind": "power", "zeta": 7e15, "alpha": 0.5},
}


@pytest.mark.parametrize(
    "command", [["optimize"], ["analyze", "--candidate", "b"], ["carveout"]]
)
def test_a_zero_volume_step_ends_as_an_error_line(tmp_path, command):
    inp = write(tmp_path, "absorbed.json", VOLUME_ABSORBED)
    out = tmp_path / "absorbed.report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", *command, "--input", inp,
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"error: {inp}: marginal participation is undefined for a zero volume change\n"
    )
    assert not out.exists()


def test_batch_mode_carries_on_past_a_zero_volume_step(tmp_path):
    write(tmp_path, "a.json", VOLUME_ABSORBED)
    write(tmp_path, "b.json", FIVE_POINT)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--batch", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {tmp_path / 'a.json'}: marginal participation")
    assert not (tmp_path / "a.report.json").exists()
    assert json.loads((tmp_path / "b.report.json").read_text())["n_star"] == 4.0


#: w·T(p) is +inf at a and -inf at b, so E(T|D) over both has no value
UNDEFINED_MEAN = {
    "schema_version": 1,
    "points": [
        {"id": "a", "c": 1e300, "p": 1e300, "n": 1e10},
        {"id": "b", "c": 3.0, "p": -1e300, "n": 1e10},
        {"id": "c", "c": 2.0, "p": 1.0, "n": 1.0},
    ],
    "participation": {"kind": "power", "zeta": 1.0, "alpha": 0.5},
    "transform": {"kind": "identity"},
}


@pytest.mark.parametrize(
    "command", [["optimize"], ["analyze", "--candidate", "c"], ["carveout"]]
)
def test_an_undefined_expected_producer_value_ends_as_an_error_line(tmp_path, command):
    inp = write(tmp_path, "undefined.json", UNDEFINED_MEAN)
    out = tmp_path / "undefined.report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", *command, "--input", inp,
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"error: {inp}: expected producer value is undefined: "
        "its terms w*T(p) overflow to both -inf and +inf\n"
    )
    assert not out.exists()


#: an integer literal that passes the schema but is too large for a float
HUGE = 10**400


@pytest.mark.parametrize(
    "mutate",
    [
        lambda inst: inst["points"][0].update(c=HUGE),
        lambda inst: inst.update(optimizer={"ratio_threshold": HUGE}),
    ],
    ids=["c", "ratio-threshold"],
)
def test_an_integer_too_large_for_a_float_ends_as_an_error_line(tmp_path, mutate):
    inst = json.loads(json.dumps(FIVE_POINT))
    mutate(inst)
    inp = write(tmp_path, "huge.json", inst)
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"error: {inp} is not a valid instance: int too large to convert to float\n"
    )
    assert proc.stdout == ""


def test_batch_mode_carries_on_past_an_integer_too_large_for_a_float(tmp_path, capsys):
    write(tmp_path, "a.json", {**FIVE_POINT, "optimizer": {"ratio_threshold": HUGE}})
    write(tmp_path, "b.json", FIVE_POINT)
    assert cli.main(["optimize", "--batch", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'a.json'} is not a valid instance: "
        "int too large to convert to float\n"
    )
    assert not (tmp_path / "a.report.json").exists()
    assert json.loads((tmp_path / "b.report.json").read_text())["n_star"] == 4.0


def test_an_output_under_a_missing_directory_ends_as_an_error_line(tmp_path):
    inp = write(tmp_path, "five.json", FIVE_POINT)
    out = tmp_path / "missing" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--input", inp,
         "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"
    )


def test_a_batch_output_naming_a_file_ends_as_an_error_line(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    write(src, "five.json", FIVE_POINT)
    taken = tmp_path / "taken"
    taken.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "distopt.cli", "optimize", "--batch", str(src),
         "--output", str(taken)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: cannot write {taken}: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize(
    "occupied, instance, verb",
    [
        ("r.trace.csv", FIVE_POINT, "write"),
        ("r.thresholds.csv", FIVE_POINT, "write"),
        # no witness, so the earlier thresholds file is removed
        ("r.thresholds.csv", make_instance([("u", 10.0, 1.0, 1.0)]), "remove"),
    ],
    ids=["trace", "thresholds", "thresholds-removed"],
)
def test_a_curve_file_that_cannot_be_written_ends_as_an_error_line(
    tmp_path, capsys, occupied, instance, verb
):
    # a directory stands where the CSV file goes
    (tmp_path / occupied).mkdir()
    inp = write(tmp_path, "i.json", instance)
    out = str(tmp_path / "r.json")
    assert cli.main(["optimize", "--input", inp, "--output", out, "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot {verb} {tmp_path / occupied}: [Errno 21] ")
    assert err.count("\n") == 1


def test_optimize_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    # every text file is opened as UTF-8, so a default-encoding warning,
    # made an error, cannot stop the run
    inst = json.loads(json.dumps(FIVE_POINT))
    inst["points"][0]["id"] = "c5\u00e9"
    inp = tmp_path / "accent.json"
    inp.write_bytes(json.dumps(inst, ensure_ascii=False).encode("utf-8"))
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "distopt.cli", "optimize", "--input", str(inp), "--output", str(out),
         "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "c5\u00e9,".encode("utf-8") in (tmp_path / "r.trace.csv").read_bytes()
    assert json.loads(out.read_text(encoding="utf-8"))["n_star"] == 4.0
