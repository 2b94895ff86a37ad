"""Every generated instance ends in a report or in one ``error:`` line.

Instances come from ``strategies.generated_instances`` (the ``uniform``
and ``monotone`` generators, with optional increment chunks, an explicit
seed block and a lookahead bound drawn on top) and from
``strategies.valid_instances`` (any instance the schema accepts).
``optimize --format csv`` runs on each one twice, in process: no
exception may escape, and both runs must write the same bytes.  A third
run on the same instance with its points permuted must end the same way
and, given a report, write the same bytes but for the instance
fingerprint.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import event, example, given, settings

from distopt import cli

from conftest import SUBNORMAL_SCALE
from strategies import generated_instances, valid_instances


def _optimize_csv(src: Path, out_dir: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and the files written by one in-process run."""
    out_dir.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["optimize", "--input", str(src), "--output", str(out_dir / "r.json"),
             "--format", "csv"]
        )
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, err.getvalue(), files


def _without_fingerprint(files: dict[str, bytes]) -> dict[str, bytes]:
    """``files`` with the report's instance fingerprint blanked out."""
    own = json.loads(files["r.json"])["instance"]["fingerprint"].encode()
    return {**files, "r.json": files["r.json"].replace(own, b"")}


@st.composite
def _instances_and_permuted_points(draw) -> tuple[dict, list]:
    inst = draw(generated_instances() | valid_instances())
    return inst, draw(st.permutations(inst["points"]))


@settings(max_examples=100, deadline=None)
@given(case=_instances_and_permuted_points())
@example(case=(SUBNORMAL_SCALE, SUBNORMAL_SCALE["points"][::-1]))
def test_every_generated_instance_ends_in_a_report_or_an_error_line(case):
    inst, permuted = case
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "instance.json"
        src.write_text(json.dumps(inst))
        first = _optimize_csv(src, Path(tmp) / "first")
        second = _optimize_csv(src, Path(tmp) / "second")
        src.write_text(json.dumps({**inst, "points": permuted}))
        reordered = _optimize_csv(src, Path(tmp) / "reordered")
    code, err, files = first
    # the message without its path, so that statistics group the causes
    event(f"exit {code}" + (f": {err.split(': ', 2)[-1][:70]}" if code == 1 else ""))
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert files == {}
    else:
        assert err == ""
        report = json.loads(files["r.json"])
        # the threshold curve is written when the verdict has a witness
        expected = {"r.json", "r.trace.csv"}
        if report["thresholds"] is not None:
            expected.add("r.thresholds.csv")
        assert set(files) == expected
    assert second == first
    # a rejection names the first offending point in file order, so only
    # the exit code has to survive the permutation
    assert reordered[0] == code
    if code != 1:
        assert reordered[1] == err
        assert _without_fingerprint(reordered[2]) == _without_fingerprint(files)
