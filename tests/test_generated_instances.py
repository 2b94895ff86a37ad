"""Every generated instance ends in a report or in one ``error:`` line.

Instances come from the ``uniform`` and ``monotone`` generators, with
optional increment chunks, an explicit seed block and a lookahead bound
drawn on top.  ``optimize --format csv`` runs on each one twice, in
process: no exception may escape, and both runs must write the same bytes.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import event, given, settings

from distopt import cli
from distopt.oracle import generate_instance


@st.composite
def instances(draw) -> dict:
    profile = draw(st.sampled_from(["uniform", "monotone"]))
    inst = generate_instance(profile, draw(st.integers(0, 10_000)), draw(st.integers(2, 25)))
    optimizer: dict = {}
    chunk = draw(st.none() | st.floats(0.05, 1.0))
    if chunk is not None:
        optimizer["increment_policy"] = {"kind": "unit_chunks", "chunk": chunk}
    ids = [pt["id"] for pt in inst["points"]]
    seed = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    if seed is not None:
        optimizer["seed_policy"] = {"ids": seed}
    lookahead = draw(st.none() | st.integers(0, 5))
    if lookahead is not None:
        optimizer["lookahead_steps"] = lookahead
    if optimizer:
        inst["optimizer"] = optimizer
    return inst


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


@settings(max_examples=100, deadline=None)
@given(inst=instances())
def test_every_generated_instance_ends_in_a_report_or_an_error_line(inst):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "instance.json"
        src.write_text(json.dumps(inst))
        first = _optimize_csv(src, Path(tmp) / "first")
        second = _optimize_csv(src, Path(tmp) / "second")
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
