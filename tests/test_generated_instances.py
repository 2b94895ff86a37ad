"""Every generated instance ends in a report or in one ``error:`` line.

Instances come from ``strategies.generated_instances``: the ``uniform``
and ``monotone`` generators, with optional increment chunks, an explicit
seed block and a lookahead bound drawn on top.  ``optimize --format csv``
runs on each one twice, in process: no exception may escape, and both
runs must write the same bytes.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings

from distopt import cli

from strategies import generated_instances


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
@given(inst=generated_instances())
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
