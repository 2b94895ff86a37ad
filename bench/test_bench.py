"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run the command in ``BENCHMARK.json`` as a subprocess, on tiny inputs.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, hash_seed: str = "0"):
    proc = subprocess.run(
        [
            sys.executable,
            *SPEC["command"][1:],
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["pool-csv", "corpus-batch"])
def test_traced_counters_repeat_exactly(workload):
    first, second = (
        _result(_run(workload, 1, hash_seed=seed))["metrics"] for seed in ("1", "2")
    )
    counts = {n: m["value"] for n, m in first.items() if m["unit"] == "count"}
    assert counts == {
        n: m["value"] for n, m in second.items() if m["unit"] == "count"
    }
    assert counts["core.expected_t.calls"] > 0


def test_fails_cleanly_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = _run("pool-json", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
