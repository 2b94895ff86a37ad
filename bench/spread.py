"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --runs 10 [--workload pool-json ...]

Runs ``bench/run.py`` once per seed (1..runs), one run at a time, and
prints for every workload and end-to-end metric the median, the
quartiles and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread should stay below a third of the metric's bound in
``BENCHMARK.json``.  The unscaled figures from each run's summary line
(``raw_*``, ``host_factor``) are shown the same way, for comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_KEYS = ("raw_setup_s", "raw_instances_per_s", "raw_instance_s_p50", "host_factor")


def _summary(stdout: str) -> dict[str, float]:
    line = next(l for l in stdout.splitlines() if l.startswith("# workload="))
    pairs = dict(item.split("=", 1) for item in line[2:].split())
    return {key: float(pairs[key]) for key in RAW_KEYS}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in (*bounds, *RAW_KEYS)}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [
                    *spec["command"],
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", "0",
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: failed\n{proc.stderr}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in _summary(proc.stdout).items():
                values[name].append(value)
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:13s} {name:20s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {spread:.3f}" + (f" (bound {bound})" if bound else "") + flag,
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
