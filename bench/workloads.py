"""Workload inputs, the CLI calls that consume them, and their output checks.

Every input is derived from the workload seed and written to a file; the
program sees only those files.  Each call owns an output directory, which
is emptied before the call, so a check never reads a stale file.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

from distopt.oracle import find_scenario_instance, generate_instance

WORKLOADS = ("pool-json", "pool-csv", "corpus-batch", "oracle-check")

#: verdicts for which ``optimize`` exits 2; every other verdict exits 0
DEGENERATE = ("UnderServed", "SaturatedConsumer")

#: corpus targets: every verdict kind, then the carve-required variants
CORPUS_TARGETS = (
    ("UnderServed", False),
    ("SaturatedConsumer", False),
    ("StayAtDStar_Thm2", False),
    ("ContinueToD2Star_Thm4", False),
    ("Scenario_i_BothPreferDPrime", False),
    ("Scenario_ii_ConsumerPrefers", False),
    ("Scenario_iii_ProducerPrefers", False),
    ("Scenario_iv_StayAtDStar", False),
    ("Scenario_ii_ConsumerPrefers", True),
    ("Scenario_iii_ProducerPrefers", True),
)

#: (profile, size, variant) of one pool-json pass.
#:
#: A uniform pool crosses at half its points, so its cost is steady from
#: one generator seed to the next.  A monotone pool crosses anywhere from
#: 30% to 80% of its points, and its cost varies up to threefold.  So the
#: monotone pools are smaller and a third of the calls: their variation
#: stays a small share of a run's time, and the median call time falls
#: among the uniform 200-point pools.  Each variant is built on a uniform
#: pool sized to cost about what a plain one does, so none dominates.
POOL_JSON = [
    ("uniform", 200, None),
    ("monotone", 140, None),
    ("uniform", 95, "table_transform"),
    ("uniform", 200, None),
    ("monotone", 150, None),
    ("uniform", 200, None),
    ("uniform", 200, None),
    ("monotone", 160, None),
    ("uniform", 200, "table_participation"),
    ("uniform", 200, None),
    ("monotone", 140, None),
    ("uniform", 200, "saturating"),
    ("uniform", 200, None),
    ("monotone", 150, None),
    ("uniform", 200, None),
    ("uniform", 200, None),
    ("monotone", 160, None),
    ("uniform", 150, "unit_chunks"),
]

#: the same mix without variants, for the same reasons
POOL_CSV = [
    ("uniform", 170, None),
    ("monotone", 130, None),
    ("uniform", 170, None),
    ("uniform", 170, None),
    ("monotone", 140, None),
    ("uniform", 170, None),
    ("uniform", 170, None),
    ("monotone", 150, None),
    ("uniform", 170, None),
]

#: 24 instances of each target, in 6 batch calls of 40: one call over
#: all 240 gives too few samples and too coarse a speed reference
CORPUS_ROUNDS = 24
CORPUS_BATCHES = 6
ORACLE_CALLS = 8
ORACLE_SAMPLES = 10_000
ORACLE_GRID = 50


@dataclass
class Call:
    """One closed-loop CLI call and how to judge what it wrote."""

    label: str
    argv: list[str]
    out_dir: Path
    instances: int
    #: (exit code, out_dir) -> problems found, keyed by instance label
    check: Callable[[int, Path], dict[str, list[str]]]
    carve_iterations: Callable[[Path], int] = field(default=lambda _: 0)
    oracle_counts: Callable[[Path], tuple[int, int]] = field(
        default=lambda _: (0, 0)
    )


# ---------------------------------------------------------------------------
# pool variants
# ---------------------------------------------------------------------------


def _table_transform(inst: dict) -> None:
    ps = sorted({pt["p"] for pt in inst["points"]})
    inst["transform"] = {
        "kind": "table",
        "table": [[p, round(math.sqrt(p) + 0.1, 6)] for p in ps],
    }


def _table_participation(inst: dict) -> None:
    part = inst["participation"]
    knots = [0.25 * (k + 1) for k in range(24)]
    inst["participation"] = {
        "kind": "table",
        "knots": [[q, round(part["zeta"] * q ** part["alpha"], 6)] for q in knots],
    }


def _saturating(inst: dict) -> None:
    part = inst["participation"]
    total = sum(pt["n"] for pt in inst["points"])
    inst["participation"] = {
        "kind": "saturating",
        "zeta": part["zeta"],
        "alpha": part["alpha"],
        "cap": round(0.6 * total, 6),
    }


def _unit_chunks(inst: dict) -> None:
    inst["optimizer"] = {"increment_policy": {"kind": "unit_chunks", "chunk": 0.5}}


VARIANTS = {
    "table_transform": _table_transform,
    "table_participation": _table_participation,
    "saturating": _saturating,
    "unit_chunks": _unit_chunks,
}


def monotone_prefix_w(inst: dict) -> float:
    """max of min(M, N) over the prefixes of the greedy build of a monotone pool.

    With one producer value for every point, the value-greedy build takes
    the point that leaves the highest mean consumer value Q (ties: higher
    c, then smaller id); this is descending c only when weights are equal.
    The replay is independent of the package's scoring code.
    """
    zeta = inst["participation"]["zeta"]
    alpha = inst["participation"]["alpha"]
    remaining = [(float(pt["c"]), float(pt["n"]), str(pt["id"])) for pt in inst["points"]]
    ns: list[float] = []
    ncs: list[float] = []
    best = -math.inf
    while remaining:
        n, s = math.fsum(ns), math.fsum(ncs)
        pick = min(
            remaining,
            key=lambda cwi: (-(s + cwi[0] * cwi[1]) / (n + cwi[1]), -cwi[0], cwi[2]),
        )
        remaining.remove(pick)
        ns.append(pick[1])
        ncs.append(pick[0] * pick[1])
        n = math.fsum(ns)
        q = math.fsum(ncs) / n
        m = zeta * q**alpha if q > 0 else 0.0
        best = max(best, min(m, n))
    return best


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _exit_code_for(kind: str) -> int:
    return 2 if kind in DEGENERATE else 0


def _pool_check(
    expected_w: float | None, fmt: str
) -> Callable[[int, Path], dict[str, list[str]]]:
    def check(rc: int, out_dir: Path) -> dict[str, list[str]]:
        problems: list[str] = []
        report_path = out_dir / "report.json"
        if not report_path.is_file():
            return {"": [f"exit {rc}, no report written"]}
        report = _read_json(report_path)
        kind = report["verdict"]["kind"]
        if rc != _exit_code_for(kind):
            problems.append(f"exit {rc} for verdict {kind}")
        if expected_w is not None:
            got = report["d_star"]["w"]
            if abs(got - expected_w) > 1e-9 * max(1.0, abs(expected_w)):
                problems.append(f"W(D*)={got!r}, prefix maximum {expected_w!r}")
        if fmt == "csv":
            trace_csv = out_dir / "report.trace.csv"
            if not trace_csv.is_file() or not trace_csv.read_text().startswith(
                "j,id,weight,n,q,m,w,is_d_star\n"
            ):
                problems.append("missing or malformed trace CSV")
            has_thresholds = (out_dir / "report.thresholds.csv").is_file()
            if has_thresholds != (report["thresholds"] is not None):
                problems.append("threshold CSV does not match the report")
        return {"": problems} if problems else {}

    return check


def _carve_iterations(out_dir: Path) -> int:
    return sum(
        c["iterations"]
        for path in sorted(out_dir.glob("*.json"))
        for c in _read_json(path).get("carveouts") or ()
    )


def _corpus_check(
    targets: dict[str, tuple[str, bool]]
) -> Callable[[int, Path], dict[str, list[str]]]:
    def check(rc: int, out_dir: Path) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        worst = 0
        for stem, (target, carve) in targets.items():
            path = out_dir / f"{stem}.report.json"
            if not path.is_file():
                problems[stem] = ["no report written"]
                continue
            report = _read_json(path)
            worst = max(worst, _exit_code_for(report["verdict"]["kind"]))
            kinds = {report["verdict"]["kind"]} | {
                e["kind"] for e in report["events"]
            }
            found: list[str] = []
            if target not in kinds:
                found.append(f"searched for {target}, report has {sorted(kinds)}")
            if carve and not any(
                c["trigger_kind"] == target and c["n_y"] > 0
                for c in report["carveouts"]
            ):
                found.append(f"no carveout triggered by {target}")
            if found:
                problems[stem] = found
        if rc != worst:
            problems.setdefault("", []).append(
                f"batch exit {rc}, reports imply {worst}"
            )
        return problems

    return check


def _oracle_check(rc: int, out_dir: Path) -> dict[str, list[str]]:
    path = out_dir / "oracle.json"
    if not path.is_file():
        return {"": [f"exit {rc}, no report written"]}
    if rc != 0 or _read_json(path)["ok"] is not True:
        return {"": [f"exit {rc}, ok={_read_json(path)['ok']!r}"]}
    return {}


def _oracle_counts(out_dir: Path) -> tuple[int, int]:
    report = _read_json(out_dir / "oracle.json")
    parts = (report["threshold_crosscheck"], report["finite_difference"])
    return sum(p["checked"] for p in parts), sum(p["skipped"] for p in parts)


# ---------------------------------------------------------------------------
# building a workload
# ---------------------------------------------------------------------------


def _size(size: int, tiny: bool) -> int:
    return max(6, size // 10) if tiny else size


def _write_instance(path: Path, inst: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(inst, indent=1))


def _pool_call(
    specs: list, seed: int, fmt: str, work: Path, tiny: bool, k: int
) -> Call:
    profile, size, variant = specs[k % len(specs)]
    inst = generate_instance(profile, seed * 100_000 + k, _size(size, tiny))
    if variant is not None:
        VARIANTS[variant](inst)
    label = f"{k:04d}-{profile}-{variant or 'plain'}"
    in_path = work / "in" / f"{label}.json"
    _write_instance(in_path, inst)
    out_dir = work / "out" / label
    expected_w = (
        monotone_prefix_w(inst) if profile == "monotone" and variant is None else None
    )
    return Call(
        label=label,
        argv=[
            "optimize",
            "--input",
            str(in_path),
            "--output",
            str(out_dir / "report.json"),
            "--format",
            fmt,
        ],
        out_dir=out_dir,
        instances=1,
        check=_pool_check(expected_w, fmt),
        carve_iterations=_carve_iterations,
    )


def _corpus_calls(
    seed: int, work: Path, tiny: bool, span: Callable[[str], ContextManager]
) -> list[Call]:
    """The corpus, searched once, split into batch directories that each
    hold every target."""
    batches, rounds = (1, 1) if tiny else (CORPUS_BATCHES, CORPUS_ROUNDS // CORPUS_BATCHES)
    calls = []
    rng_seed = seed * 100_000
    with span("oracle.scenario"):
        for b in range(batches):
            in_dir = work / "in" / f"corpus-{b}"
            targets: dict[str, tuple[str, bool]] = {}
            for _ in range(rounds):
                for target, carve in CORPUS_TARGETS:
                    found = None
                    while found is None:
                        found = find_scenario_instance(
                            target, budget=300, rng_seed=rng_seed, require_carveout=carve
                        )
                        rng_seed += 1
                    stem = f"{len(targets):04d}"
                    targets[stem] = (target, carve)
                    _write_instance(in_dir / f"{stem}.json", found.instance)
            out_dir = work / "out" / f"corpus-{b}"
            calls.append(
                Call(
                    label=f"corpus-{b}",
                    argv=["optimize", "--batch", str(in_dir), "--output", str(out_dir)],
                    out_dir=out_dir,
                    instances=len(targets),
                    check=_corpus_check(targets),
                    carve_iterations=_carve_iterations,
                )
            )
    return calls


def _oracle_call(seed: int, work: Path, tiny: bool, k: int) -> Call:
    samples, grid = (200, 8) if tiny else (ORACLE_SAMPLES, ORACLE_GRID)
    out_dir = work / "out" / f"oracle-{k:04d}"
    return Call(
        label=f"oracle-{k:04d}",
        argv=[
            "oracle-check",
            "--samples",
            str(samples),
            "--grid",
            str(grid),
            "--seed",
            str(seed * 100_000 + k),
            "--output",
            str(out_dir / "oracle.json"),
        ],
        out_dir=out_dir,
        instances=1,
        check=_oracle_check,
        oracle_counts=_oracle_counts,
    )


def build(
    workload: str,
    seed: int,
    work: Path,
    tiny: bool,
    span: Callable[[str], ContextManager],
) -> tuple[int, Callable[[int], Call]]:
    """The length of the first pass of ``workload`` and its k-th call.

    Calls past the first pass carry fresh inputs (pools, oracle seeds),
    so a longer run samples more inputs instead of repeating them; the
    corpus workload repeats its batch calls.  A call's inputs are
    written when the call is made.
    """
    if workload == "pool-json":
        return len(POOL_JSON), lambda k: _pool_call(POOL_JSON, seed, "json", work, tiny, k)
    if workload == "pool-csv":
        return len(POOL_CSV), lambda k: _pool_call(
            POOL_CSV, seed + 50_000, "csv", work, tiny, k
        )
    if workload == "corpus-batch":
        corpus = _corpus_calls(seed, work, tiny, span)
        return len(corpus), lambda k: corpus[k % len(corpus)]
    if workload == "oracle-check":
        return (2 if tiny else ORACLE_CALLS), lambda k: _oracle_call(seed, work, tiny, k)
    raise ValueError(f"unknown workload {workload!r}")
