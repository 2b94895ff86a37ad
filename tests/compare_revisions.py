"""Compare the CLI's outputs with those of another revision, byte for byte.

    python tests/compare_revisions.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory, which reads ``.git`` only.
One input set is written from ``RECIPES`` with the working tree's
generator:

- ``uniform`` and ``monotone`` pools of 4-60 points at generator seeds
  900-932, each plain, with 0.3 increment chunks, with a two-point
  explicit seed and with ``lookahead_steps: 0``;
- 200-point ``uniform`` and 150-point ``monotone`` pools at seeds 940 and
  941, each plain, with a ``table`` transform, a ``table`` participation
  curve, a ``saturating`` curve, 0.5 increment chunks and an ``affine``
  transform;
- the ``SINGLES``: pools of each variant, pools whose trace sweep meets
  its step limit, whose seed is the last two points, whose trace runs
  one step past D*, whose run exhausts its step budget or that hold one
  point, ``LOOKAHEAD``, four seeded pools whose probe block past D*
  reaches slope >= 1 with a usable last step (each of the four ends of
  that branch of ``classify``), two three-point pools whose crossing
  context is degenerate, a pool whose negative consumer values drive
  scored mixes to a mean <= 0, plain and on a ``table`` curve, two
  three-point pools whose candidate leaves tau or one thresholds CSV
  row's ordering limit without a denominator, and a search for each of
  the eight outcome kinds;
- searched scenario instances, from ``find_scenario_instance`` at search
  seeds 10-17: Scenario i adoptions, Scenario ii and iii carves and
  ``ContinueToD2Star`` climbs; a carve and a climb restart their greedy
  build from a non-empty state.

Each tree then runs, in one child process whose ``PYTHONPATH`` is its own
``src`` and which calls ``cli.main`` in process:

- ``optimize --format csv`` and ``carveout`` on every input;
- on each of the ``SINGLES``, a plain-JSON ``optimize`` and, on the
  candidate named there, ``analyze`` in both formats;
- ``optimize --batch`` over the ``BATCH`` directory: a plain pool, one
  that exits 2, one that fails schema validation and an earlier report;
- ``gen`` for five profiles at seeds 0-3;
- ``oracle-check --samples 200 --grid 8`` at seeds 0 and 1.

Every command's output files, exit code and stderr are compared.  The
script names each command that differs, counts the commands and the
differences of each subcommand, and exits 1 if any differs, else 0.
It is not a pytest module; ``tests/test_recipe_digests.py`` checks the
same commands against recorded digests.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
POOL_SEEDS = range(900, 933)
GEN_PROFILES = (
    "uniform",
    "monotone",
    "underserved",
    "saturated",
    "scenario:Scenario_iv_StayAtDStar",
)
GEN_SEEDS = range(4)
ORACLE_SEEDS = range(2)


def table_transform(inst: dict) -> None:
    ps = sorted({pt["p"] for pt in inst["points"]})
    inst["transform"] = {
        "kind": "table",
        "table": [[p, round(math.sqrt(p) + 0.1, 6)] for p in ps],
    }


def affine_transform(inst: dict) -> None:
    inst["transform"] = {"kind": "affine", "a": 0.7, "b": 0.15}


def table_participation(inst: dict) -> None:
    part = inst["participation"]
    knots = [0.25 * (k + 1) for k in range(24)]
    inst["participation"] = {
        "kind": "table",
        "knots": [[q, round(part["zeta"] * q ** part["alpha"], 6)] for q in knots],
    }


def saturating(inst: dict) -> None:
    part = inst["participation"]
    total = sum(pt["n"] for pt in inst["points"])
    inst["participation"] = {
        "kind": "saturating",
        "zeta": part["zeta"],
        "alpha": part["alpha"],
        "cap": round(0.6 * total, 6),
    }


def _plain(inst: dict) -> None:
    """The generated instance as it is."""


def _optimizer(settings: dict) -> Callable[[dict], None]:
    def variant(inst: dict) -> None:
        inst["optimizer"] = settings

    return variant


def _chunks(chunk: float) -> Callable[[dict], None]:
    return _optimizer({"increment_policy": {"kind": "unit_chunks", "chunk": chunk}})


def _seed(pick: slice) -> Callable[[dict], None]:
    """Seed the build with the points ``pick`` selects, as one block."""

    def variant(inst: dict) -> None:
        inst["optimizer"] = {"seed_policy": {"ids": [pt["id"] for pt in inst["points"][pick]]}}

    return variant


SMALL_VARIANTS: dict[str, Callable[[dict], None]] = {
    "plain": _plain,
    "chunks": _chunks(0.3),
    "seed": _seed(slice(2)),
    "lookahead0": _optimizer({"lookahead_steps": 0}),
}

#: the benchmark's pool variants, and the affine transform
LARGE_VARIANTS: dict[str, Callable[[dict], None]] = {
    "plain": _plain,
    "table-transform": table_transform,
    "table-participation": table_participation,
    "saturating": saturating,
    "chunks": _chunks(0.5),
    "affine": affine_transform,
}

#: (profile, size) of the large pools, each at generator seeds 940 and 941
LARGE_POOLS = (("uniform", 200), ("monotone", 150))
LARGE_SEEDS = range(940, 942)


def _pool_size(seed: int) -> int:
    """4 points at the first seed, 60 at the last, evenly in between."""
    return 4 + (seed - POOL_SEEDS[0]) * 56 // (len(POOL_SEEDS) - 1)


#: name -> (verdict kind searched for, carveout required) of the searched
#: scenario inputs, each at search seeds ``SCENARIO_SEEDS``
SCENARIOS = {
    "scenario-i": ("Scenario_i_BothPreferDPrime", False),
    "scenario-ii-carve": ("Scenario_ii_ConsumerPrefers", True),
    "scenario-iii-carve": ("Scenario_iii_ProducerPrefers", True),
    "scenario-d2": ("ContinueToD2Star_Thm4", False),
}
SCENARIO_SEEDS = range(10, 18)

# The probe block's slope lies in (0, 1), and one lookahead step past it
# reaches slope >= 1 with a block worth continuing for.
LOOKAHEAD = {
    "points": [
        {"id": "D", "c": 0.894, "p": 4.138, "n": 1.667},
        {"id": "q0", "c": 10.894, "p": -3.137, "n": 1.026},
        {"id": "q1", "c": 0.694, "p": -0.69, "n": 0.75},
        {"id": "q2", "c": 3.285, "p": 1.445, "n": 1.889},
        {"id": "q3", "c": 8.322, "p": 0.675, "n": 0.052},
        {"id": "q4", "c": 0.509, "p": 0.577, "n": 0.187},
    ],
    "participation": {"kind": "power", "zeta": 1.7893, "alpha": 0.769},
}


def _past_r1(r1: tuple, b: tuple, zeta: float, alpha: float) -> dict:
    """Seeded at ``a``, the build takes ``r1`` to the crossing D* = {a, r1},
    and the probe block {b} has slope >= 1 with ``r1`` usable as the last
    step, so ``classify`` judges it by order and value; ``r1`` and ``b``
    are (c, p, n)."""
    points = [("a", (1, 1, 1)), ("r1", r1), ("b", b)]
    return {
        "schema_version": 1,
        "points": [{"id": pid, "c": c, "p": p, "n": n} for pid, (c, p, n) in points],
        "participation": {"kind": "power", "zeta": zeta, "alpha": alpha},
        "optimizer": {"seed_policy": {"ids": ["a"]}},
    }


def _unit_pool(points: tuple, zeta: float, alpha: float) -> dict:
    """An instance over ``points``, each (id, c, p, n), with a power curve
    and the identity transform."""
    return {
        "schema_version": 1,
        "points": [{"id": pid, "c": c, "p": p, "n": n} for pid, c, p, n in points],
        "participation": {"kind": "power", "zeta": zeta, "alpha": alpha},
        "transform": {"kind": "identity"},
    }


def _degenerate(p_a: float, p_r: float, p_z: float) -> dict:
    """Three unit points of consumer values 3, 2 and 1 under a linear
    curve; the producer values decide how the crossing context degenerates."""
    return _unit_pool(
        (("a", 3.0, p_a, 1.0), ("r", 2.0, p_r, 1.0), ("z", 1.0, p_z, 1.0)), 0.8, 1.0
    )


def _at_unit_crossing(p_x: float, n_x: float) -> dict:
    """D* = {a, r} at N* = E(T|D*) = 1, reached by the usable last step r
    (n_r1 = 0.5), and a candidate x of consumer value 1 at producer value
    ``p_x`` and weight ``n_x``, so tp2 = ``p_x`` and n_r2 = ``n_x``."""
    return _unit_pool(
        (("a", 3.0, 1.0, 0.5), ("r", 2.0, 1.0, 0.5), ("x", 1.0, p_x, n_x)), 0.4, 1.0
    )


def _table_unit_pool(points: tuple, zeta: float, alpha: float) -> dict:
    """``_unit_pool`` with its power curve sampled into a ``table`` curve."""
    inst = _unit_pool(points, zeta, alpha)
    table_participation(inst)
    return inst


def _zero_weight(inst: dict) -> None:
    """A point of weight 0, which the schema refuses."""
    inst["points"][0]["n"] = 0


def _pool(profile: str, seed: int, size: int, variant: Callable[[dict], None]) -> dict:
    from distopt.oracle import generate_instance

    inst = generate_instance(profile, seed, size)
    variant(inst)
    return inst


def _searched(target: str, seed: int, require_carveout: bool) -> dict:
    from distopt.oracle import find_scenario_instance

    found = find_scenario_instance(
        target, budget=300, rng_seed=seed, require_carveout=require_carveout
    )
    if found is None:
        raise SystemExit(f"no {target} instance found at search seed {seed}")
    return found.instance


#: points whose negative consumer values drive mixes to a mean <= 0
NEGATIVE_MIX = (
    ("a", 2.0, 1.0, 1.0), ("b", 1.0, 2.0, 0.5), ("x", -3.0, 0.5, 4.0), ("y", -0.5, 0.2, 1.0)
)

#: name -> (the call that makes it, the candidate ``analyze`` runs on:
#: the first pool point outside D*, or None) of the single inputs
SINGLES = {
    "uniform-40": (partial(_pool, "uniform", 11, 40, _plain), "p0"),
    "uniform-60": (partial(_pool, "uniform", 12, 60, _plain), "p1"),
    "monotone-30": (partial(_pool, "monotone", 13, 30, _plain), "p14"),
    "monotone-50": (partial(_pool, "monotone", 14, 50, _plain), "p28"),
    "table-transform-40": (partial(_pool, "uniform", 15, 40, table_transform), "p0"),
    "table-curve-50": (partial(_pool, "uniform", 16, 50, table_participation), "p0"),
    "saturating-45": (partial(_pool, "uniform", 17, 45, saturating), "p1"),
    "unit-chunks-40": (partial(_pool, "uniform", 18, 40, _chunks(0.5)), "p0"),
    "monotone-unit-chunks-35": (partial(_pool, "monotone", 19, 35, _chunks(0.5)), "p12"),
    # the trace sweep stops at its 10-steps-per-point limit
    "fine-chunks-12": (partial(_pool, "uniform", 20, 12, _chunks(0.05)), "p3"),
    "explicit-seed-30": (partial(_pool, "uniform", 20, 30, _seed(slice(-2, None))), "p1"),
    # the declining-tail walk records one step past D*: 5 of 6 steps build it
    "monotone-past-d-star-7": (partial(_pool, "monotone", 2, 7, _plain), "p05"),
    # the run ends "step budget exhausted" after 120 steps
    "step-budget-12": (partial(_pool, "uniform", 0, 12, _chunks(0.02)), "p1"),
    # the pool is exhausted at the crossing, with nothing left to extend
    "one-point-1": (partial(_pool, "uniform", 0, 1, _plain), None),
    "lookahead": (partial(dict, LOOKAHEAD), "q0"),
    # the block {b} past D* = {a, r1} has slope >= 1: it continues, and the
    # pool runs out before a second crossing
    "kappa-1-exhausted": (partial(_past_r1, (1, 3, 0.2), (3, 0, 0.5), 1.2, 1.0), "b"),
    # ... or it stays, as it adds no potential value, breaks the greedy
    # order, or both
    "kappa-1-no-value": (
        partial(_past_r1, (1.497, 0.466, 0.48), (6.701, -0.96, 0.822), 1.11, 0.955), "b"
    ),
    "kappa-1-out-of-order": (
        partial(_past_r1, (2.55, 2.251, 0.533), (5.945, 1.192, 0.438), 1.169, 0.566), "b"
    ),
    "kappa-1-out-of-order-no-value": (
        partial(_past_r1, (0.911, -0.866, 0.361), (2.675, -0.676, 0.792), 1.373, 0.962), "b"
    ),
    # the crossing context is degenerate, so the verdict stays at D*: the
    # probe z leaves the ordering limit without a scale ...
    "degenerate-ordering-limit": (partial(_degenerate, 1.0, 1.0, -1.0), "z"),
    # ... or every point is worthless to the producer, so E(T|D*) < 0
    "degenerate-crossing-value": (partial(_degenerate, -1.0, -1.0, -1.0), "a"),
    # x's own mean, and the mixes of x or y with D*, fall to <= 0, where
    # potential participation is 0
    "negative-mix": (partial(_unit_pool, NEGATIVE_MIX, 0.8, 0.7), "x"),
    # ... and on a ``table`` curve M(D* + x) = 0 leaves the placement
    # ratio m without a base: the thresholds read it as NaN
    "negative-mix-table": (partial(_table_unit_pool, NEGATIVE_MIX, 0.8, 0.7), "x"),
    # 1 + tp2 n_r2 = 1 - 2 * 0.5 = 0, so the thresholds read tau as NaN
    "degenerate-tau": (partial(_at_unit_crossing, -2.0, 0.5), "x"),
    # 1 - n_r1 + tp2 n_r2 = 1 - 0.5 - 0.5 = 0 on the thresholds CSV's
    # n_r2 = 0.5 row, which reads x_u as inf
    "degenerate-csv-ordering-limit": (partial(_at_unit_crossing, -1.0, 0.3), "x"),
    "scenario-stay-3": (partial(_searched, "StayAtDStar_Thm2", 3, False), "p3"),
    "scenario-d2-3": (partial(_searched, "ContinueToD2Star_Thm4", 3, False), "b"),
    "scenario-i-3": (partial(_searched, "Scenario_i_BothPreferDPrime", 3, False), None),
    "scenario-ii-carve-4": (partial(_searched, "Scenario_ii_ConsumerPrefers", 4, True), "f0"),
    "scenario-iii-carve-5": (partial(_searched, "Scenario_iii_ProducerPrefers", 5, True), "f0"),
    "scenario-underserved-3": (partial(_searched, "UnderServed", 3, False), None),
    "scenario-ii-3": (partial(_searched, "Scenario_ii_ConsumerPrefers", 3, False), None),
    # the only searched template with ``unit_chunks``
    "scenario-iii-3": (partial(_searched, "Scenario_iii_ProducerPrefers", 3, False), "r1"),
    "scenario-iv-3": (partial(_searched, "Scenario_iv_StayAtDStar", 3, False), "r2"),
    "scenario-saturated-3": (partial(_searched, "SaturatedConsumer", 3, False), None),
}


def _recipes() -> dict[str, partial[dict]]:
    found = {}
    for profile in ("uniform", "monotone"):
        for seed in POOL_SEEDS:
            for name, variant in SMALL_VARIANTS.items():
                found[f"{profile}-{seed}-{name}"] = partial(
                    _pool, profile, seed, _pool_size(seed), variant
                )
    for profile, size in LARGE_POOLS:
        for seed in LARGE_SEEDS:
            for name, variant in LARGE_VARIANTS.items():
                found[f"{profile}{size}-{seed}-{name}"] = partial(
                    _pool, profile, seed, size, variant
                )
    for name, (target, carve) in SCENARIOS.items():
        for seed in SCENARIO_SEEDS:
            found[f"{name}-{seed}"] = partial(_searched, target, seed, carve)
    found.update((name, recipe) for name, (recipe, _) in SINGLES.items())
    return found


#: input name -> the call that makes it: ``_pool(profile, generator seed,
#: size, variant)``, ``dict(LOOKAHEAD)``, ``_past_r1(r1, b, zeta, alpha)``,
#: ``_degenerate(p_a, p_r, p_z)``, ``_at_unit_crossing(p_x, n_x)``,
#: ``_unit_pool(points, zeta, alpha)``, ``_table_unit_pool(points, zeta,
#: alpha)`` or ``_searched(target, search seed, require_carveout)``
RECIPES = _recipes()

#: file stem -> the call that makes it, of the ``optimize --batch`` input
#: directory ``batch``: a plain pool, a pool whose verdict exits 2, a pool
#: the schema refuses, whose error line the batch prints and passes, and an
#: earlier report, which the batch skips
BATCH = {
    "a-plain": partial(_pool, "uniform", 21, 10, _plain),
    "b-underserved": partial(_searched, "UnderServed", 3, False),
    "c-invalid": partial(_pool, "uniform", 22, 5, _zero_weight),
    "a-plain.report": dict,
}


def write_inputs(directory: Path) -> list[str]:
    """Write the inputs, and the ``batch`` directory, with the generators
    that ``distopt`` imports; the names of the inputs."""
    for name, recipe in RECIPES.items():
        (directory / f"{name}.json").write_text(json.dumps(recipe()), encoding="utf-8")
    batch = directory / "batch"
    batch.mkdir()
    for name, recipe in BATCH.items():
        (batch / f"{name}.json").write_text(json.dumps(recipe()), encoding="utf-8")
    return list(RECIPES)


def commands(inputs: Path, names: list[str]) -> dict[str, list[str]]:
    """Each command's argv by a unique name; ``{out}`` is its output directory."""
    found = {}
    for name in names:
        src = str(inputs / f"{name}.json")
        found[f"optimize/{name}"] = [
            "optimize", "--input", src, "--output", "{out}/r.json", "--format", "csv"
        ]
        found[f"carveout/{name}"] = ["carveout", "--input", src, "--output", "{out}/c.json"]
        if name not in SINGLES:
            continue
        found[f"optimize-json/{name}"] = ["optimize", "--input", src, "--output", "{out}/r.json"]
        candidate = SINGLES[name][1]
        for fmt in ("json", "csv") if candidate else ():
            found[f"analyze-{fmt}/{name}"] = [
                "analyze", "--input", src, "--candidate", candidate,
                "--output", "{out}/a.json", "--format", fmt,
            ]
    found["optimize-batch/batch"] = [
        "optimize", "--batch", str(inputs / "batch"), "--output", "{out}"
    ]
    for profile in GEN_PROFILES:
        for seed in GEN_SEEDS:
            found[f"gen/{profile}-{seed}"] = [
                "gen", "--profile", profile, "--seed", str(seed), "--output", "{out}/g.json"
            ]
    for seed in ORACLE_SEEDS:
        found[f"oracle-check/{seed}"] = [
            "oracle-check", "--samples", "200", "--grid", "8", "--seed", str(seed),
            "--output", "{out}/o.json",
        ]
    return found


def run_command(argv: list[str], out: Path, hidden: Path) -> tuple[int | str, str]:
    """Run one planned command in process with ``out`` for ``{out}``; its
    exit code and its stderr, with ``hidden`` written as ``<out>``."""
    from distopt import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([arg.replace("{out}", str(out)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is itself a result to compare
            code, err = "exception", io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, err.getvalue().replace(str(hidden), "<out>")


def run_commands(plan: Path, out_root: Path) -> None:
    """Child side: run every planned command, recording its exit code and
    stderr in ``results.json``."""
    from distopt import cli

    results = {}
    for name, argv in json.loads(plan.read_text(encoding="utf-8")).items():
        out = out_root / name
        out.mkdir(parents=True)
        code, stderr = run_command(argv, out, out_root)
        results[name] = {"code": code, "stderr": stderr}
    (out_root / "results.json").write_text(json.dumps(results), encoding="utf-8")
    print(cli.__file__)


def _run_tree(tree: Path, plan: Path, out_root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DISTOPT_LOG"}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(plan), str(out_root)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the run on {tree} failed:\n{proc.stderr}")
    ran = Path(proc.stdout.split()[-1]).resolve()
    if not ran.is_relative_to(tree.resolve()):
        raise SystemExit(f"the run on {tree} imported {ran}")
    return json.loads((out_root / "results.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--child":
        run_commands(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-revisions-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", argv[0]],
            capture_output=True,
        )
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace"), file=sys.stderr, end="")
            return 2
        other = tmp / "checkout"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(other, filter="data")
        sys.path.insert(0, str(ROOT / "src"))
        inputs = tmp / "inputs"
        inputs.mkdir()
        plan = tmp / "plan.json"
        planned = commands(inputs, write_inputs(inputs))
        plan.write_text(json.dumps(planned), encoding="utf-8")
        rev = _run_tree(other, plan, tmp / "out-rev")
        ours = _run_tree(ROOT, plan, tmp / "out-tree")
        ran, differ = Counter(), Counter()
        for name in rev:
            what = [
                part
                for part, same in (
                    ("exit code", rev[name]["code"] == ours[name]["code"]),
                    ("stderr", rev[name]["stderr"] == ours[name]["stderr"]),
                    ("files", _files(tmp / "out-rev" / name) == _files(tmp / "out-tree" / name)),
                )
                if not same
            ]
            ran[planned[name][0]] += 1
            if what:
                differ[planned[name][0]] += 1
                print(f"differs: {name} ({', '.join(what)})")
        codes = Counter(str(r["code"]) for r in ours.values())
        print(
            f"{len(rev)} commands against {argv[0]} (exit codes here: "
            + ", ".join(f"{n} x {code}" for code, n in sorted(codes.items()))
            + "): "
            + "; ".join(f"{sub} {n}, {differ[sub]} differ" for sub, n in ran.items())
            + f"; {differ.total()} differ in all"
        )
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
