"""Compare the CLI's outputs with those of another revision, byte for byte.

    python tests/compare_revisions.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory, which reads ``.git`` only.
One input set is written with the working tree's generator: ``uniform``
and ``monotone`` pools of 4-60 points at generator seeds 900-932, each
plain, with 0.3 increment chunks, with a two-point explicit seed and with
``lookahead_steps: 0``.  Each tree then runs, in one child process whose
``PYTHONPATH`` is its own ``src`` and which calls ``cli.main`` in process:

- ``optimize --format csv`` and ``carveout`` on every input;
- ``gen`` for five profiles at seeds 0-3.

Every command's output files, exit code and stderr are compared.  The
script names each command that differs and exits 1 if any does, else 0.
It is not a pytest module.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_PROFILES = ("uniform", "monotone")
POOL_SEEDS = range(900, 933)
GEN_PROFILES = (
    "uniform",
    "monotone",
    "underserved",
    "saturated",
    "scenario:Scenario_iv_StayAtDStar",
)
GEN_SEEDS = range(4)


def _pool_size(seed: int) -> int:
    """4 points at the first seed, 60 at the last, evenly in between."""
    return 4 + (seed - POOL_SEEDS[0]) * 56 // (len(POOL_SEEDS) - 1)


def write_inputs(directory: Path) -> list[str]:
    """Write the pool inputs with the working tree's generator; their names."""
    sys.path.insert(0, str(ROOT / "src"))
    from distopt.oracle import generate_instance

    names = []
    for profile in POOL_PROFILES:
        for seed in POOL_SEEDS:
            inst = generate_instance(profile, seed, _pool_size(seed))
            ids = [pt["id"] for pt in inst["points"]]
            variants = {
                "plain": None,
                "chunks": {"increment_policy": {"kind": "unit_chunks", "chunk": 0.3}},
                "seed": {"seed_policy": {"ids": ids[:2]}},
                "lookahead0": {"lookahead_steps": 0},
            }
            for variant, optimizer in variants.items():
                name = f"{profile}-{seed}-{variant}"
                body = inst if optimizer is None else {**inst, "optimizer": optimizer}
                (directory / f"{name}.json").write_text(json.dumps(body), encoding="utf-8")
                names.append(name)
    return names


def commands(inputs: Path, names: list[str]) -> dict[str, list[str]]:
    """Each command's argv by a unique name; ``{out}`` is its output directory."""
    found = {}
    for name in names:
        src = str(inputs / f"{name}.json")
        found[f"optimize/{name}"] = [
            "optimize", "--input", src, "--output", "{out}/r.json", "--format", "csv"
        ]
        found[f"carveout/{name}"] = ["carveout", "--input", src, "--output", "{out}/c.json"]
    for profile in GEN_PROFILES:
        for seed in GEN_SEEDS:
            found[f"gen/{profile}-{seed}"] = [
                "gen", "--profile", profile, "--seed", str(seed), "--output", "{out}/g.json"
            ]
    return found


def run_commands(plan: Path, out_root: Path) -> None:
    """Child side: run every planned command in process, recording its exit
    code and stderr (``out_root`` written as ``<out>``) in ``results.json``."""
    from distopt import cli

    results = {}
    for name, argv in json.loads(plan.read_text(encoding="utf-8")).items():
        out = out_root / name
        out.mkdir(parents=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([arg.replace("{out}", str(out)) for arg in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped exception is itself a result to compare
                code, err = "exception", io.StringIO(f"{type(exc).__name__}: {exc}")
        results[name] = {"code": code, "stderr": err.getvalue().replace(str(out_root), "<out>")}
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
        inputs = tmp / "inputs"
        inputs.mkdir()
        plan = tmp / "plan.json"
        plan.write_text(json.dumps(commands(inputs, write_inputs(inputs))), encoding="utf-8")
        rev = _run_tree(other, plan, tmp / "out-rev")
        ours = _run_tree(ROOT, plan, tmp / "out-tree")
        differ = 0
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
            if what:
                differ += 1
                print(f"differs: {name} ({', '.join(what)})")
        codes = Counter(str(r["code"]) for r in ours.values())
        print(
            f"{len(rev)} commands against {argv[0]} (exit codes here: "
            + ", ".join(f"{n} x {code}" for code, n in sorted(codes.items()))
            + f"): {differ} differ"
        )
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
