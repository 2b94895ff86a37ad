"""Command-line interface.

Subcommands:

* ``optimize`` — run the full pipeline on an instance file and write a
  run report (JSON), optionally with CSV curves of the build sweep and
  the threshold landscape.
* ``analyze`` — threshold report and verdict for one designated candidate
  against the instance's crossing distribution.
* ``carveout`` — the compensating carve ``optimize`` made for the
  instance's disagreement extension, or why the recommended one could
  not be made.
* ``gen`` — deterministically generate instance files from named profiles.
* ``oracle-check`` — run the independent sampled and finite-difference
  verifications and report mismatches.

Instances are read, checked and built by ``instances``; this module
handles the arguments, the reports and the CSV curves.

Exit codes: 0 success, 1 schema/usage error, 2 degenerate instance (the
report is still written) or an unmet generation target.  All randomness
comes from explicit ``--seed`` values; identical inputs and seeds produce
byte-identical outputs.  Set ``DISTOPT_LOG`` to a level name for
diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .instances import SCHEMA_VERSION, InstanceError, build_objects, load_instance

if TYPE_CHECKING:
    from .core import Distribution, ProducerTransform
    from .optimizer import CarveoutResult, OptimizationResult, OptimizerConfig
    from .participation import ParticipationModel
    from .thresholds import EquilibriumVerdict, ExtensionContext


class CliError(Exception):
    """A usage error, or a run the pipeline cannot finish."""


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _c_encoder(level: int):
    """The stdlib's C encoder, separating items by a newline and ``level``
    indents: it writes a container of scalars at that level in one call,
    all but the newline after the opening bracket and the indent before
    the closing one.  A call returns its text in chunks (more than one
    for a long container before Python 3.12), which the caller joins."""
    # markers, default, encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan
    return c_make_encoder(
        None, None, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * level, True, False, False,
    )


def _flat(values) -> bool:
    """No value is a dict, list or tuple (one check per type, not per value)."""
    for kind in set(map(type, values)):
        if issubclass(kind, _CONTAINERS):
            return False
    return True


def _emit(obj: Any, level: int) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it
    ``level`` indents deep; raises on anything it does not write so."""
    if not isinstance(obj, _CONTAINERS):
        return "".join(_c_encoder(0)(obj, 0))
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    ind, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    values = obj.values() if isinstance(obj, dict) else obj
    if _flat(values):
        text = "".join(_c_encoder(level + 1)(obj, 0))
        return text[0] + ind + text[1:-1] + close + text[-1]
    if isinstance(obj, dict):
        items = [
            encode_basestring_ascii(key) + ": " + _emit(value, level + 1)
            for key, value in sorted(obj.items())
        ]
        return "{" + ind + ("," + ind).join(items) + close + "}"
    if (
        set(map(type, obj)) == {dict}
        and all(obj)
        and _flat(chain.from_iterable(map(dict.values, obj)))
    ):
        # the encoder escapes every newline in a string and no scalar ends
        # in "}", so "},\n<indent>{" is a boundary between two rows and
        # nothing else
        row_ind = "\n" + "  " * (level + 2)
        text = "".join(_c_encoder(level + 2)(obj, 0))[2:-2]
        text = text.replace("}," + row_ind + "{", ind + "}," + ind + "{" + row_ind)
        return "[" + ind + "{" + row_ind + text + ind + "}" + close + "]"
    return "[" + ind + ("," + ind).join(_emit(v, level + 1) for v in obj) + close + "]"


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` and a
    newline, byte for byte, written by the C encoder where it can be."""
    try:
        return _emit(obj, 0) + "\n"
    except Exception:
        # anything the C path does not write byte for byte, and a Python
        # without the C encoder, takes the stdlib's own path and its errors
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def fingerprint(instance: dict) -> str:
    import hashlib

    return hashlib.sha256(canonical_json(instance).encode()).hexdigest()


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _dist_summary(
    d: Distribution, model: ParticipationModel, t: ProducerTransform
) -> dict:
    from .core import expected_t
    from .participation import potential

    m = potential(model, d)
    return {
        "points": [
            {"id": pt.id, "c": pt.c, "p": pt.p, "weight": w}
            for pt, w in sorted(d.items(), key=lambda e: e[0].id)
        ],
        "n": d.n,
        "q": d.q if not d.is_empty() else None,
        "e_t": expected_t(d, t) if not d.is_empty() else None,
        "m": m,
        "w": min(m, d.n),
    }


def _verdict_dict(v: EquilibriumVerdict) -> dict:
    return {
        "kind": v.kind,
        "is_nash": v.is_nash,
        "is_pareto": v.is_pareto,
        "carveout_recommended": v.carveout_recommended,
        "indeterminate": v.indeterminate,
        "notes": list(v.notes),
    }


def _carveout_dict(
    c: CarveoutResult, model: ParticipationModel, t: ProducerTransform
) -> dict:
    return {
        "y": _dist_summary(c.y, model, t),
        "d_plus": _dist_summary(c.d_plus, model, t),
        "r2": _dist_summary(c.r2, model, t),
        "n_y": c.n_y,
        "consumer_gain": c.consumer_gain,
        "producer_slack": c.producer_slack,
        "landing_gap": c.landing_gap,
        "iterations": c.iterations,
        "trigger_kind": c.trigger_kind,
    }


def run_report(
    instance: dict,
    result: OptimizationResult,
    model: ParticipationModel,
    t: ProducerTransform,
) -> dict:
    from .thresholds import threshold_report

    witness = result.verdict.witness
    carveouts = [_carveout_dict(c, model, t) for c in result.carveouts]
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "fingerprint": fingerprint(instance),
            "point_count": len(instance["points"]),
        },
        "d_star": _dist_summary(result.d_star, model, t),
        "n_star": result.n_star,
        "crossing_gap": result.crossing_gap,
        "trace": [
            {
                "j": j,
                "id": s.added.point.id,
                "weight": s.added.weight,
                "n": s.n_after,
                "q": s.q_after,
                "m": s.m_after,
                "w": s.w_after,
                "step_delta_v": s.step_delta_v,
            }
            for j, s in enumerate(result.trace)
        ],
        "verdict": _verdict_dict(result.verdict),
        "thresholds": threshold_report(witness) if witness else None,
        "events": [_verdict_dict(e) for e in result.events],
        "carveout": carveouts[-1] if carveouts else None,
        "carveouts": carveouts,
        "d2_star": (
            _dist_summary(result.d2_star, model, t)
            if result.d2_star is not None
            else None
        ),
        "d2_deltas": (
            {
                "delta_v": result.d2_delta_v,
                "delta_s": result.d2_delta_s,
                "crossing_gap": result.d2_crossing_gap,
            }
            if result.d2_star is not None
            else None
        ),
        "budget_exhausted": result.budget_exhausted,
        "timing": {"steps": len(result.trace), "evaluations": result.evaluations},
    }


# ---------------------------------------------------------------------------
# CSV curves
# ---------------------------------------------------------------------------


def sweep_csv(
    pool: Distribution,
    cfg: OptimizerConfig,
    result: OptimizationResult,
    model: ParticipationModel,
    t: ProducerTransform,
) -> str:
    """The raw greedy build curve (volume vs potential participation).

    Runs the plain sweep of ``pool`` to exhaustion so the supply/demand
    crossing is visible as the sign change of m − n; the row whose prefix
    equals the crossing distribution is marked.  The sweep resumes from the
    leading steps of ``result``'s trace that lie on it.
    """
    from .sequence import greedy_sweep

    steps = greedy_sweep(pool, cfg, model, t, result.trace[: result.greedy_steps])
    target = {pid: result.d_star.weight_of(pid) for pid in result.d_star.ids()}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["j", "id", "weight", "n", "q", "m", "w", "is_d_star"])
    running: dict[str, float] = {}
    off = set(target)  # the ids of D* whose running weight is off target
    for j, s in enumerate(steps):
        k = s.added.point.id
        running[k] = running.get(k, 0.0) + s.added.weight
        if k in target:
            if abs(running[k] - target[k]) <= 1e-12 * max(1.0, abs(target[k])):
                off.discard(k)
            else:
                off.add(k)
        matches = not off and len(running) == len(target)
        writer.writerow(
            [
                j,
                k,
                repr(s.added.weight),
                repr(s.n_after),
                repr(s.q_after),
                repr(s.m_after),
                repr(s.w_after),
                int(matches),
            ]
        )
    return out.getvalue()


def threshold_csv(
    ctx: ExtensionContext,
    n_star: float,
    q_star: float,
    model: ParticipationModel,
) -> str:
    """Threshold landscape versus candidate weight.

    Sweeps the candidate's weight share while holding its value ratios
    fixed, recomputing the marginal-participation slopes from the
    participation curve directly.  A threshold whose denominator vanishes
    reads ``inf``.
    """
    from .thresholds import ADAPTIVE, DegenerateContextError, x_l_kappa, x_u_kappa

    m_star = ctx.m_star_ratio * n_star
    c2_raw = ctx.c2_ratio * q_star
    n_r1 = ctx.n_r1
    c1a = ctx.c1a_ratio
    w1 = n_r1 * n_star
    denom_a = n_star - w1 + c1a * w1
    q_a = q_star * n_star / denom_a if denom_a > 0 else q_star
    n_a = n_star - w1
    m_a = model.m(q_a) if n_a > 0 else m_star

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["n_r2", "x_l_kappa", "x_u_kappa", "x_u_kappa_alt", "kappa_r2", "kappa_ar2"]
    )
    steps = 50
    for i in range(1, steps + 1):
        n2 = 0.02 * i
        w2 = n2 * n_star
        adaptive, reactive = x_l_kappa(n2, ctx.tp2_ratio)
        x_l = adaptive if ctx.consumer_mode == ADAPTIVE else reactive
        try:
            x_u, x_u_alt = x_u_kappa(n_r1, n2, ctx.tp1_ratio, ctx.tp2_ratio)
        except DegenerateContextError:
            x_u = x_u_alt = math.inf
        q_mix = (q_star * n_star + c2_raw * w2) / (n_star + w2)
        k_r2 = (model.m(q_mix) - m_star) / w2
        if n_a > 0:
            q_mix_a = (q_a * n_a + c2_raw * w2) / (n_a + w2)
            k_ar2 = (model.m(q_mix_a) - m_a) / w2
        else:
            k_ar2 = k_r2
        writer.writerow(
            [repr(n2), repr(x_l), repr(x_u), repr(x_u_alt), repr(k_r2), repr(k_ar2)]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _report_json(report: dict, path: str) -> str:
    try:
        return canonical_json(report)
    except ValueError as exc:  # a value overflowed to inf
        raise CliError(f"{path}: the report holds a non-finite value ({exc})") from exc


def _csv_paths(output: str | None, fmt: str) -> tuple[str, str] | None:
    """The CSV paths next to ``output`` under ``--format csv``, else None."""
    if fmt != "csv":
        return None
    if output is None:
        raise CliError("--format csv requires --output")
    stem = output[: -len(".json")] if output.endswith(".json") else output
    return f"{stem}.trace.csv", f"{stem}.thresholds.csv"


def _write_thresholds(
    path: str,
    witness: ExtensionContext | None,
    result: OptimizationResult,
    model: ParticipationModel,
) -> None:
    """Write ``witness``'s threshold CSV to ``path``; a verdict without a
    witness has none, so an earlier run's file there is removed."""
    if witness is None:
        try:
            Path(path).unlink(missing_ok=True)
        except OSError as exc:
            raise CliError(f"cannot remove {path}: {exc}") from exc
    else:
        _write(path, threshold_csv(witness, result.n_star, result.d_star.q, model))


def _optimize(
    path: str,
) -> tuple[
    dict,
    Distribution,
    ParticipationModel,
    ProducerTransform,
    OptimizerConfig,
    OptimizationResult,
]:
    """The instance read from ``path``, and ``build_objects`` and
    ``optimize`` on it, with a build found off the greedy order (an
    explicit seed can start it there), a step too light to move the
    volume's float sum, or an E(T|D) whose terms overflow to both
    infinities, reported as an error."""
    from .core import UndefinedMeanError
    from .optimizer import BuildOrderError, optimize
    from .participation import ZeroVolumeDeltaError

    instance = load_instance(path)
    pool, model, transform, cfg = build_objects(instance, path)
    try:
        result = optimize(pool, cfg, model, transform)
    except (BuildOrderError, UndefinedMeanError, ZeroVolumeDeltaError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    return instance, pool, model, transform, cfg, result


def _optimize_one(
    path: str, output: str | None, csv_paths: tuple[str, str] | None
) -> int:
    from .thresholds import SATURATED_CONSUMER, UNDER_SERVED

    instance, pool, model, transform, cfg, result = _optimize(path)
    report = run_report(instance, result, model, transform)
    _write(output, _report_json(report, path))
    if csv_paths is not None:
        trace_path, thresh_path = csv_paths
        _write(trace_path, sweep_csv(pool, cfg, result, model, transform))
        _write_thresholds(thresh_path, result.verdict.witness, result, model)
    if result.verdict.kind in (UNDER_SERVED, SATURATED_CONSUMER):
        return 2
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.batch:
        in_dir = Path(args.batch)
        if not in_dir.is_dir():
            raise CliError(f"{args.batch} is not a directory")
        out_dir = Path(args.output) if args.output else in_dir
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot write {out_dir}: {exc}") from exc
        import logging

        log = logging.getLogger("distopt.cli")
        worst = 0
        for path in sorted(in_dir.glob("*.json")):
            if path.name.endswith(".report.json"):
                continue
            out = out_dir / f"{path.stem}.report.json"
            try:
                code = _optimize_one(
                    str(path), str(out), _csv_paths(str(out), args.format)
                )
            except (CliError, InstanceError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
            log.info("%s -> %s (exit %d)", path.name, out.name, code)
            worst = max(worst, code)
        return worst
    if not args.input:
        raise CliError("optimize needs --input or --batch")
    csv_paths = _csv_paths(args.output, args.format)
    return _optimize_one(args.input, args.output, csv_paths)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core import PointIncrement
    from .optimizer import extension_verdict
    from .thresholds import threshold_report

    csv_paths = _csv_paths(args.output, args.format)
    instance, pool, model, transform, cfg, result = _optimize(args.input)
    cand_id = str(args.candidate)
    if cand_id not in pool:
        raise CliError(f"candidate {cand_id!r} is not in the instance pool")
    if cand_id in result.d_star:
        raise CliError(
            f"candidate {cand_id!r} is already inside the crossing distribution"
        )
    # D*'s last step (the seed is one): the declining-tail walk may record more
    r1 = result.trace[result.d_star_steps - 1].added
    candidate = PointIncrement(pool.point_of(cand_id), pool.weight_of(cand_id))
    verdict, _ = extension_verdict(
        result.d_star, r1, candidate.as_distribution(), model, transform, cfg
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "instance": {"fingerprint": fingerprint(instance)},
        "candidate": cand_id,
        "d_star": _dist_summary(result.d_star, model, transform),
        "thresholds": threshold_report(verdict.witness) if verdict.witness else None,
        "verdict": _verdict_dict(verdict),
    }
    _write(args.output, _report_json(report, args.input))
    if csv_paths is not None:
        _write_thresholds(csv_paths[1], verdict.witness, result, model)
    return 0


def cmd_carveout(args: argparse.Namespace) -> int:
    instance, pool, model, transform, cfg, result = _optimize(args.input)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "instance": {"fingerprint": fingerprint(instance)},
        "applicable": False,
        "feasible": False,
        "carveout": None,
        "reason": None,
    }
    if result.carveouts:
        report["applicable"] = True
        report["feasible"] = True
        report["carveout"] = _carveout_dict(result.carveouts[-1], model, transform)
    elif result.verdict.carveout_recommended:
        report["applicable"] = True
        report["reason"] = result.carve_failure
    else:
        report["reason"] = "no disagreement extension at the crossing"
    _write(args.output, _report_json(report, args.input))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import generate_instance

    try:
        instance = generate_instance(args.profile, args.seed, args.size)
    except LookupError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(args.output, canonical_json(instance))
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import oracle

    try:
        # the quick finite-difference suite goes first, so a grid size it
        # rejects ends the command before the sampled suite has run
        suites = {
            "finite_difference": oracle.finite_difference_facts(args.grid),
            "threshold_crosscheck": oracle.crosscheck_thresholds(args.samples, args.seed),
        }
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ok = all(suite.ok for suite in suites.values())
    report = {"schema_version": SCHEMA_VERSION, "ok": ok}
    report.update((name, asdict(suite)) for name, suite in suites.items())
    _write(args.output, canonical_json(report))
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distopt",
        description=(
            "Volume-optimal content distributions, equilibrium classification, "
            "and carveout synthesis for a single consumer/media-source pair."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="output path (stdout if omitted)")
        p.add_argument(
            "--format",
            choices=["json", "csv"],
            default="json",
            help="csv additionally writes curve files next to --output",
        )

    p_opt = sub.add_parser("optimize", help="run the full pipeline on an instance")
    p_opt.add_argument("--input", default=None)
    p_opt.add_argument("--batch", default=None, help="directory of instance files")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_ana = sub.add_parser("analyze", help="thresholds for a designated candidate")
    p_ana.add_argument("--input", required=True)
    p_ana.add_argument("--candidate", required=True, help="candidate point id")
    common(p_ana)
    p_ana.set_defaults(func=cmd_analyze)

    p_car = sub.add_parser("carveout", help="report the run's compensating carve")
    p_car.add_argument("--input", required=True)
    p_car.add_argument("--output", default=None, help="output path (stdout if omitted)")
    p_car.set_defaults(func=cmd_carveout)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument(
        "--profile",
        required=True,
        help="uniform | monotone | underserved | saturated | scenario:<Kind>",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--size", type=int, default=8)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_orc = sub.add_parser("oracle-check", help="run independent verifications")
    p_orc.add_argument("--samples", type=int, default=10_000)
    p_orc.add_argument("--seed", type=int, default=20240817)
    p_orc.add_argument("--grid", type=int, default=50)
    p_orc.add_argument("--output", default=None)
    p_orc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names and return its exit code.

    The parser is built once per process, on the first call: parsing
    leaves it as it was, so later calls reuse it, and a caller that runs
    many commands in one process, as the benchmark and the recipe corpus
    do, does not pay for building it each time.  Each subcommand's
    ``cmd_*`` function is bound into the parser then, once per process.
    """
    level = os.environ.get("DISTOPT_LOG")
    if level:
        import logging

        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            stream=sys.stderr,
            format="%(name)s %(levelname)s %(message)s",
        )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
