"""Plain-dict instance descriptions and their conversion to objects.

An instance file is a JSON object with the pool of points, the
participation curve, the producer-value transform, and optional optimizer
settings.  This module converts validated dicts into the package's types
and rejects, with ``ValueError``, what the schema cannot express: knots out
of order, explicit seed ids outside the pool, a table transform without an
entry for some pool ``p``.  Schema validation itself lives with the CLI.
"""
from __future__ import annotations

from typing import Any

from .core import Distribution, Point, ProducerTransform
from .participation import ParticipationModel
from .sequence import SequenceConfig
from .optimizer import OptimizerConfig

SCHEMA_VERSION = 1


def build_pool(points: list[dict[str, Any]]) -> Distribution:
    return Distribution(
        [
            (Point(id=str(p["id"]), c=float(p["c"]), p=float(p["p"])), float(p["n"]))
            for p in points
        ]
    )


def build_participation(spec: dict[str, Any]) -> ParticipationModel:
    kind = spec["kind"]
    if kind == "power":
        return ParticipationModel.power(float(spec["zeta"]), float(spec["alpha"]))
    if kind == "saturating":
        return ParticipationModel.saturating(
            float(spec["zeta"]), float(spec["alpha"]), float(spec["cap"])
        )
    if kind == "table":
        return ParticipationModel.from_table(
            [(float(q), float(m)) for q, m in spec["knots"]]
        )
    raise ValueError(f"unknown participation kind {kind!r}")


def build_transform(spec: dict[str, Any] | None) -> ProducerTransform:
    if spec is None:
        return ProducerTransform.identity()
    kind = spec["kind"]
    if kind == "identity":
        return ProducerTransform.identity()
    if kind == "affine":
        return ProducerTransform.affine(float(spec["a"]), float(spec["b"]))
    if kind == "table":
        return ProducerTransform.from_table(
            [(float(p), float(tp)) for p, tp in spec["table"]]
        )
    raise ValueError(f"unknown transform kind {kind!r}")


def _sequence_config(opt: dict[str, Any]) -> SequenceConfig:
    seed_ids: tuple[str, ...] = ()
    seed_policy = opt.get("seed_policy")
    if isinstance(seed_policy, dict):
        seed_ids = tuple(str(i) for i in seed_policy["ids"])
        if not seed_ids:
            raise ValueError("explicit seeding needs at least one id")
    elif isinstance(seed_policy, str) and seed_policy != "highest_value":
        raise ValueError(f"unknown seed policy {seed_policy!r}")
    chunk = None
    inc = opt.get("increment_policy")
    if isinstance(inc, dict):
        chunk = float(inc["chunk"])
    elif isinstance(inc, str) and inc != "full_point":
        raise ValueError(f"unknown increment policy {inc!r}")
    return SequenceConfig(seed_ids, chunk)


def build_optimizer_config(opt: dict[str, Any] | None) -> OptimizerConfig:
    if not opt:
        return OptimizerConfig()
    kwargs: dict[str, Any] = {"sequence": _sequence_config(opt)}
    if "ratio_threshold" in opt:
        kwargs["ratio_threshold"] = float(opt["ratio_threshold"])
    if "lookahead_steps" in opt:
        kwargs["lookahead_steps"] = int(opt["lookahead_steps"])
    if "consumer_mode" in opt:
        kwargs["consumer_mode"] = str(opt["consumer_mode"])
    if "iota" in opt:
        kwargs["iota"] = float(opt["iota"])
    return OptimizerConfig(**kwargs)


def build_objects(
    instance: dict[str, Any],
) -> tuple[Distribution, ParticipationModel, ProducerTransform, OptimizerConfig]:
    pool = build_pool(instance["points"])
    model = build_participation(instance["participation"])
    transform = build_transform(instance.get("transform"))
    cfg = build_optimizer_config(instance.get("optimizer"))
    missing = [pid for pid in cfg.sequence.seed_ids if pid not in pool]
    if missing:
        raise ValueError(f"seed ids {missing} are not in the pool")
    for point, _ in pool.items():
        transform.apply(point.p)  # a table transform must cover every p
    return pool, model, transform, cfg
