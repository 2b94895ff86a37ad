"""The instance contract: the schema of an instance, its checks, and its
conversion to the package's types.

An instance is a JSON object with the pool of points, the participation
curve, the producer-value transform, and optional optimizer settings.
``load_instance`` reads and parses a file.  ``build_objects`` checks an
instance against ``INSTANCE_SCHEMA`` (imported lazily: ``jsonschema`` is
slow to import) and for duplicate point ids, then builds it, rejecting
what the schema cannot express: knots out of order, explicit seed ids
outside the pool, a table transform without an entry for some pool ``p``,
weights or chunks too small to keep (``DROP_TOLERANCE``).
Every rejection is an ``InstanceError`` naming the instance's source.
"""
from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any

from .core import DROP_TOLERANCE, Distribution, Point, ProducerTransform
from .participation import ParticipationModel
from .sequence import SequenceConfig
from .optimizer import OptimizerConfig

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}


def _kind_requires(fields: dict[str, list[str]]) -> dict:
    """Schema clauses by which an object of each listed ``kind`` needs its
    fields.

    An if/else chain that tests the kinds in the order given: a failed
    test costs the validator far more than a passed one, so the commonest
    kind goes first.
    """
    clause: dict = {}
    for kind, names in reversed(fields.items()):
        step: dict = {"if": {"properties": {"kind": {"const": kind}}}}
        if names:
            step["then"] = {"required": names}
        if clause:
            step["else"] = clause
        clause = step
    return clause


_POINT_SCHEMA = {
    "type": "object",
    "properties": {
        "id": {"type": ["string", "integer"]},
        "c": _NUMBER,
        "p": _NUMBER,
        "n": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["id", "c", "p", "n"],
    "additionalProperties": False,
}

_PARTICIPATION_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["power", "saturating", "table"]},
        "zeta": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "cap": {"type": "number", "exclusiveMinimum": 0},
        "knots": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": _NUMBER,
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "required": ["kind"],
    **_kind_requires(
        {
            "power": ["zeta", "alpha"],
            "saturating": ["zeta", "alpha", "cap"],
            "table": ["knots"],
        }
    ),
    "additionalProperties": False,
}

_TRANSFORM_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "affine", "table"]},
        "a": _NUMBER,
        "b": _NUMBER,
        "table": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": _NUMBER,
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
    "required": ["kind"],
    **_kind_requires({"identity": [], "affine": ["a", "b"], "table": ["table"]}),
    "additionalProperties": False,
}

_OPTIMIZER_SCHEMA = {
    "type": "object",
    "properties": {
        "ratio_threshold": {"type": "number", "minimum": 1},
        "lookahead_steps": {"type": "integer", "minimum": 0},
        "consumer_mode": {"enum": ["adaptive", "reactive"]},
        "iota": {"type": "number", "minimum": 0},
        "seed_policy": {
            "oneOf": [
                {"const": "highest_value"},
                {
                    "type": "object",
                    "properties": {
                        "ids": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": ["string", "integer"]},
                        }
                    },
                    "required": ["ids"],
                    "additionalProperties": False,
                },
            ]
        },
        "increment_policy": {
            "oneOf": [
                {"const": "full_point"},
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "unit_chunks"},
                        "chunk": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "chunk"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "additionalProperties": False,
}

INSTANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "points": {"type": "array", "minItems": 1, "items": _POINT_SCHEMA},
        "participation": _PARTICIPATION_SCHEMA,
        "transform": _TRANSFORM_SCHEMA,
        "optimizer": _OPTIMIZER_SCHEMA,
    },
    "required": ["points", "participation"],
    "additionalProperties": False,
}


class InstanceError(ValueError):
    """An instance file or dict that breaks the contract."""


@functools.cache
def _instance_validator() -> Any:
    """The validator of ``INSTANCE_SCHEMA``, checked against its metaschema
    once, on first use rather than at import."""
    import jsonschema

    cls = jsonschema.validators.validator_for(INSTANCE_SCHEMA)
    cls.check_schema(INSTANCE_SCHEMA)
    return cls(INSTANCE_SCHEMA)


def check_instance(instance: Any, source: str = "instance") -> None:
    """Reject ``instance`` where the schema does, with the error
    ``jsonschema.validate`` would report, or where point ids repeat."""
    from jsonschema.exceptions import best_match

    error = best_match(_instance_validator().iter_errors(instance))
    if error is not None:
        raise InstanceError(f"{source} failed schema validation: {error.message}")
    ids = [str(p["id"]) for p in instance["points"]]
    if len(set(ids)) != len(ids):
        raise InstanceError(f"{source} has duplicate point ids")


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def load_instance(path: str) -> Any:
    """The JSON value in the file at ``path``, unchecked; ``NaN`` and
    ``Infinity`` are not JSON numbers, and text that is not UTF-8 is not
    JSON."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc


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
    return ParticipationModel.from_table(
        [(float(q), float(m)) for q, m in spec["knots"]]
    )


def build_transform(spec: dict[str, Any] | None) -> ProducerTransform:
    if spec is None or spec["kind"] == "identity":
        return ProducerTransform.identity()
    if spec["kind"] == "affine":
        return ProducerTransform.affine(float(spec["a"]), float(spec["b"]))
    return ProducerTransform.from_table(
        [(float(p), float(tp)) for p, tp in spec["table"]]
    )


#: the optimizer settings an instance may give, each with its type
_OPTIMIZER_FIELDS = (
    ("ratio_threshold", float),
    ("lookahead_steps", int),
    ("consumer_mode", str),
    ("iota", float),
)


def build_optimizer_config(opt: dict[str, Any] | None) -> OptimizerConfig:
    opt = opt or {}
    seeds = opt.get("seed_policy")
    inc = opt.get("increment_policy")
    sequence = SequenceConfig(
        tuple(str(i) for i in seeds["ids"]) if isinstance(seeds, dict) else (),
        float(inc["chunk"]) if isinstance(inc, dict) else None,
    )
    return OptimizerConfig(
        sequence=sequence,
        **{key: cast(opt[key]) for key, cast in _OPTIMIZER_FIELDS if key in opt},
    )


def build_objects(
    instance: Any, source: str = "instance"
) -> tuple[Distribution, ParticipationModel, ProducerTransform, OptimizerConfig]:
    """Check ``instance`` and convert it into the pipeline's inputs.

    ``source`` names the instance in the text of an ``InstanceError``.
    """
    check_instance(instance, source)
    try:
        pool = build_pool(instance["points"])
        if pool.is_empty():
            raise ValueError(
                f"every point weight is at most {DROP_TOLERANCE!r}, so the pool is empty"
            )
        model = build_participation(instance["participation"])
        transform = build_transform(instance.get("transform"))
        cfg = build_optimizer_config(instance.get("optimizer"))
        missing = [pid for pid in cfg.sequence.seed_ids if pid not in pool]
        if missing:
            raise ValueError(f"seed ids {missing} are not in the pool")
        for point, _ in pool.items():
            transform.apply(point.p)  # a table transform must cover every p
    except ValueError as exc:
        raise InstanceError(f"{source} is not a valid instance: {exc}") from exc
    return pool, model, transform, cfg
