"""The instance contract: the schema of an instance, its checks, and its
conversion to the package's types.

An instance is a JSON object with the pool of points, the participation
curve, the producer-value transform, and optional optimizer settings.
``load_instance`` reads and parses a file.  ``build_objects`` checks an
instance against ``INSTANCE_SCHEMA`` and for duplicate point ids, then
builds it, rejecting what the schema cannot express: knots out of order,
explicit seed ids outside the pool, a table transform without an entry
for some pool ``p``, weights or chunks too small to keep
(``DROP_TOLERANCE``), numbers too large for a float.
Every rejection is an ``InstanceError`` naming the instance's source.

The schema is checked by a plain-Python predicate compiled from it once.
``jsonschema`` is slow to import and to run, so it is loaded only when
the predicate rejects an instance: it then decides, and words the error.
The ``build_*`` functions import the package's types when they run, so a
command that only checks instances (``gen``) does not load them.
"""
from __future__ import annotations

import functools
import json
import operator
from numbers import Number
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from .core import Distribution, ProducerTransform
    from .optimizer import OptimizerConfig
    from .participation import ParticipationModel

SCHEMA_VERSION = 1

_NUMBER = {"type": "number"}

#: a non-empty list of number pairs: curve knots (q, m), table entries (p, T(p))
_PAIRS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "items": _NUMBER,
        "minItems": 2,
        "maxItems": 2,
    },
}


def _kind_requires(fields: dict[str, list[str]]) -> dict:
    """Schema clauses by which an object of each listed ``kind`` needs its
    fields.

    An if/else chain that tests the kinds in the order given.  The order
    changes nothing that is accepted; the commonest kind goes first, so
    that the compiled predicate usually makes one test.
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
        "knots": _PAIRS,
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
        "table": _PAIRS,
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


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float, Number)) and not isinstance(x, bool)


def _is_integer(x: Any) -> bool:
    # Draft 2020-12 counts a float with an integral value as an integer
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


#: jsonschema's Draft 2020-12 type checks, by type name
_TYPES: dict[str, Callable[[Any], bool]] = {
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": _is_integer,
}


def _scalar(value: Any) -> Any:
    """``value``, a ``const`` or ``enum`` value the predicate can compare."""
    if value is not None and not isinstance(value, (str, int, float)):
        raise NotImplementedError(f"the schema compiler cannot compare {value!r}")
    return value


def _same(x: Any, value: Any) -> bool:
    """jsonschema's equality against a scalar: ``1.0`` equals ``1``, but
    ``True`` does not."""
    return x == value and isinstance(x, bool) == isinstance(value, bool)


def _type(names: str | list[str], schema: dict) -> Callable[[Any], bool]:
    names = [names] if isinstance(names, str) else names
    try:
        tests = [_TYPES[name] for name in names]
    except KeyError as exc:
        raise NotImplementedError(f"the schema compiler has no type {exc}") from None
    if len(tests) == 1:
        return tests[0]
    return lambda x: any(test(x) for test in tests)


def _const(value: Any, schema: dict) -> Callable[[Any], bool]:
    value = _scalar(value)
    return lambda x: _same(x, value)


def _enum(values: list, schema: dict) -> Callable[[Any], bool]:
    values = [_scalar(value) for value in values]
    return lambda x: any(_same(x, value) for value in values)


def _bound(fails: Callable[[Any, Any], bool]) -> Callable:
    """A numeric bound's compiler; the bound applies to numbers only."""

    def compile_bound(limit: Any, schema: dict) -> Callable[[Any], bool]:
        return lambda x: not (_is_number(x) and fails(x, limit))

    return compile_bound


def _length(holds: Callable[[int, int], bool]) -> Callable:
    """An array length bound's compiler; the bound applies to arrays only."""

    def compile_length(count: int, schema: dict) -> Callable[[Any], bool]:
        return lambda x: not isinstance(x, list) or holds(len(x), count)

    return compile_length


def _items(item: dict, schema: dict) -> Callable[[Any], bool]:
    check = _compile(item)
    return lambda x: not isinstance(x, list) or all(map(check, x))


def _properties(props: dict, schema: dict) -> Callable[[Any], bool]:
    checks = [(name, _compile(sub)) for name, sub in props.items()]

    def check(x: Any) -> bool:
        if isinstance(x, dict):
            for name, sub in checks:
                if name in x and not sub(x[name]):
                    return False
        return True

    return check


def _required(names: list[str], schema: dict) -> Callable[[Any], bool]:
    names = frozenset(names)
    return lambda x: not isinstance(x, dict) or x.keys() >= names


def _additional_properties(allowed: Any, schema: dict) -> Callable[[Any], bool]:
    if allowed is not False:
        raise NotImplementedError(
            "the schema compiler takes only additionalProperties: false"
        )
    known = frozenset(schema.get("properties", ()))
    return lambda x: not isinstance(x, dict) or x.keys() <= known


def _if(test: dict, schema: dict) -> Callable[[Any], bool]:
    condition = _compile(test)
    then = _compile(schema.get("then", {}))
    otherwise = _compile(schema.get("else", {}))
    return lambda x: then(x) if condition(x) else otherwise(x)


def _one_of(branches: list[dict], schema: dict) -> Callable[[Any], bool]:
    checks = [_compile(branch) for branch in branches]
    return lambda x: sum(1 for check in checks if check(x)) == 1


#: the compiler of each keyword ``INSTANCE_SCHEMA`` uses; ``then`` and
#: ``else`` are compiled with their ``if``
_KEYWORDS: dict[str, Callable[[Any, dict], Callable[[Any], bool]]] = {
    "type": _type,
    "const": _const,
    "enum": _enum,
    "minimum": _bound(operator.lt),
    "maximum": _bound(operator.gt),
    "exclusiveMinimum": _bound(operator.le),
    "minItems": _length(operator.ge),
    "maxItems": _length(operator.le),
    "items": _items,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "if": _if,
    "oneOf": _one_of,
}


def _compile(schema: dict) -> Callable[[Any], bool]:
    """A predicate that accepts what jsonschema's Draft 2020-12 validator
    of ``schema`` accepts; a keyword it does not know is an error, so a
    schema edit cannot go unchecked."""
    if not isinstance(schema, dict):
        raise NotImplementedError(f"the schema compiler takes objects, not {schema!r}")
    checks = []
    for keyword, value in schema.items():
        if keyword in ("then", "else"):
            continue
        if keyword not in _KEYWORDS:
            raise NotImplementedError(f"the schema compiler has no keyword {keyword!r}")
        checks.append(_KEYWORDS[keyword](value, schema))
    if not checks:
        return lambda x: True
    if len(checks) == 1:
        return checks[0]

    def check(x: Any) -> bool:
        for each in checks:
            if not each(x):
                return False
        return True

    return check


@functools.cache
def _instance_predicate() -> Callable[[Any], bool]:
    """``INSTANCE_SCHEMA`` compiled, once, to a plain-Python predicate."""
    return _compile(INSTANCE_SCHEMA)


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
    ``jsonschema.validate`` would report, or where point ids repeat.

    ``jsonschema`` runs only on what the compiled predicate rejects, and
    its answer alone decides and words the rejection."""
    if not _instance_predicate()(instance):
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
        return json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise InstanceError(f"{path} is not valid JSON: {exc}") from exc


def build_pool(points: list[dict[str, Any]]) -> Distribution:
    from .core import Distribution, Point

    return Distribution(
        [
            (Point(id=str(p["id"]), c=float(p["c"]), p=float(p["p"])), float(p["n"]))
            for p in points
        ]
    )


def build_participation(spec: dict[str, Any]) -> ParticipationModel:
    from .participation import ParticipationModel

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
    from .core import ProducerTransform

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
    from .optimizer import OptimizerConfig

    opt = opt or {}
    seeds = opt.get("seed_policy")
    inc = opt.get("increment_policy")
    return OptimizerConfig(
        seed_ids=tuple(map(str, seeds["ids"])) if isinstance(seeds, dict) else (),
        chunk=float(inc["chunk"]) if isinstance(inc, dict) else None,
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
            from .core import DROP_TOLERANCE

            raise ValueError(
                f"every point weight is at most {DROP_TOLERANCE!r}, so the pool is empty"
            )
        model = build_participation(instance["participation"])
        transform = build_transform(instance.get("transform"))
        cfg = build_optimizer_config(instance.get("optimizer"))
        missing = [pid for pid in cfg.seed_ids if pid not in pool]
        if missing:
            raise ValueError(f"seed ids {missing} are not in the pool")
        for point, _ in pool.items():
            transform.apply(point.p)  # a table transform must cover every p
    except (ValueError, OverflowError) as exc:  # an integer too large for a float
        raise InstanceError(f"{source} is not a valid instance: {exc}") from exc
    return pool, model, transform, cfg
