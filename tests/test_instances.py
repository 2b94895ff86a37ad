"""The predicate compiled from ``INSTANCE_SCHEMA`` accepts exactly what
jsonschema's validator of the schema accepts."""
from __future__ import annotations

import jsonschema
import pytest
from hypothesis import event, given, settings

from distopt import instances

from strategies import mutate, mutated_instances, mutations, valid_instances


@settings(max_examples=2000, deadline=None)
@given(inst=valid_instances() | mutated_instances())
def test_the_predicate_accepts_exactly_what_jsonschema_accepts(inst):
    accepted = instances._instance_validator().is_valid(inst)
    event("accepted" if accepted else "rejected")
    assert instances._instance_predicate()(inst) is accepted


@settings(max_examples=15, deadline=None)
@given(inst=valid_instances())
def test_the_predicate_agrees_on_every_single_change(inst):
    # a rare change, such as ``schema_version: true``, is tried on every
    # instance drawn here
    instances.check_instance(inst)
    validator = instances._instance_validator()
    for mutation in mutations(inst):
        changed = mutate(inst, mutation)
        assert instances._instance_predicate()(changed) is validator.is_valid(changed), mutation


@pytest.mark.parametrize(
    "schema, value",
    [
        ({"type": "number"}, True),
        ({"type": "number"}, 2**53 + 1),
        ({"type": "integer"}, False),
        ({"type": "integer"}, 1.0),
        ({"type": "integer"}, 2.5),
        ({"type": "integer"}, float("inf")),
        ({"type": ["string", "integer"]}, 3.0),
        ({"type": "array"}, (1, 2)),
        ({"type": "object"}, [("a", 1)]),
        ({"const": 1}, 1.0),
        ({"const": 1}, True),
        ({"const": False}, 0),
        ({"enum": ["a", "b"]}, "b"),
        ({"enum": ["a", "b"]}, ["a"]),
        ({"minimum": 1}, "0"),
        ({"minimum": 1}, False),
        ({"maximum": 1}, 1),
        ({"exclusiveMinimum": 0}, -0.0),
        ({"exclusiveMinimum": 0}, 5e-324),
        ({"minItems": 2, "maxItems": 2}, [1]),
        ({"minItems": 2, "maxItems": 2}, "ab"),
        ({"items": {"type": "number"}}, [1, None]),
        ({"required": ["a"], "properties": {"a": {"const": 1}}}, {"a": 1.0}),
        ({"required": ["a"]}, ["a"]),
        ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1, "b": 2}),
        ({"if": {"const": 1}, "then": {"type": "integer"}, "else": {"type": "string"}}, 2),
        ({"if": {"const": 1}, "else": {"type": "string"}}, 1),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
    ],
)
def test_each_keyword_follows_draft_2020_12(schema, value):
    expected = jsonschema.validators.validator_for(schema)(schema).is_valid(value)
    assert instances._compile(schema)(value) is expected


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "patternProperties": {"^x": {}}},
        {"properties": {"a": {"type": "null"}}},
        {"additionalProperties": {"type": "number"}},
        {"const": [1, 2]},
        {"items": True},
    ],
)
def test_the_compiler_refuses_what_it_does_not_cover(schema):
    # a later schema edit cannot go unchecked: the compiler raises instead
    with pytest.raises(NotImplementedError):
        instances._compile(schema)
