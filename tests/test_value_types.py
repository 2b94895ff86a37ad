"""The contract of the small value types built on every oracle sample:
``Point``, ``PointIncrement``, ``ParticipationModel`` and ``ValueDelta``
are frozen dataclasses that check their input once, when they are made."""
from __future__ import annotations

import copy
import dataclasses
import math

import pytest

from distopt.core import Point, PointIncrement
from distopt.participation import ParticipationModel as PM
from distopt.valuation import ValueDelta

_A = Point("a", 1.5, -2.0)

#: a value, its repr and its ``dataclasses.asdict``
SAMPLES = [
    (_A, "Point(id='a', c=1.5, p=-2.0)", {"id": "a", "c": 1.5, "p": -2.0}),
    (Point("b", 0, 3), "Point(id='b', c=0.0, p=3.0)", {"id": "b", "c": 0.0, "p": 3.0}),
    (
        PointIncrement(_A, 0.25),
        "PointIncrement(point=Point(id='a', c=1.5, p=-2.0), weight=0.25)",
        {"point": {"id": "a", "c": 1.5, "p": -2.0}, "weight": 0.25},
    ),
    (
        PM.power(2.0, 0.5),
        "ParticipationModel(kind='power', zeta=2.0, alpha=0.5, cap=inf, knots=())",
        {"kind": "power", "zeta": 2.0, "alpha": 0.5, "cap": math.inf, "knots": (), "_knot_qs": ()},
    ),
    (
        PM.power(1, 1),
        "ParticipationModel(kind='power', zeta=1, alpha=1, cap=inf, knots=())",
        {"kind": "power", "zeta": 1, "alpha": 1, "cap": math.inf, "knots": (), "_knot_qs": ()},
    ),
    (
        PM("power", 2.0, 0.5, cap=3.0),
        "ParticipationModel(kind='power', zeta=2.0, alpha=0.5, cap=3.0, knots=())",
        {"kind": "power", "zeta": 2.0, "alpha": 0.5, "cap": 3.0, "knots": (), "_knot_qs": ()},
    ),
    (
        PM.saturating(1.0, 0.5, 3.0),
        "ParticipationModel(kind='saturating', zeta=1.0, alpha=0.5, cap=3.0, knots=())",
        {"kind": "saturating", "zeta": 1.0, "alpha": 0.5, "cap": 3.0, "knots": (), "_knot_qs": ()},
    ),
    (
        PM.from_table([(1, 2), (2.5, 3)]),
        "ParticipationModel(kind='table', zeta=1.0, alpha=0.5, cap=inf, "
        "knots=((1.0, 2.0), (2.5, 3.0)))",
        {
            "kind": "table", "zeta": 1.0, "alpha": 0.5, "cap": math.inf,
            "knots": ((1.0, 2.0), (2.5, 3.0)), "_knot_qs": (1.0, 2.5),
        },
    ),
    (ValueDelta(0.5, -1.25), "ValueDelta(delta_s=0.5, delta_v=-1.25)", {"delta_s": 0.5, "delta_v": -1.25}),
    (ValueDelta(-0.0, math.inf), "ValueDelta(delta_s=-0.0, delta_v=inf)", {"delta_s": -0.0, "delta_v": math.inf}),
]


@pytest.mark.parametrize("value, text, as_dict", SAMPLES, ids=lambda v: type(v).__name__)
def test_a_value_type_keeps_its_repr_equality_and_hash(value, text, as_dict):
    assert repr(value) == text
    assert dataclasses.asdict(value) == as_dict
    # equal and hashed by the compared fields, a table's knot positions not
    compared = tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)
    assert hash(value) == hash(compared)
    twin = dataclasses.replace(value)
    assert twin == value and twin is not value and hash(twin) == hash(value)
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert value != object()


@pytest.mark.parametrize("value", [v for v, _, _ in SAMPLES], ids=lambda v: type(v).__name__)
def test_a_value_type_refuses_assignment(value):
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 1)
    # a name that is no field is refused too; CPython's generated frozen
    # ``__setattr__`` raises TypeError for it on a ``slots=True`` class, as
    # it names the class that the slotted rebuild replaced
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        value.extra = 1
    assert not hasattr(value, "extra")
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)


def test_replace_makes_a_checked_value_with_the_changed_fields():
    assert dataclasses.replace(_A, c=4) == Point("a", 4.0, -2.0)
    assert dataclasses.replace(PointIncrement(_A, 0.25), weight=1) == PointIncrement(_A, 1.0)
    assert dataclasses.replace(ValueDelta(0.5, 1.0), delta_v=-2.0) == ValueDelta(0.5, -2.0)
    table = dataclasses.replace(PM.from_table([(1, 2)]), knots=((1, 1), (2, 3)))
    assert table.knots == ((1.0, 1.0), (2.0, 3.0)) and table._knot_qs == (1.0, 2.0)
    assert table.m(1.5) == 2.0
    assert dataclasses.replace(PM.power(2.0, 0.5), alpha=1.0).m(4.0) == 8.0
    with pytest.raises(ValueError, match="increment weight must be > 0, got 0.0"):
        dataclasses.replace(PointIncrement(_A, 0.25), weight=0)
    with pytest.raises(ValueError, match="_knot_qs"):
        dataclasses.replace(PM.power(2.0, 0.5), _knot_qs=(1.0,))


#: a build that is refused, the exception type and its whole message
REJECTIONS = [
    # the id is checked first, so it is the one named
    (lambda: Point("", math.nan, 0.0), ValueError, "point id must be a non-empty string"),
    (lambda: Point(3, math.nan, 0.0), ValueError, "point id must be a non-empty string"),
    (lambda: Point(None, 1.0, 1.0), ValueError, "point id must be a non-empty string"),
    # then c, then p
    (lambda: Point("a", math.nan, "x"), ValueError, "c must be finite, got nan"),
    (lambda: Point("a", -math.inf, 0.0), ValueError, "c must be finite, got -inf"),
    (lambda: Point("a", 1.0, math.inf), ValueError, "p must be finite, got inf"),
    (lambda: Point("a", 1.0, "x"), ValueError, "could not convert string to float: 'x'"),
    (
        lambda: Point("a", 1.0, None),
        TypeError,
        "float() argument must be a string or a real number, not 'NoneType'",
    ),
    (lambda: PointIncrement(_A, math.nan), ValueError, "weight must be finite, got nan"),
    (lambda: PointIncrement(_A, math.inf), ValueError, "weight must be finite, got inf"),
    (lambda: PointIncrement(_A, 0), ValueError, "increment weight must be > 0, got 0.0"),
    (lambda: PointIncrement(_A, -1), ValueError, "increment weight must be > 0, got -1.0"),
    (lambda: PointIncrement(_A, "w"), ValueError, "could not convert string to float: 'w'"),
    (lambda: PM("cubic"), ValueError, "unknown participation kind 'cubic'"),
    (lambda: PM.power(0, 0.5), ValueError, "zeta must be > 0, got 0"),
    (lambda: PM.power(-1.0, 0.5), ValueError, "zeta must be > 0, got -1.0"),
    (lambda: PM.power(math.inf, 0.5), ValueError, "zeta must be > 0, got inf"),
    (lambda: PM.power(math.nan, 0.5), ValueError, "zeta must be > 0, got nan"),
    (lambda: PM.power(1.0, 0), ValueError, "alpha must lie in (0, 1], got 0"),
    (lambda: PM.power(1.0, 1.5), ValueError, "alpha must lie in (0, 1], got 1.5"),
    (lambda: PM.power(1.0, math.nan), ValueError, "alpha must lie in (0, 1], got nan"),
    (lambda: PM.saturating(1.0, 0.5, 0), ValueError, "cap must be > 0, got 0"),
    (lambda: PM.saturating(1.0, 0.5, -2.0), ValueError, "cap must be > 0, got -2.0"),
    (lambda: PM.saturating(1.0, 0.5, math.nan), ValueError, "cap must be > 0, got nan"),
    (lambda: PM.saturating(0, 2.0, -1), ValueError, "zeta must be > 0, got 0"),
    (lambda: PM.from_table([]), ValueError, "table participation needs at least one knot"),
    (lambda: PM.from_table([(0, 1)]), ValueError, "table knot positions must be > 0"),
    (lambda: PM.from_table([(1, 1), (1, 2)]), ValueError, "table knot positions must strictly increase"),
    (lambda: PM.from_table([(2, 1), (1, 2)]), ValueError, "table knot positions must strictly increase"),
    (lambda: PM.from_table([(1, -1)]), ValueError, "table knot values must be non-negative"),
    (lambda: PM.from_table([(1, 2), (2, 1)]), ValueError, "table knot values must be non-decreasing"),
    (lambda: PM.from_table([(1, 2, 3)]), ValueError, "too many values to unpack (expected 2)"),
    (lambda: PM.from_table([("x", 1)]), ValueError, "could not convert string to float: 'x'"),
]


@pytest.mark.parametrize("build, error, message", REJECTIONS, ids=[m for _, _, m in REJECTIONS])
def test_a_refused_value_keeps_its_error_and_message(build, error, message):
    with pytest.raises(Exception) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message
