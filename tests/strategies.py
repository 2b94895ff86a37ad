"""Hypothesis strategies for instances.

- ``valid_instances`` draws instances the schema accepts, in every
  participation curve, transform, ``seed_policy`` and
  ``increment_policy`` form, with unique point ids whose seed ids lie in
  the pool.
- ``mutated_instances`` draws one of them with one change, drawn from
  ``mutations``: a value replaced by an edge or odd value, a key or list
  item removed, a key added at any level, or a list grown.  The schema
  may or may not accept the result.
- ``generated_instances`` draws ``uniform`` and ``monotone`` generator
  output with chunks, an explicit seed block and a lookahead bound on top.
"""
from __future__ import annotations

import copy
from typing import Any

import hypothesis.strategies as st

from distopt.oracle import generate_instance

#: numbers at the edges of the schema's types and bounds: ``bool`` is not
#: a number, ``1.0`` is an integer, ``-0.0`` is not above 0 and ``5e-324``
#: is, ``2**53 + 1`` is an integer no float holds
EDGE_NUMBERS = (True, False, 0, -0.0, 5e-324, 1, 1.0, 1.5, -1, 2**53 + 1)
#: values of the other JSON types, and pairs of the wrong length
ODD_VALUES = ("x", None, [], {}, [1.0], [1.0, 2.0, 3.0])
#: the words the schema names, so that a change can swap one for another
SCHEMA_WORDS = (
    "power", "saturating", "table", "identity", "affine", "highest_value",
    "full_point", "unit_chunks", "adaptive", "reactive",
)
#: keys to add: unknown everywhere, or known at another level
ADDED_KEYS = ("surprise", "kind", "cap", "zeta", "chunk", "ids", "id", "n")

#: the values a change puts in place of another
MUTANTS = EDGE_NUMBERS + ODD_VALUES + SCHEMA_WORDS

_number = st.integers(-3, 3) | st.floats(-10.0, 10.0)
_positive = st.integers(1, 3) | st.floats(5e-324, 10.0)
_pairs = st.lists(st.tuples(_number, _number).map(list), min_size=1, max_size=4)

# ids are unique: each is a form of the point's position
_points = st.lists(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["p", "é", 0]), "c": _number, "p": _number, "n": _positive}
    ),
    min_size=1,
    max_size=3,
).map(lambda points: [{**pt, "id": pt["id"] * (i + 1) or i} for i, pt in enumerate(points)])

# each curve may also carry the fields of another kind, which the schema allows
_participation = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("power"), "zeta": _positive, "alpha": st.just(1) | st.floats(0.05, 1.0)},
        optional={"cap": _positive},
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("saturating"),
            "zeta": _positive,
            "alpha": st.floats(0.05, 1.0),
            "cap": _positive,
        }
    ),
    st.fixed_dictionaries(
        {"kind": st.just("table"), "knots": _pairs}, optional={"zeta": _positive}
    ),
)

_transform = st.one_of(
    st.fixed_dictionaries({"kind": st.just("identity")}, optional={"a": _number}),
    st.fixed_dictionaries({"kind": st.just("affine"), "a": _number, "b": _number}),
    st.fixed_dictionaries({"kind": st.just("table"), "table": _pairs}),
)


# the seed ids are drawn as positions in the pool
_optimizer = st.fixed_dictionaries(
    {},
    optional={
        "ratio_threshold": st.just(1) | st.floats(1.0, 5.0),
        "lookahead_steps": st.integers(0, 4) | st.just(2.0),
        "consumer_mode": st.sampled_from(["adaptive", "reactive"]),
        "iota": st.just(0) | st.floats(0.0, 2.0),
        "seed_policy": st.just("highest_value")
        | st.fixed_dictionaries(
            {"ids": st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)}
        ),
        "increment_policy": st.just("full_point")
        | st.fixed_dictionaries({"kind": st.just("unit_chunks"), "chunk": _positive}),
    },
)


@st.composite
def valid_instances(draw) -> dict:
    points = draw(_points)
    inst: dict[str, Any] = {"points": points, "participation": draw(_participation)}
    if draw(st.booleans()):
        inst["schema_version"] = draw(st.sampled_from([1, 1.0]))
    if draw(st.booleans()):
        inst["transform"] = draw(_transform)
    if draw(st.booleans()):
        optimizer = inst["optimizer"] = draw(_optimizer)
        seeds = optimizer.get("seed_policy")
        if isinstance(seeds, dict):
            ids = [points[i % len(points)]["id"] for i in seeds["ids"]]
            seeds["ids"] = list(dict.fromkeys(ids))
    return inst


def _paths(value: Any, path: tuple = ()) -> list[tuple]:
    """The path of ``value`` and of every value inside it."""
    found = [path]
    if isinstance(value, dict):
        for key, sub in value.items():
            found += _paths(sub, (*path, key))
    elif isinstance(value, list):
        for index, sub in enumerate(value):
            found += _paths(sub, (*path, index))
    return found


def _at(value: Any, path: tuple) -> Any:
    for step in path:
        value = value[step]
    return value


def mutations(inst: Any) -> list[tuple]:
    """Every single change of ``inst``, as ``(path, change, argument)``:
    each value replaced by each of ``MUTANTS``, each key or list item
    removed, each of ``ADDED_KEYS`` added to each object, each list grown
    by a copy of its first item."""
    found: list[tuple] = []
    for path in _paths(inst):
        target = _at(inst, path)
        found += [(path, "replace", value) for value in MUTANTS]
        if path:
            found.append((path, "remove", None))
        if isinstance(target, dict):
            found += [(path, "add", key) for key in ADDED_KEYS]
        if isinstance(target, list) and target:
            found.append((path, "grow", None))
    return found


def mutate(inst: Any, mutation: tuple) -> Any:
    """A changed copy of ``inst``; ``mutation`` is one of ``mutations(inst)``."""
    path, change, argument = mutation
    if change == "replace" and not path:
        return copy.deepcopy(argument)
    inst = copy.deepcopy(inst)
    target = _at(inst, path)
    if change == "replace":
        _at(inst, path[:-1])[path[-1]] = copy.deepcopy(argument)
    elif change == "remove":
        del _at(inst, path[:-1])[path[-1]]
    elif change == "add":
        target[argument] = 1
    else:
        target.append(copy.deepcopy(target[0]))
    return inst


@st.composite
def mutated_instances(draw) -> Any:
    inst = draw(valid_instances())
    found = mutations(inst)
    return mutate(inst, found[draw(st.integers(0, len(found) - 1))])


@st.composite
def generated_instances(draw) -> dict:
    profile = draw(st.sampled_from(["uniform", "monotone"]))
    inst = generate_instance(profile, draw(st.integers(0, 10_000)), draw(st.integers(2, 25)))
    optimizer: dict = {}
    chunk = draw(st.none() | st.floats(0.05, 1.0))
    if chunk is not None:
        optimizer["increment_policy"] = {"kind": "unit_chunks", "chunk": chunk}
    ids = [pt["id"] for pt in inst["points"]]
    seed = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    if seed is not None:
        optimizer["seed_policy"] = {"ids": seed}
    lookahead = draw(st.none() | st.integers(0, 5))
    if lookahead is not None:
        optimizer["lookahead_steps"] = lookahead
    if optimizer:
        inst["optimizer"] = optimizer
    return inst
