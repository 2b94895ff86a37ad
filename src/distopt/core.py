"""Discrete frequency distributions over scored content points.

A content point carries a consumer value ``c`` (utility per unit, already
time-normalized) and a raw producer value ``p``.  A distribution assigns a
non-negative volume (weight) to each point id.  Everything downstream —
participation curves, value functions, the greedy optimizer — is built on
the handful of pure operations in this module.

Distributions are immutable: every operation returns a new value.  Totals
(``n``) and the volume-weighted mean consumer value (``q``) are computed
eagerly with compensated summation so long build sequences do not drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: weights within this absolute tolerance of zero are treated as removed
DROP_TOLERANCE = 1e-9


class DistributionError(ValueError):
    """Base class for errors raised by distribution operations."""


class EmptyDistributionError(DistributionError):
    """An operation that needs volume was handed an empty distribution."""


class SubdistributionError(DistributionError):
    """Attempted to remove more weight than a distribution holds."""


class TableLookupError(DistributionError):
    """A table transform has no entry for a requested producer value."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Point:
    """One unit-type of content: an id plus its (c, p) scores.

    Negative and zero scores are legal; content can be actively unpleasant
    for the consumer or worthless to the producer.
    """

    id: str
    c: float
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("point id must be a non-empty string")
        object.__setattr__(self, "c", _require_finite("c", self.c))
        object.__setattr__(self, "p", _require_finite("p", self.p))


@dataclass(frozen=True)
class PointIncrement:
    """A strictly positive slab of weight at a single point."""

    point: Point
    weight: float

    def __post_init__(self) -> None:
        w = _require_finite("weight", self.weight)
        if w <= 0:
            raise ValueError(f"increment weight must be > 0, got {w!r}")
        object.__setattr__(self, "weight", w)

    def as_distribution(self) -> "Distribution":
        point = self.point
        return Distribution._from_checked({point.id: (point, self.weight)})


@dataclass(frozen=True)
class ProducerTransform:
    """Maps raw producer values p onto the scale used by the value functions.

    Kinds:

    * ``identity`` — T(p) = p.
    * ``affine`` — T(p) = a*p + b.
    * ``table`` — an explicit finite map p -> T(p); total on the instance's
      p values by contract, so a missing entry is an error rather than an
      interpolation.
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    table: tuple[tuple[float, float], ...] = ()
    _lookup: dict[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "affine", "table"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        object.__setattr__(self, "a", _require_finite("a", self.a))
        object.__setattr__(self, "b", _require_finite("b", self.b))
        if self.kind == "table":
            if not self.table:
                raise ValueError("table transform needs at least one entry")
            seen: dict[float, float] = {}
            for p, t in self.table:
                p = _require_finite("table p", p)
                t = _require_finite("table T(p)", t)
                if p in seen and seen[p] != t:
                    raise ValueError(f"conflicting table entries for p={p!r}")
                seen[p] = t
            object.__setattr__(
                self, "table", tuple(sorted(seen.items()))
            )
            object.__setattr__(self, "_lookup", seen)

    @staticmethod
    def identity() -> "ProducerTransform":
        return ProducerTransform("identity")

    @staticmethod
    def affine(a: float, b: float) -> "ProducerTransform":
        return ProducerTransform("affine", a=a, b=b)

    @staticmethod
    def from_table(entries: Iterable[tuple[float, float]]) -> "ProducerTransform":
        return ProducerTransform("table", table=tuple(entries))

    def apply(self, p: float) -> float:
        if self.kind == "identity":
            return float(p)
        if self.kind == "affine":
            return self.a * p + self.b
        try:
            return self._lookup[p]
        except KeyError:
            raise TableLookupError(
                f"table transform has no entry for p={p!r}"
            ) from None


def _checked_weight(point: Point, weight: float) -> float:
    """``weight`` as a float, which must be finite and non-negative."""
    weight = float(weight)
    if not math.isfinite(weight):
        raise ValueError(f"weight of {point.id!r} must be finite, got {weight!r}")
    if weight < 0:
        raise ValueError(f"negative weight for point {point.id!r}")
    return weight


def _merge(
    merged: dict[str, tuple[Point, float]], point: Point, weight: float
) -> None:
    """Add ``weight`` at ``point`` into ``merged``; an id already present
    must carry the same scores, and the incoming point replaces it."""
    prev = merged.get(point.id)
    if prev is None:
        merged[point.id] = (point, weight)
        return
    prev_point, prev_weight = prev
    if prev_point.c != point.c or prev_point.p != point.p:
        raise ValueError(f"point id {point.id!r} reused with different scores")
    merged[point.id] = (point, prev_weight + weight)


class Distribution:
    """An immutable map from point id to (point, weight).

    Insertion order is preserved, which — together with the deterministic
    tie-breaks used by the sequence builder — makes every downstream trace
    reproducible byte-for-byte.
    """

    __slots__ = ("_entries", "_n", "_q_numerator", "_e_cache")

    def __init__(self, entries: Iterable[tuple[Point, float]] = ()):
        merged: dict[str, tuple[Point, float]] = {}
        for point, weight in entries:
            _merge(merged, point, _checked_weight(point, weight))
        self._settle(merged)

    @classmethod
    def _from_checked(
        cls, merged: dict[str, tuple[Point, float]]
    ) -> "Distribution":
        """A distribution over ``merged``, whose weights are already checked
        finite and non-negative and whose ids already agree with their
        scores: the derived operations below vouch for the entries of the
        distributions they start from, so only new mass is validated."""
        d = cls.__new__(cls)
        d._settle(merged)
        return d

    def _settle(self, merged: dict[str, tuple[Point, float]]) -> None:
        self._entries = {
            pid: entry for pid, entry in merged.items() if entry[1] > DROP_TOLERANCE
        }
        entries = self._entries.values()
        self._n = math.fsum([w for _, w in entries])
        self._q_numerator = math.fsum([w * pt.c for pt, w in entries])
        # (transform, E(T|D)) of the last ``expected_t`` taken; it never
        # goes stale, as neither the distribution nor the transform changes
        self._e_cache = None

    # -- basic views ------------------------------------------------------

    @property
    def n(self) -> float:
        """Total volume N."""
        return self._n

    @property
    def q(self) -> float:
        """Volume-weighted mean consumer value Q. Undefined when empty."""
        if not self._entries:
            raise EmptyDistributionError("Q is undefined on an empty distribution")
        return self._q_numerator / self._n

    def is_empty(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, point_id: str) -> bool:
        return point_id in self._entries

    def __iter__(self) -> Iterator[tuple[Point, float]]:
        return iter(self._entries.values())

    def items(self) -> Iterator[tuple[Point, float]]:
        return iter(self._entries.values())

    def ids(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def weight_of(self, point_id: str) -> float:
        entry = self._entries.get(point_id)
        return entry[1] if entry is not None else 0.0

    def point_of(self, point_id: str) -> Point:
        return self._entries[point_id][0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if set(self._entries) != set(other._entries):
            return False
        return all(
            self._entries[k] == other._entries[k] for k in self._entries
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{pt.id}:{w:g}" for pt, w in self._entries.values()
        )
        return f"Distribution({{{inner}}}, n={self._n:g})"


def combine(d1: Distribution, d2: Distribution) -> Distribution:
    """Frequency-additive combination: weights add point-wise."""
    merged = dict(d1._entries)
    for point, weight in d2.items():
        _merge(merged, point, weight)
    return Distribution._from_checked(merged)


def expected_t(d: Distribution, t: ProducerTransform) -> float:
    """Expected transformed producer value E(T|D) = Σ φ_r T(p_r).

    Applied to an increment set this is the increment mean that the
    incremental value formulas call for.  The value is kept on ``d`` for
    the transform object ``t`` it was last taken with.
    """
    cached = d._e_cache
    if cached is not None and cached[0] is t:
        return cached[1]
    if d.is_empty():
        raise EmptyDistributionError(
            "expected producer value is undefined on an empty distribution"
        )
    e = math.fsum(w * t.apply(pt.p) for pt, w in d.items()) / d.n
    d._e_cache = (t, e)
    return e


def apply_increment(d: Distribution, inc: PointIncrement) -> Distribution:
    """Return d with inc.weight added at inc.point (expansive shift)."""
    merged = dict(d._entries)
    _merge(merged, inc.point, _checked_weight(inc.point, inc.weight))
    return Distribution._from_checked(merged)


def remove_subdistribution(d: Distribution, y: Distribution) -> Distribution:
    """Return d − y.  y must be point-wise within d (a true carve)."""
    remaining: dict[str, tuple[Point, float]] = {}
    for point, weight in d.items():
        removed = y.weight_of(point.id)
        if removed > weight + DROP_TOLERANCE:
            raise SubdistributionError(
                f"cannot remove {removed!r} from {weight!r} at point {point.id!r}"
            )
        left = weight - removed
        if left > DROP_TOLERANCE:
            remaining[point.id] = (point, left)
    for point, weight in y.items():
        if point.id not in d and weight > DROP_TOLERANCE:
            raise SubdistributionError(
                f"point {point.id!r} is not part of the distribution"
            )
    return Distribution._from_checked(remaining)
