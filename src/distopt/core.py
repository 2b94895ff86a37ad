"""Discrete frequency distributions over scored content points.

A content point carries a consumer value ``c`` (utility per unit, already
time-normalized) and a raw producer value ``p``.  A distribution assigns a
non-negative volume (weight) to each point id.  Everything downstream —
participation curves, value functions, the greedy optimizer — is built on
the handful of pure operations in this module.

Distributions are immutable: every operation returns a new value.  Totals
(``n``) and the volume-weighted mean consumer value (``q``) are computed
eagerly and correctly rounded, so long build sequences do not drift: with
``math.fsum`` over the entries, gathered in the one pass that drops the
negligible ones, or, along a greedy build's chain, from exact integer
running sums that ``apply_increment`` moves by the changed entry alone and
rounds once (``running_sums``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: weights within this absolute tolerance of zero are treated as removed
DROP_TOLERANCE = 1e-9

#: exact running sums count in units of 2**-1074, of which every float is a
#: whole number; ``units / _UNIT`` rounds correctly, as ``math.fsum`` does
_UNIT = 1 << 1074
#: a term at least this large, or non-finite, leaves its state to ``fsum``
_SUM_LIMIT = 2.0**960


class EmptyDistributionError(ValueError):
    """An operation that needs volume was handed an empty distribution."""


class SubdistributionError(ValueError):
    """Attempted to remove more weight than a distribution holds."""


class TableLookupError(ValueError):
    """A table transform has no entry for a requested producer value."""


class UndefinedMeanError(ValueError):
    """E(T|D) has no value: its terms w·T(p) overflow to both -inf and +inf."""


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
    must carry the same scores, the incoming point replaces it, and the
    summed weight must stay finite."""
    prev = merged.get(point.id)
    if prev is None:
        merged[point.id] = (point, weight)
        return
    prev_point, prev_weight = prev
    if prev_point.c != point.c or prev_point.p != point.p:
        raise ValueError(f"point id {point.id!r} reused with different scores")
    merged[point.id] = (point, _checked_weight(point, prev_weight + weight))


class Distribution:
    """An immutable map from point id to (point, weight).

    Insertion order is preserved, which — together with the deterministic
    tie-breaks used by the sequence builder — makes every downstream trace
    reproducible byte-for-byte.
    """

    __slots__ = ("_entries", "_n", "_q_numerator", "_e_cache", "_sums")

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
        distributions they start from, so only new mass is validated.

        It takes ownership of ``merged``, which it keeps as its entries when
        no weight drops, so a caller passes a dict it has just built and
        shares with nothing."""
        d = cls.__new__(cls)
        d._settle(merged)
        return d

    def _settle(self, merged: dict[str, tuple[Point, float]]) -> None:
        weights, q_terms = [], []
        for point, w in merged.values():
            if w > DROP_TOLERANCE:
                weights.append(w)
                q_terms.append(w * point.c)
        if len(weights) < len(merged):
            merged = {
                pid: entry for pid, entry in merged.items() if entry[1] > DROP_TOLERANCE
            }
        self._entries = merged
        self._n = math.fsum(weights)
        self._q_numerator = math.fsum(q_terms)
        # (transform, E(T|D)) of the last ``expected_t`` taken; it never
        # goes stale, as neither the distribution nor the transform changes
        self._e_cache = None
        self._sums = None  # see ``running_sums``

    @classmethod
    def _summed(
        cls,
        entries: dict[str, tuple[Point, float]],
        sums: tuple[int, int, int, ProducerTransform | None],
    ) -> "Distribution":
        """A distribution over ``entries``, all above ``DROP_TOLERANCE``, whose
        N, Q and, when ``sums`` name a transform, E(T|D) come from ``sums``
        (see ``running_sums``) without a pass."""
        d = cls.__new__(cls)
        d._entries, d._sums = entries, sums
        n_units, q_units, e_units, t = sums
        d._n = n_units / _UNIT
        d._q_numerator = q_units / _UNIT
        d._e_cache = None if t is None or not entries else (t, e_units / _UNIT / d._n)
        return d

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

    def __repr__(self) -> str:
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
    entries = d._entries
    if not entries:
        raise EmptyDistributionError(
            "expected producer value is undefined on an empty distribution"
        )
    terms = [w * t.apply(pt.p) for pt, w in entries.values()]
    try:
        e = math.fsum(terms) / d._n
    except ValueError:  # fsum's "-inf + inf"; a failed lookup raised above
        raise UndefinedMeanError(
            "expected producer value is undefined: its terms w*T(p) "
            "overflow to both -inf and +inf"
        ) from None
    d._e_cache = (t, e)
    return e


def _units(w: float, c: float, tp: float | None) -> list[int] | None:
    """``w``, ``w * c`` and ``w * tp`` (0 without ``tp``) as whole numbers
    of 2**-1074 units, or None when one is non-finite or at least
    ``_SUM_LIMIT`` in magnitude."""
    units = []
    for x in (w, w * c, 0.0 if tp is None else w * tp):
        if not -_SUM_LIMIT < x < _SUM_LIMIT:
            return None
        num, den = x.as_integer_ratio()  # den is a power of two, <= 2**1074
        units.append(num << (1075 - den.bit_length()))
    return units


def running_sums(
    d: Distribution, t: ProducerTransform, tps: dict[str, float]
) -> Distribution:
    """``d`` with exact running sums of N, the Q numerator and, under ``t``,
    E(T|D)'s numerator, for ``apply_increment`` to carry along a chain of
    increments; ``tps`` holds T(p) by point id.  E(T|D) is not carried when
    ``tps`` misses a point of ``d``, and nothing is when a term is out of
    range: ``d`` itself comes back, and its chain sums with ``fsum``."""
    if not tps.keys() >= d._entries.keys():
        t = None
    sums = [0, 0, 0]
    for point, w in d._entries.values():
        units = _units(w, point.c, None if t is None else tps[point.id])
        if units is None:
            return d
        sums = [a + b for a, b in zip(sums, units)]
    return Distribution._summed(d._entries, (*sums, t))


def apply_increment(
    d: Distribution, inc: PointIncrement, tp: float | None = None
) -> Distribution:
    """Return d with inc.weight added at inc.point (expansive shift).

    When ``d`` carries running sums, the result carries them too, moved by
    the changed entry alone; E(T|D)'s only when ``tp`` gives the point's
    T(p) under the transform the sums were taken with.  A term out of
    range leaves the result to ``fsum``."""
    point = inc.point
    merged = dict(d._entries)
    _merge(merged, point, inc.weight)  # checked finite and positive already
    if d._sums is None:
        return Distribution._from_checked(merged)
    n_units, q_units, e_units, t = d._sums
    if tp is None or t is None:
        tp = t = None
    w = merged[point.id][1]
    now = _units(w, point.c, tp) if w > DROP_TOLERANCE else None
    if now is None:  # a new entry light enough to drop, or a term out of range
        return Distribution._from_checked(merged)
    old = d._entries.get(point.id)
    if old is not None:  # d's own terms, all in range
        was = _units(old[1], point.c, tp)
        n_units -= was[0]
        q_units -= was[1]
        e_units -= was[2]
    return Distribution._summed(
        merged, (n_units + now[0], q_units + now[1], e_units + now[2], t)
    )


def remove_subdistribution(d: Distribution, y: Distribution) -> Distribution:
    """Return d − y.  y must be point-wise within d (a true carve)."""
    held, cut = d._entries, y._entries
    remaining: dict[str, tuple[Point, float]] = {}
    for pid, (point, weight) in held.items():
        entry = cut.get(pid)
        removed = 0.0 if entry is None else entry[1]
        if removed > weight + DROP_TOLERANCE:
            raise SubdistributionError(
                f"cannot remove {removed!r} from {weight!r} at point {pid!r}"
            )
        left = weight - removed
        if left > DROP_TOLERANCE:
            remaining[pid] = (point, left)
    for pid, (_, weight) in cut.items():
        if pid not in held and weight > DROP_TOLERANCE:
            raise SubdistributionError(f"point {pid!r} is not part of the distribution")
    return Distribution._from_checked(remaining)
