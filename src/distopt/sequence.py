"""Greedy construction of distributions, one best increment at a time.

The builder adds whichever candidate increment maximizes the potential
value of the result.  Ties break deterministically: higher consumer value,
then higher transformed producer value, then smaller id.  Probing past a
crossing accumulates increments until the marginal-participation slope
relative to the entry distribution either leaves (0, 1) or stops
improving; the caller classifies what the resulting block means.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    DROP_TOLERANCE,
)
from .participation import ParticipationModel, kappa, potential
from .valuation import IncrementScorer, delta_v_of_increment

#: a kappa sequence must rise by more than this to count as still improving
KAPPA_IMPROVEMENT_TOL = 1e-12


class ExhaustedPoolError(ValueError):
    """No candidate weight remains to extend the distribution with."""


@dataclass(frozen=True)
class SequenceConfig:
    """Seeding and increment sizing.

    An empty distribution starts from the ids in ``seed_ids``, in order,
    or from the best-scoring point when there are none.  Increments take
    at most ``chunk`` of a point's remaining weight, or all of it when
    ``chunk`` is None; a chunk must outweigh ``DROP_TOLERANCE``, below
    which a distribution drops a weight.
    """

    seed_ids: tuple[str, ...] = ()
    chunk: float | None = None

    def __post_init__(self) -> None:
        if self.chunk is not None and not (self.chunk > DROP_TOLERANCE):
            raise ValueError(
                f"chunked increments need a chunk size > {DROP_TOLERANCE!r}, "
                f"got {self.chunk!r}"
            )
        if len(set(self.seed_ids)) != len(self.seed_ids):
            raise ValueError(f"seed ids {list(self.seed_ids)} repeat an id")


@dataclass(frozen=True)
class SequenceStep:
    """One accepted increment and the state just after it."""

    added: PointIncrement
    n_after: float
    q_after: float
    m_after: float
    step_delta_v: float

    @property
    def w_after(self) -> float:
        return min(self.n_after, self.m_after)


class GreedyBuild:
    """One greedy build: its state ``d`` and the offers its next step can
    take, in pool order.  An offer is a point of ``available`` with the
    weight ``d`` has not taken of it, capped at ``chunk`` when one is set.
    The build keeps its offers current as it ``add``s increments, so each
    build walks its pool once.
    """

    def __init__(
        self,
        d: Distribution,
        available: Distribution,
        chunk: float | None,
        model: ParticipationModel,
        t: ProducerTransform,
    ):
        self.d = d
        self.available = available
        self.model = model
        self.t = t
        self._cap = float("inf") if chunk is None else chunk
        self._offers: dict[str, tuple[Point, float]] = {}
        for point, _ in available.items():
            self._offer(point)

    def _offer(self, point: Point) -> None:
        """Recompute ``point``'s offer as available minus taken, so that a
        kept build's offers equal a fresh one's bit for bit."""
        left = self.available.weight_of(point.id) - self.d.weight_of(point.id)
        if left > DROP_TOLERANCE:
            self._offers[point.id] = (point, min(self._cap, left))
        else:
            self._offers.pop(point.id, None)

    def copy(self) -> GreedyBuild:
        """A build that goes on from this one's state independently of it:
        the immutable state and pool are shared, the offers copied rather
        than walked again."""
        twin = copy.copy(self)
        twin._offers = dict(self._offers)
        return twin

    def __len__(self) -> int:
        return len(self._offers)

    def __iter__(self) -> Iterator[tuple[Point, float]]:
        return iter(self._offers.values())

    def best(self) -> PointIncrement:
        """The value-maximizing next increment (``best_increment``)."""
        return best_increment(self)

    def add(self, inc: PointIncrement) -> None:
        self.d = apply_increment(self.d, inc)
        self._offer(inc.point)

    def record(self, inc: PointIncrement, steps: list[SequenceStep]) -> None:
        """``add`` ``inc`` and append the step it makes to ``steps``."""
        dv = delta_v_of_increment(
            self.d, inc.point.c, inc.point.p, inc.weight, self.model, self.t
        )
        self.add(inc)
        d = self.d
        steps.append(
            SequenceStep(inc, d.n, d.q, potential(self.model, d), dv)
        )


def _tie_key(point: Point, tp: float) -> tuple[float, float, str]:
    """Higher c, then higher T(p) = ``tp``, then smaller id sorts first."""
    return (-point.c, -tp, point.id)


def step_limit(d_all: Distribution) -> int:
    """The most greedy steps a build of pool ``d_all`` may take."""
    return 10 * max(1, len(d_all))


def best_increment(build: GreedyBuild) -> PointIncrement:
    """The value-maximizing next increment from ``build``'s offers.

    On an empty base the score of a candidate is the potential value of
    its own singleton, T(p) * M(c).  Otherwise candidates are scored by
    the potential value after inclusion at their realized share.  The
    base's N, E(T|D), Q and V are taken once per call, so a call costs
    O(|D| + offers).
    """
    if not build:
        raise ExhaustedPoolError("no candidate weight remains")
    t = build.t
    scorer = IncrementScorer(build.d, build.model, t)

    def key(offer: tuple[Point, float]) -> tuple[float, tuple[float, float, str]]:
        point, weight = offer
        tp = t.apply(point.p)
        return (-scorer.delta_v(point.c, tp, weight), _tie_key(point, tp))

    return PointIncrement(*min(build, key=key))


def seed_distribution(build: GreedyBuild, cfg: SequenceConfig) -> list[PointIncrement]:
    """Increments that install the configured seed into ``build``, whose
    state is empty."""
    if cfg.seed_ids:
        d_all = build.available
        incs = []
        for pid in cfg.seed_ids:
            if pid not in d_all:
                raise KeyError(f"seed id {pid!r} is not in the pool")
            incs.append(PointIncrement(d_all.point_of(pid), d_all.weight_of(pid)))
        return incs
    return [build.best()]


def best_next_in_sequence(build: GreedyBuild) -> tuple[float, tuple[PointIncrement, ...]]:
    """Advance ``build`` by best increments until the block slope settles.

    Returns ``(kappa, increments)``: the increments taken and the
    marginal-participation slope of the block they make, measured against
    the state ``build`` entered with, whose offers must not be empty.
    Stops at the first accumulated block whose slope versus the entry
    distribution leaves the open interval (0, 1) — such a block is a
    complete candidate for the caller to classify — or at the first block
    whose slope fails to improve on the previous one while still inside
    (0, 1).  Runs the pool dry otherwise.
    """
    d = build.d
    increments: list[PointIncrement] = []
    prev_kappa: float | None = None
    while True:
        inc = build.best()
        build.add(inc)
        k = kappa(build.model, d, build.d)
        increments.append(inc)
        settled = prev_kappa is not None and k <= prev_kappa + KAPPA_IMPROVEMENT_TOL
        if k >= 1 or k <= 0 or settled or not build:
            return k, tuple(increments)
        prev_kappa = k


def greedy_sweep(
    d_all: Distribution,
    cfg: SequenceConfig,
    model: ParticipationModel,
    t: ProducerTransform,
    prefix: tuple[SequenceStep, ...] = (),
) -> tuple[SequenceStep, ...]:
    """Run the plain greedy build to pool exhaustion and record each step.

    No stopping rule, no probes: this is the raw supply/participation
    curve that the optimizer's stopping logic carves a prefix out of.  The
    build stops after ``step_limit(d_all)`` steps, the seed block counting
    as one.  ``prefix`` holds leading steps already known to lie on this very
    build, such as the first ``greedy_steps`` of an ``optimize`` trace:
    they are replayed and kept as they are rather than scored again.
    """
    limit = step_limit(d_all)
    seed_len = len(cfg.seed_ids) or 1
    if len(prefix) < seed_len:
        prefix = ()  # a partial seed block is not a step of the build
    prefix = prefix[: limit + seed_len - 1]
    build = GreedyBuild(Distribution(), d_all, cfg.chunk, model, t)
    for step in prefix:
        build.add(step.added)
    steps = list(prefix)
    taken = len(prefix) - seed_len + 1 if prefix else 0
    while taken < limit and build:
        if build.d.is_empty():
            incs = seed_distribution(build, cfg)
        else:
            incs = [build.best()]
        for inc in incs:
            build.record(inc, steps)
        taken += 1
    return tuple(steps)
