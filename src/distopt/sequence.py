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
from typing import TYPE_CHECKING

from .core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    expected_t,
    running_sums,
    DROP_TOLERANCE,
)
from .participation import ParticipationModel, kappa, potential
from .valuation import delta_v_of_increment

if TYPE_CHECKING:
    from .optimizer import OptimizerConfig

#: a kappa sequence must rise by more than this to count as still improving
KAPPA_IMPROVEMENT_TOL = 1e-12


class ExhaustedPoolError(ValueError):
    """No candidate weight remains to extend the distribution with."""


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
    build walks its pool once.  It takes T(p) of each pool point once,
    when it is built, and keeps it with the point's offer.  Its state
    carries exact running sums (``core.running_sums``), seeded when it is
    built, so a step moves N, Q and E(T|D) by the changed entry alone.
    """

    def __init__(
        self,
        d: Distribution,
        available: Distribution,
        chunk: float | None,
        model: ParticipationModel,
        t: ProducerTransform,
    ):
        tps = {point.id: t.apply(point.p) for point, _ in available.items()}
        self.d = running_sums(d, t, tps)
        self.available = available
        self.model = model
        self.t = t
        self._cap = float("inf") if chunk is None else chunk
        #: point id -> (point, offered weight, T(p))
        self._offers: dict[str, tuple[Point, float, float]] = {}
        for point, _ in available.items():
            self._offer(point, tps[point.id])

    def _offer(self, point: Point, tp: float) -> None:
        """Recompute ``point``'s offer as available minus taken, so that a
        kept build's offers equal a fresh one's bit for bit; ``tp`` is its
        T(p)."""
        left = self.available.weight_of(point.id) - self.d.weight_of(point.id)
        if left > DROP_TOLERANCE:
            self._offers[point.id] = (point, min(self._cap, left), tp)
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

    def best(self) -> PointIncrement:
        """The value-maximizing next increment (``best_increment``)."""
        return best_increment(self)

    def add(self, inc: PointIncrement) -> None:
        """Take ``inc``, which must name a point that still has an offer."""
        tp = self._offers[inc.point.id][2]
        self.d = apply_increment(self.d, inc, tp)
        self._offer(inc.point, tp)

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
    base's N, E(T|D), Q and V are taken once per call and each offer's
    T(p) once per build, so a call costs O(|D| + offers).  A later offer
    replaces the best only by a higher score, or by an equal one and a
    smaller ``_tie_key``, which is built only then: the choice
    ``min(offers, key=(−ΔV, tie key))`` makes, ties, signed zeros and NaN
    included.  The loop keeps its own copies of two computations, each in
    the same operation order as the original: the ΔV arithmetic of
    ``valuation.delta_v_of_increment``, and the ``power`` and ``saturating``
    curves of ``ParticipationModel.m``, evaluated at each offer's mix.  A
    Python call per offer is the cost both copies save; the README gives
    the timings.  A ``table`` curve, the empty-base seed step and the
    base's V still call ``m``.
    ``test_best_increment_matches_the_per_candidate_reference`` and
    ``test_best_increment_keeps_the_exact_ties_of_swapped_values`` hold
    the copies together.  Unlike that function, the loop does not check
    that a share lies in [0, 1]: every offer outweighs ``DROP_TOLERANCE``
    and a non-empty base's N is finite and positive, so w/(N + w) cannot
    leave it.
    """
    if not build:
        raise ExhaustedPoolError("no candidate weight remains")
    d = build.d
    model = build.model
    m = model.m
    empty = d.is_empty()
    if not empty:
        n = d.n
        e = expected_t(d, build.t)
        q = d.q
        v = e * m(q)
        table = model.kind == "table"
        zeta = model.zeta
        alpha = model.alpha
        # a power curve ignores any cap it carries, as ``m`` does
        cap = model.cap if model.kind == "saturating" else float("inf")
    best = None
    for offer in build._offers.values():
        point, weight, tp = offer
        if empty:
            s = tp * m(point.c)
        else:
            # weight > DROP_TOLERANCE and 0 < n < inf, so phi lies in [0, 1]
            phi = weight / (n + weight)
            x = q + phi * (point.c - q)
            if table:
                y = m(x)
            elif x <= 0:
                y = 0.0
            else:
                # ``min(y, cap)`` bit for bit, NaN included
                y = zeta * x**alpha
                if cap < y:
                    y = cap
            s = (e + phi * (tp - e)) * y - v
        if best is None or s > best_s or (
            s == best_s and _tie_key(point, tp) < _tie_key(best[0], best[2])
        ):
            best, best_s = offer, s
    return PointIncrement(best[0], best[1])


def seed_distribution(build: GreedyBuild, cfg: OptimizerConfig) -> list[PointIncrement]:
    """Increments that install the configured seed into ``build``, whose
    state is empty: the ids in ``cfg.seed_ids``, in order, or the
    best-scoring offer when there are none."""
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
    cfg: OptimizerConfig,
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
