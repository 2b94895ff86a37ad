"""The crossing-seeking optimizer and its carveout synthesizer.

``optimize`` runs the whole mechanism.  Its first stage,
``determine_d_star``, grows a distribution greedily while potential
participation outruns volume, then probes the best extension past the
crossing and acts on its classification: adopt extensions both players
want, carve compensation out of disagreements when feasible, stop when
the crossing is the equilibrium; when participation keeps pace with
volume, ``continue_to_d2_star`` carries the same run on to D²*.  Each
stage returns the verdict it stops at, and ``optimize`` builds the one
result from the run.

Instances whose crossing is never reached are reported as degenerate:
``UnderServed`` when the pool runs out with demand still above supply,
``SaturatedConsumer`` when participation is pinned flat.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .core import (
    DROP_TOLERANCE,
    Distribution,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    combine,
    expected_t,
    remove_subdistribution,
)
from .participation import ParticipationModel, actual, kappa, potential
from .sequence import (
    GreedyBuild,
    SequenceStep,
    best_next_in_sequence,
    seed_distribution,
    step_limit,
)
from .thresholds import (
    ADAPTIVE,
    CONTINUE_TO_D2_STAR_THM4,
    REACTIVE,
    SATURATED_CONSUMER,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    STAY_AT_D_STAR_THM2,
    UNDER_SERVED,
    DegenerateContextError,
    EquilibriumVerdict,
    ExtensionContext,
    classify,
)
from .valuation import delta_s

log = logging.getLogger("distopt.optimizer")

#: participation spreads below this (relative) count as a flat curve
FLAT_PARTICIPATION_TOL = 1e-9

#: the relative |M − N| gap a carve must land within to count as "at the
#: crossing"
CROSSING_REL_TOL = 0.05


class CarveoutInfeasibleError(ValueError):
    """No carve of the crossing distribution can balance the extension."""


@dataclass(frozen=True)
class OptimizerConfig:
    """The instance's optimizer settings, checked once, here.

    ``ratio_threshold`` is the demand/supply ratio below which growth
    stops and probing starts; ``lookahead_steps`` bounds how far a probe
    block may be extended in search of participation that keeps pace
    with volume; ``iota`` and ``consumer_mode`` set the consumer's side of
    the threshold algebra.  An empty distribution starts from the ids in
    ``seed_ids``, in order, or from the best-scoring point when there are
    none.  Increments take at most ``chunk`` of a point's remaining
    weight, or all of it when ``chunk`` is None; a chunk must outweigh
    ``DROP_TOLERANCE``, below which a distribution drops a weight.
    """

    ratio_threshold: float = 1.05
    lookahead_steps: int = 5
    iota: float = 0.1
    consumer_mode: str = ADAPTIVE
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
        if self.ratio_threshold < 1.0:
            raise ValueError("ratio_threshold must be >= 1")
        if self.lookahead_steps < 0:
            raise ValueError("lookahead_steps must be >= 0")
        if self.consumer_mode not in (ADAPTIVE, REACTIVE):
            raise ValueError(f"unknown consumer mode {self.consumer_mode!r}")
        if self.iota < 0:
            raise ValueError(f"iota must be >= 0, got {self.iota!r}")


@dataclass(frozen=True)
class CarveoutResult:
    """A compensating carve: remove y, keep the extension.

    ``consumer_gain`` is the consumer-value budget the carve left on the
    table (>= 0: the consumer strictly keeps the extension's value);
    ``producer_slack`` is the producer-value budget left (>= 0: the carve
    costs the producer less than the extension brings).
    """

    y: Distribution
    d_plus: Distribution
    r2: Distribution
    n_y: float
    consumer_gain: float
    producer_slack: float
    landing_gap: float
    iterations: int
    trigger_kind: str = ""


@dataclass(frozen=True)
class OptimizationResult:
    d_star: Distribution
    #: the run's steps; a step's position in it is its report ``j``
    trace: tuple[SequenceStep, ...]
    verdict: EquilibriumVerdict
    crossing_gap: float
    #: leading ``trace`` steps that built D*; the trace may run past it
    d_star_steps: int
    d2_star: Distribution | None = None
    carveouts: tuple[CarveoutResult, ...] = ()
    events: tuple[EquilibriumVerdict, ...] = ()
    d2_delta_v: float | None = None
    d2_delta_s: float | None = None
    d2_crossing_gap: float | None = None
    budget_exhausted: bool = False
    evaluations: int = 0
    #: leading ``trace`` steps, up to the one that reached D* (D²* after a
    #: continuation), that the plain greedy build from the seed takes too;
    #: ``greedy_sweep`` resumes from them instead of scoring them again
    greedy_steps: int = 0
    #: why the carve the final verdict recommends could not be made
    carve_failure: str | None = None

    @property
    def n_star(self) -> float:
        return self.d_star.n


def _gap_of(d: Distribution, model: ParticipationModel) -> float:
    m = potential(model, d)
    n = d.n
    top = max(abs(m), abs(n))
    return abs(m - n) / top


class BuildOrderError(RuntimeError):
    """An adopted extension beats the crossing on both value and
    participation, which the greedy build order rules out."""


def _assert_no_dominating_extension(
    ctx: ExtensionContext, cfg: OptimizerConfig
) -> None:
    """An adopted extension must not beat the crossing on both axes.

    Under greedy order a candidate that raises both the mean producer
    value and potential participation would have been accepted earlier,
    so adopting one now means the build order was violated.  An explicit
    seed block need not follow that order; the error names it.
    """
    if (
        ctx.tp2_ratio > 1.0 + 1e-9
        and ctx.m_r2_ratio > ctx.m_star_ratio + 1e-9
    ):
        message = (
            "adopted extension dominates the crossing prefix on both value "
            "and participation; build order violated"
        )
        if cfg.seed_ids:
            message += (
                "; the build starts from the explicit seed "
                f"{list(cfg.seed_ids)}, which need not follow the greedy order"
            )
        raise BuildOrderError(message)


def extension_verdict(
    d_star: Distribution,
    r1: PointIncrement,
    block: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
    cfg: OptimizerConfig,
) -> tuple[EquilibriumVerdict, ExtensionContext | None]:
    """Measure the extension ``block`` past the crossing ``d_star``, which
    the step ``r1`` reached (a run's seed is a step), and classify it.

    A crossing context without a usable ratio scale, in the measurement or
    in a threshold's denominator, reads as an indeterminate stay.  The
    context is None only when the measurement itself failed.
    """
    ctx = None
    try:
        ctx = ExtensionContext.from_run(
            d_star,
            r1,
            block,
            model,
            t,
            iota=cfg.iota,
            consumer_mode=cfg.consumer_mode,
        )
        return classify(ctx), ctx
    except DegenerateContextError as exc:
        verdict = EquilibriumVerdict(
            STAY_AT_D_STAR_THM2,
            is_nash=True,
            indeterminate=True,
            notes=(f"crossing context degenerate: {exc}",),
        )
        return verdict, ctx


class _Run:
    """Mutable state for one optimizer run.

    ``chain`` counts the leading trace steps that lie on the plain greedy
    build from the seed (``greedy_sweep``'s): each is the best increment
    from the state the one before it left, over the whole pool.  It stops
    growing once a carve retires weight and replaces the current state.
    ``best`` is the state of greatest W the run has reached, with its W
    and the trace length that reached it; a later state replaces it only
    by beating it, not by tying it.
    ``steps`` is the trace, whose first step is the seed.
    ``pending`` holds the block a ``ContinueToD2Star`` verdict adopts;
    ``carve_failure`` says why a recommended carve could not be made;
    ``d2`` holds the ``OptimizationResult`` fields of a second crossing.
    """

    def __init__(
        self,
        d_all: Distribution,
        cfg: OptimizerConfig,
        model: ParticipationModel,
        t: ProducerTransform,
    ):
        self.d_all = d_all
        self.cfg = cfg
        self.model = model
        self.t = t
        self.build = GreedyBuild(Distribution(), d_all, cfg.chunk, model, t)
        self.steps: list[SequenceStep] = []
        self.best: tuple[float, Distribution, int] | None = None
        self.events: list[EquilibriumVerdict] = []
        self.carveouts: list[CarveoutResult] = []
        self.pending: tuple[PointIncrement, ...] = ()
        self.carve_failure: str | None = None
        self.d2: dict = {}
        self.evaluations = 0
        self.chain = 0
        self.budget = step_limit(d_all)
        self.budget_exhausted = False

    # -- bookkeeping ------------------------------------------------------

    @property
    def current(self) -> Distribution:
        return self.build.d

    def reached(self) -> None:
        """Weigh the current state against the best one so far."""
        w = actual(self.model, self.current)
        if self.best is None or w > self.best[0] + 1e-12 * max(1.0, abs(self.best[0])):
            self.best = (w, self.current, len(self.steps))

    def next_increment(self) -> PointIncrement:
        """The best increment from the current state; each candidate scored
        counts as one evaluation."""
        self.evaluations += len(self.build)
        return self.build.best()

    def record_step(self, inc: PointIncrement) -> None:
        on_chain = self.chain == len(self.steps) and self.build.available is self.d_all
        self.build.record(inc, self.steps)
        if on_chain:
            self.chain += 1
        self.reached()

    def restart(self, d: Distribution, retired: Distribution | None = None) -> None:
        """Go on from state ``d``; carved weight ``retired`` is never re-added."""
        available = self.build.available
        if retired is not None:
            available = remove_subdistribution(available, retired)
        self.build = GreedyBuild(d, available, self.cfg.chunk, self.model, self.t)

    def out_of_budget(self) -> bool:
        return len(self.steps) >= self.budget

    def grow(self) -> None:
        """Record best increments while demand outruns supply, within the
        step budget and the pool."""
        while (
            self.ratio() > self.cfg.ratio_threshold
            and not self.out_of_budget()
            and self.build
        ):
            self.record_step(self.next_increment())

    def walk_declining_tail(self) -> None:
        """Extend the trace while additions still raise min(M, N).

        Mass that repels participation can still lift actual
        participation while volume sits under potential, so the
        volume-maximizing prefix may lie a few increments past the point
        where the probe turned non-positive.  Walking until the first
        non-improving increment lets the best state see both sides of
        the discrete crossing.
        """
        while not self.out_of_budget() and self.build:
            inc = self.next_increment()
            w_now = actual(self.model, self.current)
            w_next = actual(self.model, apply_increment(self.current, inc))
            if w_next <= w_now:
                break
            self.record_step(inc)

    def ratio(self) -> float:
        return potential(self.model, self.current) / self.current.n

    def best_snapshot(self) -> tuple[Distribution, int]:
        """The state of greatest W and the trace length that reached it;
        the seed makes the first state."""
        _, d, length = self.best
        return d, length


def _flat_participation(steps: list[SequenceStep]) -> bool:
    ms = [s.m_after for s in steps]
    if len(ms) < 2:
        # one sample has no spread; don't call the curve flat on no evidence
        return False
    spread = max(ms) - min(ms)
    return spread <= FLAT_PARTICIPATION_TOL * max(1.0, max(abs(m) for m in ms))


def _exhaustion_verdict(run: _Run) -> EquilibriumVerdict:
    if run.ratio() > run.cfg.ratio_threshold:
        if _flat_participation(run.steps):
            return EquilibriumVerdict(
                SATURATED_CONSUMER,
                is_nash=False,
                notes=(
                    "participation is pinned flat above supply; "
                    "volume, not appeal, is the binding constraint",
                ),
            )
        return EquilibriumVerdict(
            UNDER_SERVED,
            is_nash=False,
            notes=(
                "pool exhausted with demand still above supply; "
                "no crossing exists for this pool",
            ),
        )
    if run.events:
        return run.events[-1]
    return EquilibriumVerdict(
        STAY_AT_D_STAR_THM2,
        is_nash=True,
        notes=("pool exhausted at the crossing; nothing left to extend",),
    )


def _lookahead_block(
    run: _Run, build: GreedyBuild, increments: tuple[PointIncrement, ...]
) -> tuple[Distribution, tuple[PointIncrement, ...]] | None:
    """Extend a sub-unit probe block of ``increments`` looking for slope
    >= 1, going on with the probe's ``build``."""
    incs = list(increments)
    for _ in range(run.cfg.lookahead_steps):
        if not build:
            return None
        run.evaluations += len(build)
        inc = build.best()
        build.add(inc)
        incs.append(inc)
        k = kappa(run.model, run.current, build.d)
        if k >= 1:
            return (
                remove_subdistribution(build.d, run.current),
                tuple(incs),
            )
        if k <= 0:
            return None
    return None


def determine_d_star(run: _Run) -> EquilibriumVerdict:
    """Find the crossing distribution and classify what lies beyond it.

    Grows ``run`` from its seed to the crossing, probes the best extension
    past it, and acts on the verdict: adopts an extension both players
    want, carves for a disagreement, or stops.  Returns the verdict the
    run stops at; a ``ContinueToD2Star`` verdict leaves the adopted block
    pending on ``run`` for ``continue_to_d2_star``.
    """
    d_all, cfg, model, t = run.d_all, run.cfg, run.model, run.t
    if d_all.is_empty():
        raise ValueError("candidate pool is empty")
    run.evaluations += len(run.build)
    for inc in seed_distribution(run.build, cfg):
        run.record_step(inc)
    if all(point.c <= 0 for point, _ in d_all.items()):
        # nothing can draw participation: M(Q) = 0 for every subset
        return EquilibriumVerdict(
            SATURATED_CONSUMER,
            is_nash=False,
            notes=("no point has positive consumer value; participation is zero",),
        )

    while True:
        run.grow()
        if run.out_of_budget():
            run.budget_exhausted = True
            last = (
                run.events[-1]
                if run.events
                else EquilibriumVerdict(
                    STAY_AT_D_STAR_THM2,
                    is_nash=False,
                    notes=("step budget exhausted before a conclusion",),
                )
            )
            return replace(last, notes=last.notes + ("step budget exhausted",))
        if not run.build:
            return _exhaustion_verdict(run)

        # at the crossing: probe the best extension
        build = run.build.copy()
        k, increments = best_next_in_sequence(build)
        run.evaluations += len(run.build) + len(increments) - 1
        block = Distribution([(inc.point, inc.weight) for inc in increments])
        r1 = run.steps[-1].added  # the seed is a step, so there is one
        verdict, ctx = extension_verdict(run.current, r1, block, model, t, cfg)

        if ctx is not None and 0 < k < 1:
            promoted = _lookahead_block(run, build, increments)
            if promoted is not None:
                big_block, big_incs = promoted
                big_verdict, _ = extension_verdict(
                    run.current, r1, big_block, model, t, cfg
                )
                if big_verdict.kind == CONTINUE_TO_D2_STAR_THM4:
                    verdict, increments = big_verdict, big_incs
        run.events.append(verdict)

        if verdict.kind == SCENARIO_I_BOTH_PREFER:
            _assert_no_dominating_extension(ctx, cfg)
            for inc in increments:
                run.record_step(inc)
            log.debug("adopted extension both players prefer (k=%.6g)", k)
            continue

        if verdict.kind in (
            SCENARIO_II_CONSUMER_PREFERS,
            SCENARIO_III_PRODUCER_PREFERS,
        ):
            try:
                carve = _carve_block(run.current, block, cfg, model, t)
            except CarveoutInfeasibleError as exc:
                run.carve_failure = str(exc)
                note = f"carveout infeasible: {exc}"
                return replace(verdict, notes=verdict.notes + (note,))
            _assert_no_dominating_extension(ctx, cfg)
            run.carveouts.append(replace(carve, trigger_kind=verdict.kind))
            for inc in increments:
                run.record_step(inc)
            run.restart(carve.d_plus, carve.y)
            run.reached()
            log.debug(
                "carved %.6g volume to balance extension (k=%.6g)",
                carve.n_y,
                k,
            )
            continue

        if verdict.kind == CONTINUE_TO_D2_STAR_THM4:
            run.pending = increments
        elif k <= 0 and ctx is not None:
            # past a measured crossing, volume may still peak down the tail
            run.walk_declining_tail()
        # otherwise StayAtDStar or Scenario iv: the crossing is the equilibrium
        return verdict


def optimize(
    d_all: Distribution,
    cfg: OptimizerConfig,
    model: ParticipationModel,
    t: ProducerTransform,
) -> OptimizationResult:
    """Run the whole mechanism on a candidate pool.

    Builds to the crossing D* and classifies the best extension past it,
    carving along the way where that is called for
    (``determine_d_star``); on a ``ContinueToD2Star`` verdict, goes on to
    the second crossing D²* (``continue_to_d2_star``), in the same run.
    D* is fixed when the first stage stops, and the result is built from
    the run when the last one does.
    """
    run = _Run(d_all, cfg, model, t)
    verdict = determine_d_star(run)
    d_star, d_star_steps = run.best_snapshot()
    # counted no further than D*, so that a continuation from an earlier
    # state than the last sees that it leaves the chain
    run.chain = min(run.chain, d_star_steps)
    crossing_gap = _gap_of(d_star, model)
    if verdict.kind == CONTINUE_TO_D2_STAR_THM4:
        verdict = continue_to_d2_star(run, verdict, d_star, crossing_gap)
    return OptimizationResult(
        d_star=d_star,
        trace=tuple(run.steps),
        verdict=verdict,
        crossing_gap=crossing_gap,
        d_star_steps=d_star_steps,
        carveouts=tuple(run.carveouts),
        events=tuple(run.events),
        budget_exhausted=run.budget_exhausted,
        evaluations=run.evaluations,
        greedy_steps=run.chain,
        carve_failure=run.carve_failure,
        **run.d2,
    )


def _carve_block(
    d_star: Distribution,
    block: Distribution,
    cfg: OptimizerConfig,
    model: ParticipationModel,
    t: ProducerTransform,
) -> CarveoutResult:
    """Balance a sub-unit extension by carving cheap mass out of the base.

    Preconditions: the extension ``block``'s marginal participation lies
    strictly inside (0, 1), as the Scenario ii or iii verdict that calls
    the carve measured it.  The carve removes the lowest-consumer-value
    points whose cumulative consumer and producer value stay within what
    the extension brings, until volume meets potential participation
    within ``CROSSING_REL_TOL``.  Raises ``CarveoutInfeasibleError`` when
    no such carve exists; never returns a violating carve.
    """
    d_prime = combine(d_star, block)
    w_r2 = block.n
    c_r2 = block.q
    t_r2 = expected_t(block, t)
    consumer_budget = c_r2 * w_r2
    producer_budget = t_r2 * w_r2

    candidates = sorted(
        (
            (point, weight, t.apply(point.p))
            for point, weight in d_star.items()
            if point.c < c_r2
        ),
        key=lambda pwt: (pwt[0].c, pwt[2], pwt[0].id),
    )
    if not candidates:
        raise CarveoutInfeasibleError(
            "no point in the base is cheaper than the extension"
        )

    chunk = cfg.chunk
    bound = sum(
        (1 if chunk is None else max(1, math.ceil(w / chunk)))
        for _, w, _ in candidates
    )

    taken: dict[str, float] = {}
    slabs: list[tuple[float, float, float]] = []  # (w, w·c, w·T(p)) carved
    cur = d_prime
    tol = CROSSING_REL_TOL
    while _gap_of(cur, model) > tol:
        m_cur = potential(model, cur)
        if m_cur > cur.n * (1.0 + tol):
            raise CarveoutInfeasibleError(
                "carve overshot: potential participation exceeds volume"
            )
        if len(slabs) >= bound:
            raise CarveoutInfeasibleError(
                "iteration bound reached before volume met participation"
            )
        s_c = math.fsum(c for _, c, _ in slabs)
        s_t = math.fsum(tw for _, _, tw in slabs)
        for point, weight, tp in candidates:
            left = weight - taken.get(point.id, 0.0)
            if left <= 1e-12:
                continue
            w_x = left if chunk is None else min(chunk, left)
            if s_c + w_x * point.c > consumer_budget + 1e-12:
                continue
            if s_t + w_x * tp > producer_budget + 1e-12:
                continue
            shrunk = remove_subdistribution(
                cur, Distribution([(point, w_x)])
            )
            if potential(model, shrunk) > shrunk.n * (1.0 + tol):
                # removing this slab would push demand past supply
                continue
            break
        else:
            raise CarveoutInfeasibleError(
                "no admissible point: every remaining carve either busts a "
                "budget or overshoots the crossing"
            )
        cur = shrunk
        taken[point.id] = taken.get(point.id, 0.0) + w_x
        slabs.append((w_x, w_x * point.c, w_x * tp))
        # so a landed carve is lighter than the extension: its n_y (below)
        # is this sum, left under the rounded w_r2 - 1e-12, which rounding
        # (monotone) keeps at most w_r2 = N(block), finite and > 0, also
        # where the 1e-12 rounds away; with no carve, n_y is 0.0 < w_r2
        if math.fsum(w for w, _, _ in slabs) >= w_r2 - 1e-12:
            raise CarveoutInfeasibleError(
                "carve volume reached the extension's own volume before landing"
            )

    y = Distribution(
        [(d_star.point_of(pid), w) for pid, w in taken.items()]
    )
    n_y = math.fsum(w for w, _, _ in slabs)
    gap_budget = d_prime.n - potential(model, d_prime)
    if n_y > gap_budget + 1e-9 * max(1.0, abs(gap_budget)):
        raise CarveoutInfeasibleError(
            "carve volume exceeded the extension's participation gap"
        )
    consumer_gain = consumer_budget - math.fsum(c for _, c, _ in slabs)
    producer_slack = producer_budget - math.fsum(tw for _, _, tw in slabs)
    if not (consumer_gain >= -1e-12 and producer_slack >= -1e-12):
        raise CarveoutInfeasibleError(
            "the landing brings a player negative value: "
            f"consumer_gain={consumer_gain!r} producer_slack={producer_slack!r}"
        )
    return CarveoutResult(
        y=y,
        d_plus=cur,
        r2=block,
        n_y=n_y,
        consumer_gain=consumer_gain,
        producer_slack=producer_slack,
        landing_gap=_gap_of(cur, model),
        iterations=len(slabs),
    )


def continue_to_d2_star(
    run: _Run, verdict: EquilibriumVerdict, d_star: Distribution, crossing_gap: float
) -> EquilibriumVerdict:
    """Resume past a keeps-pace extension and find the farther crossing.

    Carries on ``run``, which ``determine_d_star`` stopped at the
    ``ContinueToD2Star`` ``verdict``: from D*, whose own gap is
    ``crossing_gap``, adopts the pending block, grows greedily until demand
    again meets supply, and keeps on ``run`` the farther crossing with the
    value changes it realized relative to the first one.  Returns the
    verdict with a note of how the climb ended.  When the adopted mass
    carries (to the producer) no value of its own, both changes are zero
    to numerical precision, and this is checked.
    """
    model, t = run.model, run.t
    run.restart(d_star)
    run.budget = len(run.steps) + step_limit(run.d_all)  # a budget of its own
    for inc in run.pending:
        run.record_step(inc)
    run.grow()
    if run.ratio() > run.cfg.ratio_threshold:
        note = "pool exhausted before a second crossing"
        return replace(verdict, notes=verdict.notes + (note,))

    d2 = run.current
    delta = delta_s(d_star, d2, model, t)
    dv, ds = delta.delta_v, delta.delta_s
    added = remove_subdistribution(d2, d_star)
    h = expected_t(added, t) if not added.is_empty() else 0.0
    scale = max(1.0, abs(expected_t(d_star, t)) * d_star.n)
    d2_gap = _gap_of(d2, model)
    # with valueless added mass both value functions are pinned by the
    # crossings themselves, so when those are exact the deltas must vanish;
    # at discrete (gapped) crossings the realized deltas are diagnostics
    exact_crossings = crossing_gap <= 1e-9 and d2_gap <= 1e-9
    if exact_crossings and abs(h) <= 1e-12 * max(1.0, abs(expected_t(d_star, t))):
        if not (abs(dv) < 1e-9 * scale and abs(ds) < 1e-9 * scale):
            raise RuntimeError(
                "a valueless adopted mass must leave both value functions "
                f"unchanged across exact crossings; got delta_v={dv!r} delta_s={ds!r}"
            )
    run.d2 = dict(
        d2_star=d2, d2_delta_v=dv, d2_delta_s=ds, d2_crossing_gap=d2_gap
    )
    return replace(verdict, notes=verdict.notes + ("second crossing reached",))
