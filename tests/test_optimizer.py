from __future__ import annotations

import math

import pytest

from distopt import optimizer
from distopt.core import (
    DROP_TOLERANCE,
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    combine,
    remove_subdistribution,
)
from distopt.instances import build_objects
from distopt.oracle import find_scenario_instance, generate_instance
from distopt.optimizer import (
    CROSSING_REL_TOL,
    BuildOrderError,
    CarveoutInfeasibleError,
    OptimizerConfig,
    _assert_no_dominating_extension,
    _carve_block,
    optimize,
)
from distopt.participation import ParticipationModel, actual, kappa, potential
from distopt.thresholds import (
    CONTINUE_TO_D2_STAR_THM4,
    SATURATED_CONSUMER,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    STAY_AT_D_STAR_THM2,
    UNDER_SERVED,
    EquilibriumVerdict,
)
from distopt.valuation import ValueDelta

from compare_revisions import LOOKAHEAD
from conftest import (
    FIVE_POINT,
    LADDER,
    SECOND_CROSSING,
    make_dist,
    make_instance,
)
from reference import brute_force_w_max, synthesize


def run(instance):
    pool, model, t, cfg = build_objects(instance)
    return optimize(pool, cfg, model, t), pool, model, t, cfg


#: (setting, invalid value, the error's text)
INVALID_SETTINGS = [
    ("ratio_threshold", 0.99, "ratio_threshold must be >= 1"),
    ("lookahead_steps", -1, "lookahead_steps must be >= 0"),
    ("consumer_mode", "bogus", "unknown consumer mode 'bogus'"),
    ("iota", -0.1, "iota must be >= 0, got -0.1"),
    # a chunk no heavier than DROP_TOLERANCE would be dropped as zero
    *(
        ("chunk", chunk, "chunked increments need a chunk size > 1e-09")
        for chunk in (DROP_TOLERANCE, 0.0, -0.5, math.nan)
    ),
    # a repeated seed id would install the point's weight twice
    ("seed_ids", ("a", "a"), r"seed ids \['a', 'a'\] repeat an id"),
    ("seed_ids", ("a", "b", "a"), "repeat an id"),
]


@pytest.mark.parametrize(
    "setting, value, message",
    INVALID_SETTINGS,
    ids=[f"{setting}={value}" for setting, value, _ in INVALID_SETTINGS],
)
def test_the_config_checks_every_setting(setting, value, message):
    with pytest.raises(ValueError, match=message):
        OptimizerConfig(**{setting: value})


def test_an_invalid_setting_fails_before_a_run_that_never_classifies():
    # an UnderServed run stops before it measures an extension, so a check
    # made there would never see these settings
    pool, model, t, cfg = build_objects(generate_instance("underserved", 1))
    assert optimize(pool, cfg, model, t).verdict.kind == UNDER_SERVED
    with pytest.raises(ValueError, match="unknown consumer mode 'bogus'"):
        optimize(pool, OptimizerConfig(consumer_mode="bogus", iota=-5.0), model, t)
    with pytest.raises(ValueError, match="iota must be >= 0, got -5.0"):
        optimize(pool, OptimizerConfig(iota=-5.0), model, t)


def test_an_empty_pool_is_refused():
    model = ParticipationModel.power(1.0, 0.5)
    with pytest.raises(ValueError, match="^candidate pool is empty$"):
        optimize(Distribution(), OptimizerConfig(), model, ProducerTransform.identity())


def test_five_point_reference_build():
    res, pool, model, t, _ = run(FIVE_POINT)
    assert sorted(res.d_star.ids()) == ["c2", "c3", "c4", "c5"]
    assert res.n_star == 4.0
    assert res.verdict.kind == STAY_AT_D_STAR_THM2
    assert res.verdict.is_nash and res.verdict.is_pareto
    assert res.verdict.witness is not None
    assert res.verdict.witness.kappa_r2 == pytest.approx(-0.5, rel=1e-12)
    # M(D*) = 3.5 against N* = 4
    assert res.crossing_gap == pytest.approx(0.125, rel=1e-12)


def test_declining_tail_is_walked_past_a_negative_probe():
    res, pool, model, t, _ = run(LADDER)
    assert sorted(res.d_star.ids()) == [f"p{i:02d}" for i in range(8)]
    assert res.n_star == pytest.approx(0.26 * 8, rel=1e-12)
    w_star = min(potential(model, res.d_star), res.d_star.n)
    assert w_star == pytest.approx(1.86, rel=1e-12)
    # the probe turned negative at seven points, but the walk went one
    # further and kept the higher-volume snapshot
    assert len(res.trace) == 8
    assert res.verdict.witness is not None
    assert res.verdict.witness.kappa_r2 == pytest.approx(-1 / 13, rel=1e-9)
    bf = brute_force_w_max(pool, model, t, subset_cap=12)
    assert w_star == bf.best_prefix_w


def test_pool_too_small_to_reach_a_crossing():
    res, *_ = run(make_instance([("u", 10.0, 1.0, 1.0)]))
    assert res.verdict.kind == UNDER_SERVED
    assert not res.verdict.is_nash


def test_pool_with_no_drawing_power_is_degenerate():
    points = [("z", 0.0, 1.0, 1.0), ("y", -2.0, 1.0, 0.5)]
    res, *_ = run(make_instance(points))
    assert res.verdict.kind == SATURATED_CONSUMER
    assert sorted(res.d_star.ids()) == ["z"]
    # seeded like any other pool: the seed policy and the increment size
    # hold, and the seed step counts
    seeded, *_ = run(make_instance(points, optimizer={"seed_policy": {"ids": ["y"]}}))
    assert seeded.verdict.kind == SATURATED_CONSUMER
    assert [(pt.id, w) for pt, w in seeded.d_star.items()] == [("y", 0.5)]
    assert len(seeded.trace) == 1
    chunk = {"increment_policy": {"kind": "unit_chunks", "chunk": 0.25}}
    chunked, *_ = run(make_instance(points, optimizer=chunk))
    assert [(pt.id, w) for pt, w in chunked.d_star.items()] == [("z", 0.25)]
    assert (len(chunked.trace), chunked.evaluations) == (1, 2)


def test_flat_participation_is_reported_as_saturation():
    # identical appeal everywhere: M never moves while volume piles up
    res, *_ = run(
        make_instance(
            [("a", 1.0, 1.0, 0.2), ("b", 1.0, 1.0, 0.2), ("c", 1.0, 1.0, 0.2)],
            zeta=3.0,
        )
    )
    assert res.verdict.kind == SATURATED_CONSUMER


def test_step_budget_halts_the_build():
    # in 0.01-unit chunks the ladder is still short of a conclusion after
    # ten steps per pool point, the budget of every build
    chunked = dict(
        LADDER, optimizer={"increment_policy": {"kind": "unit_chunks", "chunk": 0.01}}
    )
    pool, model, t, cfg = build_objects(chunked)
    res = optimize(pool, cfg, model, t)
    assert res.budget_exhausted
    assert len(res.trace) == 10 * len(pool)
    assert any("budget" in note for note in res.verdict.notes)


def test_runs_are_deterministic():
    first, *_ = run(LADDER)
    second, *_ = run(LADDER)
    assert sorted(first.d_star.ids()) == sorted(second.d_star.ids())
    assert first.n_star == second.n_star
    assert [s.added.point.id for s in first.trace] == [
        s.added.point.id for s in second.trace
    ]


def test_second_crossing_chain_preserves_both_values():
    chained, *_ = run(SECOND_CROSSING)
    assert chained.verdict.kind == CONTINUE_TO_D2_STAR_THM4
    assert chained.d2_star is not None
    assert sorted(chained.d2_star.ids()) == ["a", "b", "f"]
    assert chained.d2_delta_v == pytest.approx(0.0, abs=1e-9)
    assert chained.d2_delta_s == pytest.approx(0.0, abs=1e-9)
    assert chained.d2_crossing_gap <= CROSSING_REL_TOL


def test_a_value_change_across_a_valueless_climb_breaks_the_run(monkeypatch):
    # the climb to D2* adopts only zero-value mass between two exact
    # crossings, so a value change measured across it is an optimizer
    # fault, which ends the run rather than being reported
    delta_s = optimizer.delta_s
    monkeypatch.setattr(
        optimizer, "delta_s", lambda *args: ValueDelta(1.0, delta_s(*args).delta_v)
    )
    with pytest.raises(RuntimeError, match="valueless adopted mass must leave"):
        run(SECOND_CROSSING)


def test_a_lookahead_promotes_a_sub_unit_probe_block(monkeypatch):
    promoted = []
    real = optimizer._lookahead_block

    def spy(*args):
        found = real(*args)
        promoted.append(found is not None)
        return found

    monkeypatch.setattr(optimizer, "_lookahead_block", spy)
    res, pool, *_ = run(LOOKAHEAD)
    assert promoted == [True]
    assert res.verdict.kind == CONTINUE_TO_D2_STAR_THM4
    assert res.d2_star is not None
    assert dict(res.d2_star.items()) == dict(pool.items())
    # without the lookahead the probe block is adopted as Scenario i
    res, *_ = run(dict(LOOKAHEAD, optimizer={"lookahead_steps": 0}))
    assert [e.kind for e in res.events] == [SCENARIO_I_BOTH_PREFER, STAY_AT_D_STAR_THM2]
    assert res.verdict.kind == STAY_AT_D_STAR_THM2


def _searched(kind: str, seed: int, carve: bool = False) -> dict:
    found = find_scenario_instance(kind, budget=300, rng_seed=seed, require_carveout=carve)
    assert found is not None, f"no {kind} instance at seed {seed}"
    return found.instance


#: name -> builder of an instance whose D* the first-max test checks
FIRST_MAX_CASES = {
    # a carve replaces the state, and the landed state is a candidate too
    "ii-carve": lambda: _searched(SCENARIO_II_CONSUMER_PREFERS, 4, carve=True),
    "iii-carve": lambda: _searched(SCENARIO_III_PRODUCER_PREFERS, 5, carve=True),
    # the declining-tail walk records one step past D*
    "past-d-star": lambda: generate_instance("monotone", 2, 7),
    # the walk adds b, which raises W by 1e-14, within the tie tolerance:
    # D* stays at a
    "near-tie": lambda: make_instance(
        [("a", 2.0, 1.0, 1.0), ("b", 1.5, 1.0, 0.01)], zeta=0.501240694789087
    ),
    "second-crossing": lambda: SECOND_CROSSING,
    "lookahead": lambda: LOOKAHEAD,
    "d2-searched": lambda: _searched(CONTINUE_TO_D2_STAR_THM4, 0),
    "d2-searched-3": lambda: _searched(CONTINUE_TO_D2_STAR_THM4, 3),
}


@pytest.mark.parametrize("name", list(FIRST_MAX_CASES))
def test_d_star_is_the_first_max_over_every_state_reached(name, monkeypatch):
    # D* and ``d_star_steps`` are the strict first-max of W over the states
    # the first stage passed through: a later state must beat, not tie, the
    # incumbent.  The reference rebuilds those states by replaying the
    # trace, swapping in each carve's landed state where the carve was made
    instance = FIRST_MAX_CASES[name]()  # the search runs optimize too
    carved_at: list[int] = []
    stage_end: list[int] = []
    real_restart, real_stage = optimizer._Run.restart, optimizer.determine_d_star

    def restart(self, d, retired=None):
        if retired is not None:
            carved_at.append(len(self.steps))
        real_restart(self, d, retired)

    def stage(run):
        verdict = real_stage(run)
        stage_end.append(len(run.steps))
        return verdict

    monkeypatch.setattr(optimizer._Run, "restart", restart)
    monkeypatch.setattr(optimizer, "determine_d_star", stage)
    res, _, model, _, _ = run(instance)
    assert len(carved_at) == len(res.carveouts)
    if name.endswith("-carve"):
        assert res.carveouts
    if name in ("past-d-star", "near-tie"):
        assert res.d_star_steps < len(res.trace)
    if name.startswith(("d2-", "second", "lookahead")):
        assert res.d2_star is not None

    states = []
    d = Distribution()
    landed = list(zip(carved_at, (c.d_plus for c in res.carveouts)))
    for length, step in enumerate(res.trace[: stage_end[0]], start=1):
        d = apply_increment(d, step.added)
        states.append((d, length))
        while landed and landed[0][0] == length:
            d = landed.pop(0)[1]
            states.append((d, length))
    assert landed == []
    best = None
    for d, length in states:
        w = actual(model, d)
        if best is None or w > best[0] + 1e-12 * max(1.0, abs(best[0])):
            best = (w, d, length)
    _, best_d, best_length = best
    assert list(res.d_star.items()) == list(best_d.items())
    assert res.d_star_steps == best_length


# -- carveouts ---------------------------------------------------------------

CFG = OptimizerConfig()
M05 = ParticipationModel.power(1.0, 0.5)
IDENT = ProducerTransform.identity()


def test_carveout_reports_budget_infeasibility():
    base = make_dist(("hi", 1.9, 1.0, 1.3), ("lo", 0.1, 1.0, 0.02))
    ext = PointIncrement(Point("x", 3.0, 0.5), 0.4)
    with pytest.raises(CarveoutInfeasibleError):
        _carve_block(base, ext.as_distribution(), CFG, M05, IDENT)


def test_carveout_cannot_consume_the_extension_itself():
    # the base sits far past the crossing, so landing would need to carve
    # more volume than the extension brings
    base = make_dist(
        ("a", 2.2, 1.0, 0.9), ("f1", 0.6, 0.2, 0.25), ("f2", 0.55, 0.2, 0.25),
        ("f3", 0.5, 0.2, 0.25), ("f4", 0.45, 0.2, 0.25)
    )
    ext = PointIncrement(Point("x", 4.0, 0.6), 0.5)
    with pytest.raises(CarveoutInfeasibleError):
        _carve_block(base, ext.as_distribution(), CFG, M05, IDENT)


def test_carveout_needs_a_base_point_cheaper_than_the_extension():
    # every point holds the extension's c, so only rounding lifts Q past
    # the base's and puts the slope in (0, 1); no point is cheaper to carve
    base = make_dist(("b0", 2.536, 1.0, 1.03), ("b1", 2.536, 1.0, 0.156))
    block = make_dist(("x", 2.536, 1.0, 0.183))
    assert 0 < kappa(M05, base, combine(base, block)) < 1e-14
    with pytest.raises(CarveoutInfeasibleError, match="no point in the base is cheaper"):
        _carve_block(base, block, CFG, M05, IDENT)


def test_carveout_refuses_an_extension_that_already_overshoots_the_crossing():
    # with the extension, M/N is 1.19 > 1 + CROSSING_REL_TOL, and carving
    # volume out would only raise it further
    base = make_dist(("a", 1.0, 1.0, 1.0))
    block = make_dist(("x", 4.0, 1.0, 1.0))
    model = ParticipationModel.power(1.5, 0.5)
    d_prime = combine(base, block)
    assert potential(model, d_prime) > d_prime.n * (1 + CROSSING_REL_TOL)
    with pytest.raises(CarveoutInfeasibleError, match="carve overshot"):
        _carve_block(base, block, CFG, model, IDENT)


def test_carveout_passes_over_a_slab_whose_removal_overshoots():
    # after b0 goes, carving the next cheapest point, b2, would lift M/N to
    # 1.46, so the carve passes over it and lands by carving b1 instead
    base = make_dist(("b0", 0.7, 1.68, 0.18), ("b1", 2.88, -0.65, 0.38), ("b2", 2.21, 0.66, 0.94))
    block = make_dist(("x", 4.77, 1.89, 1.63))
    model = ParticipationModel.power(0.81, 0.87)
    without_b2 = make_dist(("b1", 2.88, -0.65, 0.38), ("x", 4.77, 1.89, 1.63))
    assert potential(model, without_b2) > without_b2.n * (1 + CROSSING_REL_TOL)
    carve = _carve_block(base, block, CFG, model, IDENT)
    assert carve.y.ids() == ("b0", "b1")
    assert carve.iterations == 2
    assert carve.landing_gap <= CROSSING_REL_TOL


def test_a_carve_whose_last_slab_rounds_past_its_budget_is_infeasible():
    # found by search: the producer budget P is 2.293704 and P + 1e-12
    # rounds up to 2.293704000001, which b1's one slab costs to the bit.
    # The loop's test against that rounded bound admits the slab, but the
    # re-summed slack P - 2.293704000001 is -1.00009e-12 < -1e-12, so the
    # landing is refused like any carve that costs a player value
    base = make_dist(
        ("b0", 4.636, 1.983, 0.707), ("b1", 1.328, 6.950618181821212, 0.33),
        ("b2", 1.361, 1.291, 0.062),
    )
    block = make_dist(("x", 5.611, 1.332, 1.722))
    model = ParticipationModel.power(0.927, 0.619)
    assert 0 < kappa(model, base, combine(base, block)) < 1
    with pytest.raises(
        CarveoutInfeasibleError,
        match=r"negative value: consumer_gain=\S+ producer_slack=-1\.0000\d+e-12$",
    ):
        _carve_block(base, block, CFG, model, IDENT)


def test_a_continuation_keeps_an_adopted_chunk_that_rounds_away_against_d_star():
    # D* holds 15 chunks of x, a chunk one ulp above DROP_TOLERANCE: the
    # adopted 16th chunk reads 9.99999999999999e-10 in D²* − D*, which
    # drops it, so the mass the climb added is empty.  The climb still
    # ends at its second crossing
    chunk = math.nextafter(DROP_TOLERANCE, 1.0)
    a, x = Point("a", 1.0, 1.0), Point("x", 2.0, 0.0)
    held = 0.0
    for _ in range(15):
        held += chunk
    d_star = Distribution([(a, 1.0), (x, held)])
    model = ParticipationModel.power(1.02, 1.0)
    run = optimizer._Run(
        Distribution([(a, 1.0), (x, 1.0)]), OptimizerConfig(chunk=chunk), model, IDENT
    )
    run.pending = (PointIncrement(x, chunk),)
    verdict = EquilibriumVerdict(CONTINUE_TO_D2_STAR_THM4, is_nash=True)
    verdict = optimizer.continue_to_d2_star(
        run, verdict, d_star, optimizer._gap_of(d_star, model)
    )
    assert verdict.notes == ("second crossing reached",)
    d2 = run.d2["d2_star"]
    assert d2.weight_of("x") > held
    assert remove_subdistribution(d2, d_star).is_empty()


def test_searcher_found_carveout_satisfies_its_contract():
    found = find_scenario_instance(
        SCENARIO_II_CONSUMER_PREFERS, budget=20, rng_seed=0, require_carveout=True
    )
    assert found is not None
    res = found.result
    assert res.carveouts, "searcher promised a realized carveout"
    carve = res.carveouts[-1]
    assert carve.trigger_kind == SCENARIO_II_CONSUMER_PREFERS
    assert carve.n_y > 0.0
    assert carve.iterations >= 1
    assert carve.consumer_gain >= -1e-12
    assert carve.producer_slack >= -1e-12
    assert carve.landing_gap <= 0.05 + 1e-12
    pool_ids = {str(p["id"]) for p in found.instance["points"]}
    assert set(carve.y.ids()) <= pool_ids


def test_a_carve_takes_each_candidates_producer_value_once(monkeypatch):
    # T(p) is taken once per carve candidate and used by the sort, every
    # producer-budget test and every slab's cost; the block's E(T) takes it
    # once per entry.  Taken again at each test and slab, a carve of two or
    # more slabs would pass that count
    found = find_scenario_instance(
        SCENARIO_II_CONSUMER_PREFERS, budget=20, rng_seed=0, require_carveout=True
    )
    pool, model, t, cfg = build_objects(found.instance)
    apply, carve_block = ProducerTransform.apply, optimizer._carve_block
    calls = [0]
    carves = []

    def counted_apply(self, p):
        calls[0] += 1
        return apply(self, p)

    def counted_carve(d_star, block, *args):
        calls[0] = 0
        carve = carve_block(d_star, block, *args)
        candidates = sum(1 for point, _ in d_star.items() if point.c < block.q)
        carves.append((carve.iterations, calls[0], candidates + len(block)))
        return carve

    monkeypatch.setattr(ProducerTransform, "apply", counted_apply)
    monkeypatch.setattr(optimizer, "_carve_block", counted_carve)
    optimize(pool, cfg, model, t)
    assert any(iterations >= 2 for iterations, _, _ in carves)
    for _, made, bound in carves:
        assert made <= bound


def test_dominating_extension_guard_fires():
    ctx = synthesize(
        n_r1=0.2, n_r2=0.5, tp2_ratio=1.5, c2_ratio=3.0, alpha=0.9
    )
    # a RuntimeError still, so the scenario search keeps skipping such pools
    assert issubclass(BuildOrderError, RuntimeError)
    with pytest.raises(BuildOrderError, match="build order violated$"):
        _assert_no_dominating_extension(ctx, OptimizerConfig())
    seeded = OptimizerConfig(seed_ids=("b", "a"))
    with pytest.raises(BuildOrderError, match=r"explicit seed \['b', 'a'\]"):
        _assert_no_dominating_extension(ctx, seeded)


def test_chunked_build_lands_at_least_as_high_as_full_points():
    points = [("a", 3.0, 1.0, 1.0), ("b", 2.0, 1.0, 1.0), ("c", 1.0, 1.0, 1.0)]
    chunked = make_instance(
        points,
        optimizer={"increment_policy": {"kind": "unit_chunks", "chunk": 0.25}},
    )
    plain = make_instance(points)
    r_chunk, _, model, _, _ = run(chunked)
    r_plain, *_ = run(plain)
    assert all(s.added.weight <= 0.25 + 1e-12 for s in r_chunk.trace)
    w_chunk = min(potential(model, r_chunk.d_star), r_chunk.d_star.n)
    w_plain = min(potential(model, r_plain.d_star), r_plain.d_star.n)
    # finer increments can only get closer to the crossing, never worse
    assert w_chunk >= w_plain - 1e-12
