from __future__ import annotations

import pytest

from distopt import optimizer
from distopt.core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
)
from distopt.instances import build_objects
from distopt.oracle import brute_force_w_max, find_scenario_instance, generate_instance
from distopt.optimizer import (
    CROSSING_REL_TOL,
    BuildOrderError,
    CarveoutInfeasibleError,
    OptimizerConfig,
    _assert_no_dominating_extension,
    _carve_block,
    optimize,
)
from distopt.participation import ParticipationModel, actual, potential
from distopt.sequence import SequenceConfig
from distopt.thresholds import (
    CONTINUE_TO_D2_STAR_THM4,
    SATURATED_CONSUMER,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    STAY_AT_D_STAR_THM2,
    UNDER_SERVED,
    ExtensionContext,
)

from conftest import (
    FIVE_POINT,
    LADDER,
    LOOKAHEAD,
    SECOND_CROSSING,
    make_dist,
    make_instance,
)


def run(instance):
    pool, model, t, cfg = build_objects(instance)
    return optimize(pool, cfg, model, t), pool, model, t, cfg


def test_five_point_reference_build():
    res, pool, model, t, _ = run(FIVE_POINT)
    assert sorted(res.d_star.ids()) == ["c2", "c3", "c4", "c5"]
    assert res.n_star == 4.0
    assert res.verdict.kind == STAY_AT_D_STAR_THM2
    assert res.verdict.is_nash and res.verdict.is_pareto
    assert res.verdict.witness is not None
    assert res.verdict.witness.context.kappa_r2 == pytest.approx(-0.5, rel=1e-12)
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
    assert res.verdict.witness.context.kappa_r2 == pytest.approx(-1 / 13, rel=1e-9)
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
    assert seeded.steps == len(seeded.trace) == 1
    chunk = {"increment_policy": {"kind": "unit_chunks", "chunk": 0.25}}
    chunked, *_ = run(make_instance(points, optimizer=chunk))
    assert [(pt.id, w) for pt, w in chunked.d_star.items()] == [("z", 0.25)]
    assert (chunked.steps, chunked.evaluations) == (1, 2)


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
    assert res.steps == 10 * len(pool)
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

CFG = OptimizerConfig(sequence=SequenceConfig())
M05 = ParticipationModel.power(1.0, 0.5)
IDENT = ProducerTransform.identity()


def test_carveout_requires_a_fractional_slope():
    base = make_dist(("a", 2.0, 1.0, 1.0))
    steep = PointIncrement(Point("x", 50.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        _carve_block(
            base, steep.as_distribution(), CFG, ParticipationModel.power(1.0, 1.0), IDENT
        )


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


def test_dominating_extension_guard_fires():
    ctx = ExtensionContext.synthesize(
        n_r1=0.2, n_r2=0.5, tp2_ratio=1.5, c2_ratio=3.0, alpha=0.9
    )
    # a RuntimeError still, so the scenario search keeps skipping such pools
    assert issubclass(BuildOrderError, RuntimeError)
    with pytest.raises(BuildOrderError, match="build order violated$"):
        _assert_no_dominating_extension(ctx, SequenceConfig())
    seeded = SequenceConfig(seed_ids=("b", "a"))
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
