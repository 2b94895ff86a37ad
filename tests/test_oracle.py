from __future__ import annotations

import math

import pytest

from distopt import core, oracle
from distopt.instances import InstanceError, build_objects
from distopt.oracle import (
    brute_force_w_max,
    crosscheck_thresholds,
    find_scenario_instance,
    finite_difference_facts,
    generate_instance,
)
from distopt.optimizer import BuildOrderError, optimize
from distopt.participation import ZeroVolumeDeltaError, potential
from distopt.thresholds import (
    CONTINUE_TO_D2_STAR_THM4,
    SATURATED_CONSUMER,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    SCENARIO_IV_STAY,
    STAY_AT_D_STAR_THM2,
    UNDER_SERVED,
)

from conftest import make_instance


ALL_KINDS = (
    STAY_AT_D_STAR_THM2,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    SCENARIO_IV_STAY,
    CONTINUE_TO_D2_STAR_THM4,
    UNDER_SERVED,
    SATURATED_CONSUMER,
)


def run_instance(instance: dict):
    """The whole pipeline on an instance dict."""
    pool, model, t, cfg = build_objects(instance)
    return optimize(pool, cfg, model, t)


def test_single_point_brute_force():
    pool, model, t, _ = build_objects(make_instance([("a", 3.0, 1.0, 1.0)]))
    bf = brute_force_w_max(pool, model, t)
    assert bf.best_prefix_w == 1.0
    assert bf.best_subset_w == 1.0
    assert bf.greedy_order == ("a",)


def test_brute_force_subset_cap():
    pts = [(f"p{i}", 2.0 + i * 0.01, 1.0, 0.5) for i in range(6)]
    pool, model, t, _ = build_objects(make_instance(pts))
    bf = brute_force_w_max(pool, model, t, subset_cap=3)
    assert math.isnan(bf.best_subset_w), "subset search is skipped above the cap"
    assert len(bf.prefix_ws) == 6


def test_prefix_maximum_never_beats_subset_maximum():
    for seed in range(10):
        inst = generate_instance("uniform", seed, size=7)
        pool, model, t, _ = build_objects(inst)
        bf = brute_force_w_max(pool, model, t)
        assert bf.best_prefix_w <= bf.best_subset_w + 1e-12


def test_sampled_threshold_rules_have_no_mismatches():
    report = crosscheck_thresholds(1500, rng_seed=4242)
    assert report.mismatches == ()
    assert report.checked >= 1500


def test_finite_difference_signs_have_no_mismatches():
    report = finite_difference_facts(12)
    assert report.mismatches == ()
    assert report.checked > 0


def test_generators_are_deterministic():
    for profile in ("uniform", "monotone", "underserved", "saturated"):
        a = generate_instance(profile, 17)
        b = generate_instance(profile, 17)
        assert a == b, profile
        assert a != generate_instance(profile, 18), profile


def test_generator_rejects_unknown_profiles():
    with pytest.raises(ValueError):
        generate_instance("nonsense", 0)


def test_profile_shapes_classify_as_advertised():
    assert run_instance(generate_instance("underserved", 5)).verdict.kind == UNDER_SERVED
    assert (
        run_instance(generate_instance("saturated", 5)).verdict.kind
        == SATURATED_CONSUMER
    )


def test_monotone_profile_tracks_the_brute_force_peak_exactly():
    for seed in range(40):
        inst = generate_instance("monotone", seed, size=4 + seed % 9)
        pool, model, t, _ = build_objects(inst)
        res = run_instance(inst)
        got = min(potential(model, res.d_star), res.d_star.n)
        bf = brute_force_w_max(pool, model, t, subset_cap=0)
        assert got == bf.best_prefix_w, f"seed {seed}"


def test_every_outcome_kind_is_reachable_by_search():
    for kind in ALL_KINDS:
        found = find_scenario_instance(kind, budget=60, rng_seed=3)
        assert found is not None, kind
        assert found.kind == kind
        # replaying the instance reproduces the verdict
        assert run_instance(found.instance).verdict.kind == kind


def test_search_gives_up_within_budget():
    assert find_scenario_instance(STAY_AT_D_STAR_THM2, budget=0) is None


def _first_optimize_raises(monkeypatch, error: Exception) -> list[int]:
    """Make the search's first ``optimize`` call raise ``error``; the
    returned list counts the calls."""
    calls: list[int] = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 1:
            raise error
        return optimize(*args)

    monkeypatch.setattr(oracle, "optimize", flaky)
    return calls


def test_the_search_surfaces_a_broken_optimizer_invariant(monkeypatch):
    # a broken invariant is a fault of the optimizer, not a miss of the
    # search, so it is not skipped like an attempt the CLI reports
    _first_optimize_raises(monkeypatch, RuntimeError("a landed carve must fit both budgets"))
    with pytest.raises(RuntimeError, match="must fit both budgets"):
        find_scenario_instance(SCENARIO_IV_STAY, budget=60, rng_seed=3)


@pytest.mark.parametrize(
    "error",
    [
        BuildOrderError("build order violated"),
        InstanceError("not a valid instance"),
        ZeroVolumeDeltaError("zero volume change"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_the_search_skips_an_attempt_the_cli_reports_as_an_error(monkeypatch, error):
    calls = _first_optimize_raises(monkeypatch, error)
    found = find_scenario_instance(SCENARIO_IV_STAY, budget=60, rng_seed=3)
    assert found is not None and found.kind == SCENARIO_IV_STAY
    assert len(calls) >= 2


def test_scenario_generation_goes_through_the_search():
    inst = generate_instance(f"scenario:{SCENARIO_IV_STAY}", 2)
    assert run_instance(inst).verdict.kind == SCENARIO_IV_STAY


def test_crosscheck_validates_only_the_distributions_it_builds(monkeypatch):
    # each sample builds d_a and D* from its sampled weights; every other
    # distribution is derived from those and is not validated again
    builds = 0
    init = core.Distribution.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.Distribution, "__init__", counted)
    report = crosscheck_thresholds(200)
    assert report.ok
    assert builds <= 2 * 200, f"{builds / 200:.2f} validating builds per sample"
