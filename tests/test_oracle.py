from __future__ import annotations

import dataclasses
import json
import math

import pytest

from distopt import cli, core, oracle
from distopt.instances import InstanceError, build_objects
from distopt.oracle import (
    crosscheck_thresholds,
    find_scenario_instance,
    finite_difference_facts,
    generate_instance,
)
from distopt.optimizer import BuildOrderError, OptimizationResult, optimize
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
from reference import brute_force_w_max


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


def test_the_search_refuses_a_target_it_has_no_template_for():
    with pytest.raises(ValueError, match="^no template for target 'nonsense'$"):
        find_scenario_instance("nonsense", budget=1)


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


def _realizes(found, kind: str) -> bool:
    """The found run's verdict, or one of its events, is of ``kind``."""
    result = found.result
    return kind in {result.verdict.kind} | {e.kind for e in result.events}


def test_every_outcome_kind_is_reachable_by_search():
    for kind in ALL_KINDS:
        found = find_scenario_instance(kind, budget=60, rng_seed=3)
        assert found is not None, kind
        assert _realizes(found, kind)
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
    _first_optimize_raises(
        monkeypatch,
        RuntimeError(
            "a valueless adopted mass must leave both value functions "
            "unchanged across exact crossings"
        ),
    )
    with pytest.raises(RuntimeError, match="a valueless adopted mass"):
        find_scenario_instance(SCENARIO_IV_STAY, budget=60, rng_seed=3)


@pytest.mark.parametrize(
    "error",
    [
        BuildOrderError("build order violated"),
        InstanceError("not a valid instance"),
        ZeroVolumeDeltaError("zero volume change"),
        core.UndefinedMeanError("expected producer value is undefined"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_the_search_skips_an_attempt_the_cli_reports_as_an_error(monkeypatch, error):
    calls = _first_optimize_raises(monkeypatch, error)
    found = find_scenario_instance(SCENARIO_IV_STAY, budget=60, rng_seed=3)
    assert found is not None and _realizes(found, SCENARIO_IV_STAY)
    assert len(calls) >= 2


def test_the_search_passes_over_a_match_without_the_carve_it_requires(monkeypatch):
    # the first run that reaches the target comes back with its carves
    # stripped; the search goes on to one that carved
    passed: list[OptimizationResult] = []

    def uncarved_first(*args):
        result = optimize(*args)
        kinds = {result.verdict.kind} | {e.kind for e in result.events}
        if not passed and SCENARIO_II_CONSUMER_PREFERS in kinds:
            passed.append(dataclasses.replace(result, carveouts=()))
            return passed[0]
        return result

    monkeypatch.setattr(oracle, "optimize", uncarved_first)
    found = find_scenario_instance(
        SCENARIO_II_CONSUMER_PREFERS, budget=100, rng_seed=0, require_carveout=True
    )
    assert len(passed) == 1
    assert found is not None and found.result is not passed[0]
    assert any(c.trigger_kind == SCENARIO_II_CONSUMER_PREFERS for c in found.result.carveouts)


class _ScriptedRandom:
    """Hands out the given ``uniform`` draws in order."""

    def __init__(self, draws: list[float]):
        self.draws = iter(draws)

    def uniform(self, low: float, high: float) -> float:
        return next(self.draws)


def test_the_sampler_redraws_a_context_whose_earlier_base_is_too_light():
    # alpha, n_r1, n_r2, tp2, c2: 1 - 0.6 + (-0.4) * 0.95 = 0.02 < 0.05
    light = [0.5, 0.6, 0.95, -0.4, 1.0]
    kept = [0.5, 0.3, 0.4, 0.9, 1.2]
    rng = _ScriptedRandom(light + kept)
    context = oracle._sample_context(rng)
    assert list(context.values()) == kept
    assert next(rng.draws, None) is None


def test_a_sample_on_a_decision_boundary_is_skipped_not_scored(monkeypatch):
    # tp2 = c2 = 1: the candidate moves neither Q nor E, so kappa, x_l,
    # kappa_a and x_u are all 0 and both comparisons sit on their boundary
    sample = {"alpha": 0.5, "n_r1": 0.3, "n_r2": 0.4, "tp2": 1.0, "c2": 1.0}
    monkeypatch.setattr(oracle, "_sample_context", lambda rng: dict(sample))
    report = crosscheck_thresholds(1)
    assert (report.checked, report.skipped, report.ok) == (0, 2, True)


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


def _negated(field: str):
    """A fault: ``delta_s`` with one of its two value changes negated."""

    def fault(delta_s):
        def negated(*args):
            delta = delta_s(*args)
            return dataclasses.replace(delta, **{field: -getattr(delta, field)})

        return negated

    return fault


def _one_point_potential_raised(potential):
    """M(Q(D)) x 1.5 on one-point distributions, such as the earlier base."""
    return lambda model, d: potential(model, d) * (1.5 if len(d) == 1 else 1.0)


def _limit_raised(limit):
    return lambda *args: limit(*args) + 1e-3


def _limit_reflected(limit):
    """2 f(0) - f(n2): the limit falls in the candidate's weight."""
    return lambda n_r1, n2, tp1, tp2: (
        2 * limit(n_r1, 0.0, tp1, tp2) - limit(n_r1, n2, tp1, tp2)
    )


def _limit_tp1_additive(limit):
    """f(n1, n2, 1, tp2) + (tp1 - 1) n1: the right base value for a
    non-neutral last increment, but the neutral slope."""
    return lambda n_r1, n2, tp1, tp2: limit(n_r1, n2, 1.0, tp2) + (tp1 - 1) * n_r1


def _x_l_lowered(x_l_kappa):
    """The adaptive producer threshold less 2 tp2."""

    def lowered(n_r2, tp2):
        adaptive, reactive = x_l_kappa(n_r2, tp2)
        return adaptive - 2 * tp2, reactive

    return lowered


def _x_u_raised(x_u_kappa):
    """The standard ordering limit plus 0.01 sqrt(1 - tp2)."""

    def raised(n_r1, n_r2, tp1, tp2):
        standard, adjusted = x_u_kappa(n_r1, n_r2, tp1, tp2)
        return standard + 0.01 * math.sqrt(1 - tp2), adjusted

    return raised


#: each oracle check, the library function the ``oracle`` module calls that
#: a fault is put into, and the fault, which maps that function to a
#: faulty one
FAULTS = {
    "producer_threshold_sign": ("delta_s", _negated("delta_s")),
    "carried_value_above_unit_slope": ("delta_s", _negated("delta_s")),
    "potential_value_sign": ("delta_s", _negated("delta_v")),
    "ordering_rule": ("potential", _one_point_potential_raised),
    "limit_base_value": ("viability_limit_m_ratio", _limit_raised),
    "adjusted_limit_base_value": ("viability_limit_m_ratio", _limit_raised),
    "limit_slope_positive": ("viability_limit_m_ratio", _limit_reflected),
    "limit_concavity": ("viability_limit_m_ratio", _limit_reflected),
    "limit_initial_slope_vs_unity": ("viability_limit_m_ratio", _limit_reflected),
    "adjusted_limit_slope_factor": ("viability_limit_m_ratio", _limit_tp1_additive),
    "window_narrows_in_tp2": ("x_l_kappa", _x_l_lowered),
    "window_collapse_monotone": ("x_l_kappa", _x_l_lowered),
    "window_collapse_limit": ("x_l_kappa", _x_l_lowered),
    "window_narrowing_slows": ("x_u_kappa", _x_u_raised),
}

#: the checks ``crosscheck_thresholds`` makes; ``finite_difference_facts``
#: makes the others
SAMPLED_CHECKS = {
    "producer_threshold_sign",
    "carried_value_above_unit_slope",
    "potential_value_sign",
    "ordering_rule",
}


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_each_oracle_check_reports_a_fault_under_its_own_name(monkeypatch, check):
    name, fault = FAULTS[check]
    monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
    if check in SAMPLED_CHECKS:
        report = crosscheck_thresholds(2000)
    else:
        report = finite_difference_facts(20)
    assert check in {record["check"] for record in report.mismatches}
    assert not report.ok


def test_a_failed_check_fails_oracle_check(monkeypatch, tmp_path):
    name, fault = FAULTS["producer_threshold_sign"]
    monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
    out = tmp_path / "oracle.json"
    argv = ["oracle-check", "--samples", "200", "--grid", "8", "--output", str(out)]
    assert cli.main(argv) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False
    records = {r["check"]: r for r in report["threshold_crosscheck"]["mismatches"]}
    record = records["producer_threshold_sign"]
    assert set(record) == {"check", "sample", "params", "kappa", "x_l", "delta_s"}
    assert report["finite_difference"]["mismatches"] == []


def test_a_grid_too_small_ends_oracle_check_before_the_cross_check(monkeypatch, capsys):
    called = []
    monkeypatch.setattr(oracle, "crosscheck_thresholds", lambda *a: called.append(a))
    assert cli.main(["oracle-check", "--grid", "1"]) == 1
    assert capsys.readouterr().err == "error: grid size must be at least 2, got 1\n"
    assert called == []
