from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distopt.core import Distribution, Point, PointIncrement, ProducerTransform
from distopt.participation import ParticipationModel
from distopt.thresholds import (
    ADAPTIVE,
    CONTINUE_TO_D2_STAR_THM4,
    DECISION_BAND,
    REACTIVE,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    SCENARIO_IV_STAY,
    STAY_AT_D_STAR_THM2,
    DegenerateContextError,
    ExtensionContext,
    _f_bounds,
    _m_ratio_and_rvv,
    _tau_tp1,
    classify,
    threshold_report,
    viability_limit_m_ratio,
    x_c_kappa,
    x_u_kappa,
)

from conftest import make_dist
from reference import synthesize as synth


# A reference context used by most of the frozen-value checks below:
# last-point share 0.2, candidate share 0.5, candidate transform at half
# the crossing average, candidate appeal at twice the crossing average.
CTX = synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=2.0, alpha=0.5)


def test_producer_thresholds_on_the_reference_context():
    r = threshold_report(CTX)
    assert r["x_l_kappa_adaptive"] == 0.4
    assert r["x_l_kappa_reactive"] == 0.25
    assert r["x_l_kappa"] == r["x_l_kappa_adaptive"]  # default consumer mode


def test_ordering_thresholds_on_the_reference_context():
    r = threshold_report(CTX)
    assert r["x_u_kappa"] == pytest.approx(10.0 / 21.0, rel=1e-12)
    # with the last point at the crossing average the two forms coincide
    assert r["x_u_kappa_alt"] == r["x_u_kappa"]


def test_ordering_threshold_with_an_above_average_last_point():
    r = threshold_report(
        synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=2.0, alpha=0.5, tp1_ratio=2.0)
    )
    assert r["x_u_kappa"] == pytest.approx(10.0 / 21.0, rel=1e-12)
    assert r["x_u_kappa_alt"] == pytest.approx(1.02 / 1.05, rel=1e-12)


def test_consumer_threshold_values():
    r0 = threshold_report(
        synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=0.8, alpha=0.5, iota=0.0)
    )
    assert r0["x_c_kappa"] == pytest.approx(-0.2, rel=1e-12)
    r1 = threshold_report(
        synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=0.8, alpha=0.5, iota=0.1)
    )
    assert r1["x_c_kappa"] == pytest.approx(-0.05 / 1.15, rel=1e-12)


@pytest.mark.parametrize("iota, n_r2", [(0.0, 0.5), (0.1, 0.25), (0.5, 1.0), (1.0, 3.0)])
def test_consumer_threshold_turns_negative_past_iota_plus_the_share_bound(iota, n_r2):
    # x_c < 0 exactly when c2 > iota + 1/(1 + n_r2)
    edge = iota + 1.0 / (1.0 + n_r2)

    def x_c(c2: float) -> float:
        return x_c_kappa(dataclasses.replace(CTX, iota=iota, n_r2=n_r2, c2_ratio=c2))

    assert x_c(edge) == pytest.approx(0.0, abs=1e-12)
    assert x_c(edge * (1.0 - 1e-6)) > 0.0
    assert x_c(edge * (1.0 + 1e-6)) < 0.0
    if iota == 0.0:
        # an average candidate costs the consumer its share of dilution
        assert x_c(1.0) == pytest.approx(-n_r2, rel=1e-12)


def test_transform_cutoff_on_the_reference_context():
    r = threshold_report(CTX)
    assert r["tau"] == pytest.approx(1.375 / 1.625, rel=1e-12)


def test_participation_ratio_and_recovered_volume_value():
    r = threshold_report(CTX)
    m = r["m_ratio"]
    assert m == pytest.approx(math.sqrt(27.0 / 26.0), rel=1e-12)
    expected_rvv = ((m - 1.0) / m) * (1.25 * 1.3) / (0.5 * 0.2 * 0.5)
    assert r["rvv"] == pytest.approx(expected_rvv, rel=1e-12)


def test_measured_slopes_match_the_power_curve():
    r = threshold_report(CTX)
    # appeal mix of the synthetic realization: (1 + 2*0.5) / 1.5
    assert r["kappa_r2"] == pytest.approx((math.sqrt(4.0 / 3.0) - 1.0) / 0.5, rel=1e-12)
    assert r["kappa_ar2"] > r["kappa_r2"], "a lighter base amplifies the candidate's pull"
    m_r2 = math.sqrt(4.0 / 3.0)
    assert r["f_low"] == pytest.approx((1.0 / m_r2 - 1.0) / 0.5 + 1.0 / m_r2, rel=1e-12)
    assert r["f_low"] < r["f_up"]


def test_worthless_candidate_pins_the_producer_threshold_at_one():
    for mode in (ADAPTIVE, REACTIVE):
        r = threshold_report(
            synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.0, c2_ratio=2.0, alpha=0.5,
                  consumer_mode=mode)
        )
        assert r["x_l_kappa"] == 1.0


def test_viability_limit_base_cases():
    assert viability_limit_m_ratio(0.2, 0.0, 1.0, 0.5) == 1.0
    assert viability_limit_m_ratio(0.2, 0.0, 2.0, 0.5) == pytest.approx(1.2, rel=1e-12)
    # matching transform: the limit is purely a volume ratio
    assert viability_limit_m_ratio(0.2, 0.5, 1.0, 0.5) == pytest.approx(
        1.3 / 1.05, rel=1e-12
    )


def test_the_ordering_limits_refuse_a_weightless_candidate_and_a_zero_denominator():
    # each would otherwise divide by zero
    with pytest.raises(
        ValueError, match="^ordering limits need a candidate with positive weight$"
    ):
        x_u_kappa(0.5, 0.0, 1.0, 1.0)
    # 1 − n_r1 + tp2 n_r2 = 0 at n_r1 = 1, tp2 = 0
    with pytest.raises(
        DegenerateContextError, match="^degenerate ordering-limit denominator$"
    ):
        viability_limit_m_ratio(1.0, 0.5, 1.0, 0.0)


def test_transform_cutoff_stays_below_one_for_non_dominant_candidates():
    for tp2 in (0.0, 0.25, 0.5, 0.9, 0.999):
        for n2 in (0.1, 0.5, 0.9):
            r = threshold_report(
                synth(n_r1=0.2, n_r2=n2, tp2_ratio=tp2, c2_ratio=2.0, alpha=0.5)
            )
            assert r["tau"] < 1.0, (tp2, n2)


# -- classifier branches -----------------------------------------------------


def test_both_sides_prefer_the_extension():
    v = classify(synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=4.0, alpha=0.4))
    assert v.kind == SCENARIO_I_BOTH_PREFER
    assert v.is_nash and not v.carveout_recommended


def test_only_the_consumer_prefers_the_extension():
    v = classify(synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.05, c2_ratio=4.0, alpha=0.4))
    assert v.kind == SCENARIO_II_CONSUMER_PREFERS
    assert v.carveout_recommended and not v.is_nash


def test_only_the_producer_prefers_the_extension():
    v = classify(
        synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.8, c2_ratio=1.05, alpha=0.5,
              iota=1.0, consumer_mode=REACTIVE)
    )
    assert v.kind == SCENARIO_III_PRODUCER_PREFERS
    assert v.carveout_recommended and not v.is_nash


def test_neither_side_prefers_the_extension():
    v = classify(synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.4, c2_ratio=1.1, alpha=0.4, iota=0.8))
    assert v.kind == SCENARIO_IV_STAY
    assert v.is_nash and not v.carveout_recommended


def test_repelling_extension_stays_put():
    v = classify(synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=0.5, alpha=0.5))
    assert v.kind == STAY_AT_D_STAR_THM2
    assert v.is_nash


def test_steep_viable_extension_continues_to_a_second_crossing():
    v = classify(
        synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.5, c2_ratio=4.0, alpha=0.9, tp1_ratio=5.0)
    )
    assert v.kind == CONTINUE_TO_D2_STAR_THM4


def test_steep_but_order_inconsistent_extension_stays_put():
    v = classify(synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.9, c2_ratio=4.0, alpha=0.9))
    assert v.kind == STAY_AT_D_STAR_THM2
    assert any("inconsistent with greedy order" in note for note in v.notes)


def test_threshold_ties_are_flagged_indeterminate():
    ctx = synth(n_r1=0.2, n_r2=0.5, tp2_ratio=0.4, c2_ratio=1.1, alpha=0.4, iota=0.8)
    r = threshold_report(ctx)
    pinned = dataclasses.replace(ctx, kappa_r2=r["x_l_kappa"])
    v = classify(pinned)
    assert v.indeterminate
    assert abs(r["x_l_kappa"] - pinned.kappa_r2) < DECISION_BAND


# -- measuring a context from run state --------------------------------------


def test_context_measured_from_a_real_increment():
    model = ParticipationModel.power(1.0, 0.5)
    t = ProducerTransform.identity()
    d_star = make_dist(("a", 2.0, 1.0, 1.0), ("b", 1.5, 0.8, 0.5))
    r1 = PointIncrement(Point("b", 1.5, 0.8), 0.5)
    r2 = PointIncrement(Point("x", 3.0, 0.5), 0.75)
    ctx = ExtensionContext.from_run(d_star, r1, r2.as_distribution(), model, t, iota=0.1,
                                    consumer_mode=ADAPTIVE)
    assert ctx.r1 == r1
    assert ctx.n_r1 == pytest.approx(0.5 / 1.5, rel=1e-12)
    assert ctx.n_r2 == pytest.approx(0.75 / 1.5, rel=1e-12)
    assert ctx.tp2_ratio == pytest.approx(0.5 / ((1.0 + 0.8 * 0.5) / 1.5), rel=1e-12)
    assert report_is_serializable(ctx)


def test_a_crossing_of_non_positive_mean_consumer_value_is_degenerate():
    d_star = make_dist(("a", -1.0, 1.0, 1.0))
    r1 = PointIncrement(Point("a", -1.0, 1.0), 1.0)
    block = PointIncrement(Point("x", 3.0, 0.5), 0.5).as_distribution()
    with pytest.raises(DegenerateContextError, match="mean consumer value at the crossing"):
        ExtensionContext.from_run(
            d_star, r1, block, ParticipationModel.power(1.0, 0.5),
            ProducerTransform.identity(), iota=0.1, consumer_mode=ADAPTIVE,
        )


def test_a_context_needs_a_block_and_a_crossing_that_carry_weight():
    d_star = make_dist(("a", 2.0, 1.0, 1.0))
    r1 = PointIncrement(Point("a", 2.0, 1.0), 1.0)
    block = PointIncrement(Point("x", 3.0, 0.5), 0.5).as_distribution()
    model, t = ParticipationModel.power(1.0, 0.5), ProducerTransform.identity()
    with pytest.raises(ValueError, match="^candidate block must carry positive weight$"):
        ExtensionContext.from_run(
            d_star, r1, Distribution(), model, t, iota=0.1, consumer_mode=ADAPTIVE
        )
    with pytest.raises(DegenerateContextError, match="^crossing distribution is empty$"):
        ExtensionContext.from_run(
            Distribution(), r1, block, model, t, iota=0.1, consumer_mode=ADAPTIVE
        )


def test_a_last_increment_outside_the_crossing_leaves_an_unusable_base():
    d_star = make_dist(("a", 2.0, 1.0, 1.0))
    r1 = PointIncrement(Point("b", 1.5, 0.8), 0.5)
    block = PointIncrement(Point("x", 3.0, 0.5), 0.5).as_distribution()
    ctx = ExtensionContext.from_run(
        d_star, r1, block, ParticipationModel.power(1.0, 0.5),
        ProducerTransform.identity(), iota=0.1, consumer_mode=ADAPTIVE,
    )
    # the base r1 joined is unusable, so the context keeps no r1
    assert ctx.r1 is None
    assert ctx.n_r1 == 0.0
    assert any("last-step base was unusable" in note for note in classify(ctx).notes)


# -- degenerate ratios -------------------------------------------------------


def test_a_vanishing_tau_denominator_reads_nan():
    # 1 + tp2 * n_r2 = 1 - 2 * 0.5 = 0
    ctx = dataclasses.replace(CTX, tp2_ratio=-2.0)
    with pytest.raises(DegenerateContextError, match="degenerate tau denominator"):
        _tau_tp1(ctx)
    assert threshold_report(ctx)["tau"] == "nan"


def test_no_participation_past_the_crossing_puts_no_lower_bound_on_the_pull():
    low, _ = _f_bounds(dataclasses.replace(CTX, m_r2_ratio=0.0))
    assert low == math.inf


def test_the_placement_ratio_is_nan_without_a_positive_base():
    # on a power curve, through the closed form's factors ...
    m, rvv = _m_ratio_and_rvv(dataclasses.replace(CTX, c2a_ratio=-10.0))
    assert math.isnan(m) and math.isnan(rvv)
    # ... and on any other curve, through the measured participation ratio
    table = ParticipationModel.from_table([(1.0, 1.0)])
    m, rvv = _m_ratio_and_rvv(dataclasses.replace(CTX, model=table, m_r2_ratio=0.0))
    assert math.isnan(m) and math.isnan(rvv)


def test_a_report_holds_its_context_and_emits_its_measured_values():
    # the verdict keeps the context it was decided from, and the report
    # writes that context's fields next to 14 values measured from it
    assert classify(CTX).witness is CTX
    d = threshold_report(CTX)
    context = {f.name for f in dataclasses.fields(ExtensionContext)}
    assert len(set(d) - context) == 14
    assert len(d) == 30
    assert d["n_star"] == CTX.n_star
    assert d["kappa_r2"] == CTX.kappa_r2
    assert d["consumer_mode"] == CTX.consumer_mode
    assert d["delta_v_hat"] == CTX.delta_v_hat()


def report_is_serializable(ctx: ExtensionContext) -> bool:
    d = threshold_report(ctx)
    required = {
        "x_l_kappa", "x_u_kappa", "x_u_kappa_alt", "x_c_kappa", "tau",
        "kappa_r2", "kappa_ar2", "f_low", "f_up", "m_ratio", "rvv",
        "delta_v_hat", "delta_s_hat", "delta_u",
    }
    return required <= set(d)


@given(
    st.floats(min_value=0.02, max_value=0.8),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.0, max_value=0.98),
)
@settings(max_examples=150, deadline=None)
def test_ordering_limit_never_undercuts_the_producer_threshold(n1, n2, tp2):
    r = threshold_report(
        synth(n_r1=n1, n_r2=n2, tp2_ratio=tp2, c2_ratio=2.0, alpha=0.5)
    )
    assert r["x_u_kappa"] >= r["x_l_kappa_adaptive"] - 1e-12


@given(
    st.floats(min_value=0.02, max_value=0.8),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.2, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_below_average_last_point_tightens_the_ordering_limit(n1, n2, tp1):
    r = threshold_report(
        synth(n_r1=n1, n_r2=n2, tp2_ratio=0.5, c2_ratio=2.0, alpha=0.5,
              tp1_ratio=tp1)
    )
    assert r["x_u_kappa_alt"] <= r["x_u_kappa"] + 1e-12
