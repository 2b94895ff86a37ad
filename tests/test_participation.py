from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distopt.core import Point, Distribution
from distopt.participation import (
    ParticipationModel,
    ZeroVolumeDeltaError,
    actual,
    kappa,
    potential,
)

from conftest import make_dist


def test_power_curve_values():
    m = ParticipationModel.power(2.0, 0.5)
    assert m.m(4.0) == 4.0
    assert m.m(0.0) == 0.0
    assert m.m(-3.0) == 0.0, "non-positive appeal draws nobody"


def test_power_parameter_validation():
    with pytest.raises(ValueError):
        ParticipationModel.power(0.0, 0.5)
    with pytest.raises(ValueError):
        ParticipationModel.power(1.0, 0.0)
    with pytest.raises(ValueError):
        ParticipationModel.power(1.0, 1.5)


def test_saturating_curve_caps():
    m = ParticipationModel.saturating(2.0, 0.5, cap=3.0)
    assert m.m(1.0) == 2.0
    assert m.m(100.0) == 3.0


def test_table_curve_interpolates_through_origin():
    m = ParticipationModel.from_table([(1.0, 1.0), (2.0, 3.0)])
    assert m.m(0.5) == pytest.approx(0.5)  # linear from (0, 0)
    assert m.m(1.5) == pytest.approx(2.0)
    assert m.m(5.0) == 3.0, "flat extrapolation above the last knot"
    assert m.m(0.0) == 0.0


def _scan_table_m(knots, q):
    """The linear knot scan the bisect lookup replaced, kept as its reference."""
    if q <= 0:
        return 0.0
    prev_q, prev_m = 0.0, 0.0
    for knot_q, knot_m in knots:
        if q <= knot_q:
            span = knot_q - prev_q
            return prev_m + (knot_m - prev_m) * (q - prev_q) / span
        prev_q, prev_m = knot_q, knot_m
    return prev_m


def test_table_curve_lookup_matches_the_linear_scan():
    knots = [(0.5, 1.0), (1.0, 1.5), (2.5, 1.5), (4.0, 2.25)]
    m = ParticipationModel.from_table(knots)
    qs = [-1.0, 0.0, 0.2, 0.5, 0.75, 1.0, 1.0 + 1e-15, 2.5, 3.1, 4.0, 4.5, 1e9]
    for q in qs:
        assert m.m(q) == _scan_table_m(knots, q), q
    single = ParticipationModel.from_table([(2.0, 3.0)])
    for q in (-0.5, 0.0, 1.0, 2.0, 7.0):
        assert single.m(q) == _scan_table_m(single.knots, q), q
    assert m == ParticipationModel.from_table(knots) and "_knot_qs" not in repr(m)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 50, allow_nan=False), st.floats(0, 10, allow_nan=False)
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda k: k[0],
    ),
    st.floats(-5, 60, allow_nan=False),
)
def test_table_curve_lookup_matches_the_linear_scan_on_any_curve(raw, q):
    qs = sorted(k for k, _ in raw)
    ms = sorted(v for _, v in raw)
    knots = list(zip(qs, ms))
    m = ParticipationModel.from_table(knots)
    assert m.m(q) == _scan_table_m(knots, q)
    for knot_q, _ in knots:
        assert m.m(knot_q) == _scan_table_m(knots, knot_q)


def test_table_knots_must_be_sane():
    with pytest.raises(ValueError):
        ParticipationModel.from_table([(2.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        ParticipationModel.from_table([(1.0, 2.0), (2.0, 1.0)])


def test_potential_and_actual(linear_model):
    d = make_dist(("a", 4.0, 1.0, 1.0))
    assert potential(linear_model, d) == 4.0
    assert actual(linear_model, d) == 1.0, "participation is volume-capped"
    wide = make_dist(("a", 0.5, 1.0, 4.0))
    assert potential(linear_model, wide) == 0.5
    assert actual(linear_model, wide) == 0.5


def test_kappa_is_participation_slope(linear_model):
    d1 = make_dist(("a", 4.0, 1.0, 1.0))
    d2 = make_dist(("a", 4.0, 1.0, 1.0), ("b", 2.0, 1.0, 1.0))
    # M drops from 4 to 3 while one unit of volume arrives
    assert kappa(linear_model, d1, d2) == pytest.approx(-1.0, rel=1e-12)


def test_kappa_requires_a_volume_change(linear_model):
    d = make_dist(("a", 2.0, 1.0, 1.0))
    with pytest.raises(ZeroVolumeDeltaError):
        kappa(linear_model, d, d)


@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_power_curve_is_monotone(zeta, alpha, q1, q2):
    m = ParticipationModel.power(zeta, alpha)
    lo, hi = sorted((q1, q2))
    assert m.m(lo) <= m.m(hi) + 1e-12


@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=100, deadline=None)
def test_saturating_never_exceeds_cap(zeta, q):
    m = ParticipationModel.saturating(zeta, 0.7, cap=2.5)
    assert m.m(q) <= 2.5 + 1e-15
