from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from distopt.core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    combine,
    expected_t,
    remove_subdistribution,
)
from distopt.participation import ParticipationModel, actual, potential
from distopt.valuation import (
    ValueDelta,
    _extended_value,
    delta_s,
    delta_v_of_increment,
    v_value,
)

from conftest import make_dist

M11 = ParticipationModel.power(1.0, 1.0)
IDENT = ProducerTransform.identity()
EMPTY = Distribution()


def test_v_is_expected_transform_times_potential():
    # single point: E(T) = 3, M = 2
    d = make_dist(("b", 2.0, 3.0, 1.0))
    assert v_value(d, M11, IDENT) == 6.0


def test_s_is_expected_transform_times_actual():
    d = make_dist(("b", 2.0, 3.0, 1.0))
    # M = 2 but only one unit of volume is on offer; S(∅) = 0
    assert delta_s(EMPTY, d, M11, IDENT).delta_s == 3.0


def test_value_delta_on_a_hand_checked_pair():
    base = make_dist(("b", 2.0, 1.0, 1.0))
    d2 = apply_increment(base, PointIncrement(Point("a", 4.0, 3.0), 1.0))
    # V: 1*2 -> 2*3
    assert delta_s(base, d2, M11, IDENT).delta_v == 4.0
    assert delta_v_of_increment(base, 4.0, 3.0, 1.0, M11, IDENT) == 4.0


def test_delta_v_of_increment_on_empty_base():
    m = ParticipationModel.power(2.0, 0.5)
    t = ProducerTransform.affine(1.0, 0.0)
    # first content: value is T(p) * M(c)
    assert delta_v_of_increment(EMPTY, 4.0, 0.5, 1.0, m, t) == pytest.approx(2.0)


def test_realized_delta_below_the_crossing():
    base = make_dist(("b", 2.0, 1.0, 1.0))
    d2 = apply_increment(base, PointIncrement(Point("a", 2.0, 3.0), 0.5))
    out = delta_s(base, d2, M11, IDENT)
    # all new volume is consumed at the newcomer's transform value
    assert out.delta_s == pytest.approx(1.5, rel=1e-12)


def test_realized_delta_above_the_crossing_equals_potential_delta():
    base = make_dist(("b", 2.0, 1.0, 3.0))
    d2 = apply_increment(base, PointIncrement(Point("a", 2.0, 3.0), 1.0))
    out = delta_s(base, d2, M11, IDENT)
    assert out.delta_s == pytest.approx(1.0, rel=1e-12)
    assert out.delta_s == pytest.approx(out.delta_v, rel=1e-12)


def test_realized_delta_straddling_the_crossing():
    base = make_dist(("b", 2.0, 1.0, 1.0))
    d2 = apply_increment(base, PointIncrement(Point("a", 0.5, 2.0), 2.0))
    out = delta_s(base, d2, M11, IDENT)
    assert out.delta_s == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_share_bounds_are_enforced():
    # a base with E = 1 and Q = 2 extended by a share of (c, T(p)) = (1, 1)
    assert _extended_value(1.0, 2.0, 1.0, 1.0, 0.5, M11) == 1.5
    # a heavy increment's share can round to 1: the point alone, T(p) * M(c)
    assert _extended_value(1.0, 2.0, 3.0, 5.0, 1.0, M11) == 5.0 * 3.0
    for phi in (1.1, -0.1):
        with pytest.raises(ValueError):
            _extended_value(1.0, 2.0, 1.0, 1.0, phi, M11)


def _random_dist(rng: random.Random, prefix: str, size: int) -> Distribution:
    return Distribution(
        [
            (
                Point(f"{prefix}{i}", rng.uniform(0.1, 8.0), rng.uniform(0.0, 2.0)),
                rng.uniform(0.05, 3.0),
            )
            for i in range(size)
        ]
    )


def test_closed_form_delta_matches_direct_difference():
    rng = random.Random(90125)
    m = ParticipationModel.power(1.3, 0.6)
    t = ProducerTransform.affine(1.5, 0.2)
    for trial in range(300):
        base = _random_dist(rng, "b", rng.randint(1, 6))
        ext = _random_dist(rng, "x", rng.randint(1, 4))
        d2 = base
        for pt, w in ext.items():
            d2 = apply_increment(d2, PointIncrement(pt, w))
        direct = v_value(d2, m, t) - v_value(base, m, t)
        closed = delta_s(base, d2, m, t).delta_v
        assert closed == pytest.approx(direct, rel=1e-10, abs=1e-12), (
            f"trial {trial}: closed {closed} vs direct {direct}"
        )


def test_unit_share_value_ranks_like_the_value_delta():
    rng = random.Random(777)
    m = ParticipationModel.power(1.1, 0.7)
    t = ProducerTransform.affine(0.8, 0.1)
    for trial in range(30):
        base = _random_dist(rng, "b", rng.randint(1, 5))
        cands = [
            (rng.uniform(0.1, 8.0), rng.uniform(0.0, 2.0)) for _ in range(6)
        ]
        e, q, share = expected_t(base, t), base.q, 1.0 / (base.n + 1.0)

        def upsilon(c: float, p: float) -> float:
            """Potential value after one unit of (c, p) joins the base."""
            return (e + share * (t.apply(p) - e)) * m.m(q + share * (c - q))

        by_upsilon = max(range(len(cands)), key=lambda i: upsilon(*cands[i]))
        by_delta = max(
            range(len(cands)),
            key=lambda i: delta_v_of_increment(base, cands[i][0], cands[i][1], 1.0, m, t),
        )
        assert by_upsilon == by_delta, f"trial {trial} ranked differently"


# -- delta_s against the formulas it shares with delta_v ------------------------
#
# The reference below is the earlier implementation, which took M, M', the
# difference mean and each end's E(T|D) again for every use, kept verbatim
# under prefixed names.  It runs on fresh copies of the distributions, so it
# reads no E(T|D) that the implementation under test has cached.


def _ref_s_value(
    d: Distribution, model: ParticipationModel, t: ProducerTransform
) -> float:
    """Realized producer value S(D) = E(T|D) * min(M, N)."""
    if d.is_empty():
        return 0.0
    return expected_t(d, t) * actual(model, d)


def _ref_v_value(
    d: Distribution, model: ParticipationModel, t: ProducerTransform
) -> float:
    """Potential producer value V(D) = E(T|D) * M(Q(D))."""
    if d.is_empty():
        return 0.0
    return expected_t(d, t) * potential(model, d)


def _ref_difference_mean_t(
    smaller: Distribution, larger: Distribution, t: ProducerTransform
) -> float:
    """Mean transformed producer value of (larger − smaller)."""
    diff = remove_subdistribution(larger, smaller)
    if diff.is_empty():
        return 0.0
    return expected_t(diff, t)


def _ref_delta_v(
    d: Distribution,
    d_prime: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
) -> float:
    if d.is_empty() and d_prime.is_empty():
        return 0.0
    if d.is_empty():
        return _ref_v_value(d_prime, model, t)
    if d_prime.is_empty():
        return -_ref_v_value(d, model, t)
    expansive = d_prime.n >= d.n
    base, other = (d, d_prime) if expansive else (d_prime, d)
    h = _ref_difference_mean_t(base, other, t)
    n, n_p = d.n, d_prime.n
    m, m_p = potential(model, d), potential(model, d_prime)
    e = expected_t(d, t)
    return e * n * (m_p / n_p - m / n) + h * (n_p - n) * (m_p / n_p)


def _ref_delta_s(
    d: Distribution,
    d_prime: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
) -> ValueDelta:
    dv = _ref_delta_v(d, d_prime, model, t)
    n, n_p = d.n, d_prime.n
    m = potential(model, d)
    m_p = potential(model, d_prime)
    if n <= m and n_p <= m_p:
        expansive = n_p >= n
        base, other = (d, d_prime) if expansive else (d_prime, d)
        h = _ref_difference_mean_t(base, other, t)
        return ValueDelta(h * (n_p - n), dv)
    if n >= m and n_p >= m_p:
        return ValueDelta(dv, dv)
    ds = _ref_s_value(d_prime, model, t) - _ref_s_value(d, model, t)
    return ValueDelta(ds, dv)


def _fresh(d: Distribution) -> Distribution:
    return Distribution(list(d.items()))


def _assert_delta_s_unchanged(d, d_prime, model, t) -> ValueDelta:
    got = delta_s(d, d_prime, model, t)
    assert got == _ref_delta_s(_fresh(d), _fresh(d_prime), model, t)
    return got


_P_VALUES = (0.0, 0.25, 1.0, 2.0, 3.5)
_ROW = st.tuples(st.floats(-1.0, 6.0), st.sampled_from(_P_VALUES), st.floats(0.05, 4.0))
_MODEL = st.one_of(
    st.builds(ParticipationModel.power, st.floats(0.02, 50.0), st.floats(0.05, 1.0)),
    st.builds(
        ParticipationModel.saturating,
        st.floats(0.02, 50.0),
        st.floats(0.05, 1.0),
        st.floats(0.1, 20.0),
    ),
    st.builds(
        ParticipationModel.from_table,
        st.just([(0.5, 0.2), (1.5, 2.0), (4.0, 3.0)]),
    ),
)
_TRANSFORM = st.sampled_from(
    [
        ProducerTransform.identity(),
        ProducerTransform.affine(-0.5, 2.0),
        ProducerTransform.from_table([(p, p * p - 1.0) for p in _P_VALUES]),
    ]
)


@settings(max_examples=400, deadline=None)
@given(
    base_rows=st.lists(_ROW, max_size=6),
    ext_rows=st.lists(_ROW, max_size=4),
    shares=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    reductive=st.booleans(),
    model=_MODEL,
    t=_TRANSFORM,
)
def test_delta_s_matches_the_earlier_implementation(
    base_rows, ext_rows, shares, reductive, model, t
):
    base = Distribution([(Point(f"b{i}", c, p), w) for i, (c, p, w) in enumerate(base_rows)])
    # new points, plus shares of the base's own points (a merge into an id)
    ext = Distribution(
        [(Point(f"x{i}", c, p), w) for i, (c, p, w) in enumerate(ext_rows)]
        + [(pt, w * share) for (pt, w), share in zip(base.items(), shares)]
    )
    grown = combine(base, ext)
    d, d_prime = (grown, base) if reductive else (base, grown)
    _assert_delta_s_unchanged(d, d_prime, model, t)


def _pair(base_rows, *added_rows):
    base = make_dist(*base_rows)
    grown = base
    for i, c, p, w in added_rows:
        grown = apply_increment(grown, PointIncrement(Point(i, c, p), w))
    return base, grown


@pytest.mark.parametrize(
    "d, d_prime, regime",
    [
        # M11: M = Q, so (c=2, w=1) has N = 1 below M = 2
        (*_pair([("b", 2.0, 1.0, 1.0)], ("a", 2.0, 3.0, 0.5)), "Regime.BELOW_CROSSING"),
        (*_pair([("b", 2.0, 1.0, 3.0)], ("a", 2.0, 3.0, 1.0)), "Regime.AT_OR_ABOVE_CROSSING"),
        (*_pair([("b", 2.0, 1.0, 1.0)], ("a", 0.5, 2.0, 2.0)), "Regime.STRADDLES_CROSSING"),
        (*_pair([("b", 2.0, 1.0, 1.0)], ("b", 2.0, 1.0, 0.5)), "Regime.BELOW_CROSSING"),
        (*_pair([("b", 2.0, 1.0, 1.5)], ("b", 2.0, 1.0, 1.0)), "Regime.STRADDLES_CROSSING"),
        (EMPTY, make_dist(("a", 2.0, 3.0, 1.0)), "Regime.BELOW_CROSSING"),
        (make_dist(("a", 2.0, 3.0, 3.0)), EMPTY, "Regime.AT_OR_ABOVE_CROSSING"),
        (EMPTY, make_dist(("a", 0.5, 3.0, 2.0)), "Regime.AT_OR_ABOVE_CROSSING"),
        (EMPTY, EMPTY, "Regime.BELOW_CROSSING"),
    ],
)
@pytest.mark.parametrize("reductive", [False, True])
def test_delta_s_is_unchanged_in_every_regime(d, d_prime, regime, reductive):
    # ``regime`` labels the case: the branch of ``delta_s`` it takes, which
    # the value comparison with the reference checks; the regime
    # conditions are symmetric in the two ends
    if reductive:
        d, d_prime = d_prime, d
    _assert_delta_s_unchanged(d, d_prime, M11, IDENT)
