from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distopt.core import (
    DROP_TOLERANCE,
    Distribution,
    EmptyDistributionError,
    Point,
    PointIncrement,
    ProducerTransform,
    SubdistributionError,
    TableLookupError,
    apply_increment,
    combine,
    expected_t,
    remove_subdistribution,
)

from conftest import make_dist


def test_mean_value_of_unit_mix():
    d = make_dist(("a", 5, 1, 1), ("b", 4, 1, 1), ("c", 3, 1, 1), ("d", 2, 1, 1))
    assert d.n == 4.0
    assert d.q == 3.5


def test_insertion_order_is_kept():
    d = make_dist(("z", 1, 1, 1), ("a", 2, 1, 1), ("m", 3, 1, 1))
    assert list(d.ids()) == ["z", "a", "m"]


def test_duplicate_ids_merge_weights():
    p = Point("a", 1.0, 1.0)
    d = Distribution([(p, 1.0), (p, 2.0)])
    assert d.weight_of("a") == 3.0
    assert len(list(d.items())) == 1


def test_duplicate_id_with_different_scores_rejected():
    with pytest.raises(ValueError):
        Distribution([(Point("a", 1.0, 1.0), 1.0), (Point("a", 2.0, 1.0), 1.0)])


def test_negligible_weights_are_dropped():
    d = make_dist(("a", 1, 1, 1.0), ("b", 1, 1, DROP_TOLERANCE), ("c", 1, 1, DROP_TOLERANCE / 2))
    assert "a" in d
    assert "b" not in d, "weight at the drop tolerance should be discarded"
    assert "c" not in d


def test_empty_distribution_has_no_mean():
    empty = Distribution()
    assert empty.is_empty()
    assert empty.n == 0.0
    with pytest.raises(EmptyDistributionError):
        empty.q


def test_increment_weight_must_be_positive():
    pt = Point("a", 1.0, 1.0)
    with pytest.raises(ValueError):
        PointIncrement(pt, 0.0)
    with pytest.raises(ValueError):
        PointIncrement(pt, -0.5)


def test_increment_expands_to_distribution():
    inc = PointIncrement(Point("a", 2.0, 3.0), 0.7)
    d = inc.as_distribution()
    assert d.weight_of("a") == 0.7
    assert d.q == 2.0


def test_combine_matches_apply_increment(linear_model, identity_t):
    base = make_dist(("a", 2, 1, 1), ("b", 4, 2, 2))
    inc = PointIncrement(Point("x", 3.0, 0.5), 1.5)
    via_combine = combine(base, inc.as_distribution())
    via_apply = apply_increment(base, inc)
    assert via_combine.n == via_apply.n
    assert via_combine.q == via_apply.q
    assert sorted(via_combine.ids()) == sorted(via_apply.ids())


def test_remove_subdistribution_roundtrip():
    base = make_dist(("a", 2, 1, 1.0), ("b", 4, 2, 2.0))
    extra = make_dist(("b", 4, 2, 0.5))
    shrunk = remove_subdistribution(base, extra)
    assert shrunk.weight_of("b") == pytest.approx(1.5, rel=1e-15)
    back = combine(shrunk, extra)
    assert back.n == pytest.approx(base.n, rel=1e-15)
    assert back.q == pytest.approx(base.q, rel=1e-15)


def test_remove_subdistribution_rejects_non_subsets():
    base = make_dist(("a", 2, 1, 1.0))
    with pytest.raises(SubdistributionError):
        remove_subdistribution(base, make_dist(("zz", 1, 1, 0.1)))
    with pytest.raises(SubdistributionError):
        remove_subdistribution(base, make_dist(("a", 2, 1, 2.0)))


def test_identity_and_affine_transforms():
    ident = ProducerTransform.identity()
    assert ident.apply(0.3) == 0.3
    aff = ProducerTransform.affine(2.0, 1.0)
    assert aff.apply(0.5) == 2.0


def test_table_transform_is_exact_lookup():
    t = ProducerTransform.from_table([(0.0, 0.0), (0.5, 2.0), (1.0, 3.0)])
    assert t.apply(0.5) == 2.0
    with pytest.raises(TableLookupError):
        t.apply(0.25)
    with pytest.raises(TableLookupError):
        t.apply(2.0)
    assert t.apply(-0.0) == 0.0 and t.apply(1) == 3.0, "lookup is by float equality"


def test_table_transform_lookup_cache_is_not_part_of_the_value():
    t = ProducerTransform.from_table([(1.0, 3.0), (0.5, 2.0)])
    same = ProducerTransform.from_table([(0.5, 2.0), (1.0, 3.0)])
    assert t == same and hash(t) == hash(same)
    assert repr(t) == (
        "ProducerTransform(kind='table', a=1.0, b=0.0, table=((0.5, 2.0), (1.0, 3.0)))"
    )


def test_expected_t_weights_by_volume():
    d = make_dist(("a", 1, 0.0, 1.0), ("b", 1, 1.0, 3.0))
    t = ProducerTransform.affine(2.0, 0.0)
    # (0*1 + 2*3) / 4
    assert expected_t(d, t) == pytest.approx(1.5, rel=1e-15)


# -- randomized algebra ------------------------------------------------------

_entry = st.tuples(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
)


def _build(prefix: str, rows) -> Distribution:
    return Distribution(
        [(Point(f"{prefix}{i}", c, p), w) for i, (c, p, w) in enumerate(rows)]
    )


@given(st.lists(_entry, min_size=1, max_size=8), st.lists(_entry, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_combine_is_order_invariant(rows_a, rows_b):
    a = _build("a", rows_a)
    b = _build("b", rows_b)
    ab = combine(a, b)
    ba = combine(b, a)
    assert ab.n == pytest.approx(ba.n, rel=1e-12)
    assert ab.q == pytest.approx(ba.q, rel=1e-12)


@given(st.lists(_entry, min_size=1, max_size=8), st.lists(_entry, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_total_value_is_additive_under_combine(rows_a, rows_b):
    a = _build("a", rows_a)
    b = _build("b", rows_b)
    ab = combine(a, b)
    lhs = ab.q * ab.n
    rhs = a.q * a.n + b.q * b.n
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_incremental_build_matches_bulk_build():
    rng = random.Random(1401)
    pts = [
        Point(f"r{i}", rng.uniform(0.1, 9.0), rng.uniform(0.0, 2.0))
        for i in range(30)
    ]
    weights = [rng.uniform(0.05, 3.0) for _ in pts]
    bulk = Distribution(list(zip(pts, weights)))
    grown = Distribution()
    for pt, w in zip(pts, weights):
        grown = apply_increment(grown, PointIncrement(pt, w))
    assert grown.n == pytest.approx(bulk.n, rel=1e-12)
    assert grown.q == pytest.approx(bulk.q, rel=1e-12)


# -- derived distributions against the validating constructor ---------------

_IDS = ("a", "b", "c", "d", "e")
# signed zeros: a merge keeps the incoming point, whose scores compare equal
_SCORE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(-3.0, 5.0))
_WEIGHT = st.one_of(
    st.sampled_from([DROP_TOLERANCE / 2, DROP_TOLERANCE, 0.5, 1.0]),
    st.floats(1e-12, 4.0),
)


def _same_point(pt: Point, data) -> Point:
    """A new point object with pt's id and scores, signs of zero redrawn."""
    def flip(x: float) -> float:
        return -x if x == 0.0 and data.draw(st.booleans()) else x
    return Point(pt.id, flip(pt.c), flip(pt.p))


def _draw_dist(data, points: dict[str, Point]) -> Distribution:
    ids = data.draw(st.lists(st.sampled_from(_IDS), max_size=8))
    return Distribution([(_same_point(points[i], data), data.draw(_WEIGHT)) for i in ids])


def _assert_same(derived: Distribution, reference: Distribution) -> None:
    """Same ids in the same order, the same point objects and weights, and
    N and Q equal bit for bit."""
    assert derived.ids() == reference.ids()
    for (pd, wd), (pr, wr) in zip(derived.items(), reference.items()):
        assert pd is pr
        assert wd.hex() == wr.hex()
    assert derived.n.hex() == reference.n.hex()
    if not reference.is_empty():
        assert derived.q.hex() == reference.q.hex()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_derived_distributions_match_the_validating_constructor(data):
    points = {i: Point(i, data.draw(_SCORE), data.draw(_SCORE)) for i in _IDS}
    d = _draw_dist(data, points)

    # an increment at a new id or merged into an existing one
    inc = PointIncrement(
        _same_point(points[data.draw(st.sampled_from(_IDS))], data),
        data.draw(st.floats(1e-12, 4.0)),
    )
    _assert_same(
        apply_increment(d, inc),
        Distribution(list(d.items()) + [(inc.point, inc.weight)]),
    )

    other = _draw_dist(data, points)
    _assert_same(combine(d, other), Distribution(list(d.items()) + list(other.items())))

    # removals of all, nearly all (left at or just above DROP_TOLERANCE) or part
    cuts = []
    for point, weight in d.items():
        kind = data.draw(st.sampled_from(["skip", "all", "tol", "half_tol", "part"]))
        removed = {
            "skip": 0.0,
            "all": weight,
            "tol": weight - DROP_TOLERANCE,
            "half_tol": weight - DROP_TOLERANCE / 2,
            "part": weight * data.draw(st.floats(0.0, 1.0)),
        }[kind]
        cuts.append((point, removed))
    y = Distribution(cuts)
    remaining = []
    for point, weight in d.items():
        left = weight - y.weight_of(point.id)
        if left > DROP_TOLERANCE:
            remaining.append((point, left))
    _assert_same(remove_subdistribution(d, y), Distribution(remaining))


def test_derived_distributions_still_reject_what_the_constructor_rejects():
    d = make_dist(("a", 2, 1, 1.0), ("b", 4, 2, 2.0))
    clash = Point("b", 4.0, 3.0)
    with pytest.raises(ValueError, match="reused with different scores"):
        apply_increment(d, PointIncrement(clash, 1.0))
    with pytest.raises(ValueError, match="reused with different scores"):
        combine(d, Distribution([(clash, 1.0)]))
    with pytest.raises(SubdistributionError):
        remove_subdistribution(d, make_dist(("b", 4, 2, 2.0 + 1e-6)))
    with pytest.raises(SubdistributionError):
        remove_subdistribution(d, make_dist(("c", 1, 1, 0.5)))
    # the edge the carve tolerance allows: a hair over the held weight
    assert "b" not in remove_subdistribution(d, make_dist(("b", 4, 2, 2.0 + 1e-10)))


def test_a_removal_leaving_exactly_the_drop_tolerance_drops_the_point():
    removed = math.nextafter(math.nextafter(DROP_TOLERANCE, 1.0), 1.0)
    held = removed + DROP_TOLERANCE
    assert held - removed == DROP_TOLERANCE
    d = make_dist(("a", 2, 1, 1.0), ("b", 4, 2, held))
    shrunk = remove_subdistribution(d, make_dist(("b", 4, 2, removed)))
    assert shrunk.ids() == ("a",)
    _assert_same(shrunk, Distribution([(d.point_of("a"), 1.0)]))


# -- the E(T|D) cache ---------------------------------------------------------


def _count_applies(monkeypatch) -> list[float]:
    seen: list[float] = []
    original = ProducerTransform.apply

    def apply(self, p):
        seen.append(p)
        return original(self, p)

    monkeypatch.setattr(ProducerTransform, "apply", apply)
    return seen


def test_expected_t_is_taken_once_per_distribution_and_transform(monkeypatch):
    d = make_dist(("a", 1, 0.1, 1.0), ("b", 1, 0.7, 3.0), ("c", 2, 1.3, 0.2))
    t = ProducerTransform.affine(2.0, 0.3)
    formula = math.fsum(w * t.apply(pt.p) for pt, w in d.items()) / d.n
    applies = _count_applies(monkeypatch)
    first = expected_t(d, t)
    assert len(applies) == 3
    assert expected_t(d, t).hex() == first.hex() == formula.hex()
    assert len(applies) == 3, "the second call reads the cached value"


def test_each_transform_object_gets_its_own_expected_t():
    d = make_dist(("a", 1, 0.5, 1.0), ("b", 1, 1.0, 3.0))
    ident = ProducerTransform.identity()
    aff = ProducerTransform.affine(2.0, 1.0)
    table = ProducerTransform.from_table([(0.5, 10.0), (1.0, 20.0)])
    expect = {ident: 0.875, aff: 2.75, table: 17.5}
    for _ in range(2):
        for t, value in expect.items():
            assert expected_t(d, t) == value
    # equal but distinct transform objects are keyed apart and agree
    twin = ProducerTransform.affine(2.0, 1.0)
    assert twin == aff and twin is not aff
    assert expected_t(d, twin) == expected_t(d, aff) == 2.75


def test_a_failed_table_lookup_caches_nothing(monkeypatch):
    d = make_dist(("a", 1, 0.5, 1.0), ("b", 1, 0.9, 3.0))
    full = ProducerTransform.from_table([(0.5, 1.0), (0.9, 2.0)])
    partial = ProducerTransform.from_table([(0.5, 1.0)])
    assert expected_t(d, full) == 1.75
    applies = _count_applies(monkeypatch)
    for _ in range(2):
        with pytest.raises(TableLookupError):
            expected_t(d, partial)
    assert applies == [0.5, 0.9, 0.5, 0.9], "each failing call looked up again"
    applies.clear()
    assert expected_t(d, full) == 1.75
    assert applies == [], "the failed calls left the cached value in place"


def test_expected_t_on_an_empty_distribution_still_raises():
    t = ProducerTransform.identity()
    one = make_dist(("a", 1, 1, 1.0))
    for empty in (Distribution(), remove_subdistribution(one, one)):
        with pytest.raises(EmptyDistributionError):
            expected_t(empty, t)
        with pytest.raises(EmptyDistributionError):
            expected_t(empty, t)
