from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from distopt import core
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
from distopt.participation import ParticipationModel
from distopt.sequence import GreedyBuild

from conftest import make_dist


def test_mean_value_of_unit_mix():
    d = make_dist(("a", 5, 1, 1), ("b", 4, 1, 1), ("c", 3, 1, 1), ("d", 2, 1, 1))
    assert d.n == 4.0
    assert d.q == 3.5


def test_insertion_order_is_kept():
    d = make_dist(("z", 1, 1, 1), ("a", 2, 1, 1), ("m", 3, 1, 1))
    assert list(d.ids()) == ["z", "a", "m"]


def test_distributions_are_equal_by_their_entries_alone():
    d = make_dist(("a", 2, 1, 1.5), ("b", 1, 0, 0.5))
    assert d == make_dist(("b", 1, 0, 0.5), ("a", 2, 1, 1.5))
    assert d != make_dist(("a", 2, 1, 1.5))
    assert d != make_dist(("a", 2, 1, 1.5), ("b", 1, 0, 0.25))
    assert d != dict(d._entries)
    assert repr(d) == "Distribution({a:1.5, b:0.5}, n=2)"


def test_duplicate_ids_merge_weights():
    p = Point("a", 1.0, 1.0)
    d = Distribution([(p, 1.0), (p, 2.0)])
    assert d.weight_of("a") == 3.0
    assert len(list(d.items())) == 1


def test_duplicate_id_with_different_scores_rejected():
    with pytest.raises(ValueError):
        Distribution([(Point("a", 1.0, 1.0), 1.0), (Point("a", 2.0, 1.0), 1.0)])


def test_a_merged_weight_must_stay_finite():
    p = Point("a", 1.0, 1.0)
    big = Distribution([(p, 1e308)])
    refused = "weight of 'a' must be finite, got inf"
    with pytest.raises(ValueError, match=refused):
        Distribution([(p, 1e308), (p, 1e308)])
    with pytest.raises(ValueError, match=refused):
        apply_increment(big, PointIncrement(p, 1e308))
    with pytest.raises(ValueError, match=refused):
        combine(big, big)


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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ProducerTransform("logistic"), "unknown transform kind 'logistic'"),
        (lambda: ProducerTransform.from_table([]), "table transform needs at least one entry"),
        (
            lambda: ProducerTransform.from_table([(1.0, 2.0), (1.0, 3.0)]),
            r"conflicting table entries for p=1\.0",
        ),
        (lambda: Distribution([(Point("a", 1.0, 1.0), -0.5)]), "negative weight for point 'a'"),
    ],
    ids=["transform-kind", "empty-table", "conflicting-table", "negative-weight"],
)
def test_the_constructors_refuse_what_the_schema_keeps_from_the_cli(make, message):
    # the CLI's instances never reach these checks; a library caller does
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


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


# -- every build against fsum over the entries it keeps ----------------------

_AROUND_TOLERANCE = [
    math.nextafter(DROP_TOLERANCE, 0.0),
    DROP_TOLERANCE,
    math.nextafter(DROP_TOLERANCE, 1.0),
]
_ROW_WEIGHT = st.one_of(st.sampled_from([0.0, *_AROUND_TOLERANCE]), st.floats(0.0, 4.0))
_INC_WEIGHT = st.one_of(st.sampled_from([5e-324, *_AROUND_TOLERANCE]), st.floats(1e-12, 4.0))
#: (id, weight, redraw the signs of zero scores)
_ROW = st.tuples(st.sampled_from(_IDS), _ROW_WEIGHT, st.booleans())
_CUT = st.tuples(
    st.sampled_from(["skip", "all", "tol", "under_tol", "over_tol", "part"]),
    st.floats(0.0, 1.0),
)
_SIGNED_TRANSFORM = st.sampled_from(
    [
        ProducerTransform.identity(),
        ProducerTransform.affine(2.0, -0.0),
        ProducerTransform.affine(-0.5, 0.0),
    ]
)


def _rows_of(d: Distribution) -> list[tuple[int, str, str]]:
    """What ``d`` holds: each entry's point object, id and weight bits."""
    return [(id(pt), pt.id, w.hex()) for pt, w in d.items()]


def _kept(rows) -> list[tuple[Point, float]]:
    """``rows`` merged by id, in first-seen order with the last point seen,
    less the weights at or below ``DROP_TOLERANCE``."""
    merged: dict[str, tuple[Point, float]] = {}
    for pt, w in rows:
        prev = merged.get(pt.id)
        merged[pt.id] = (pt, w if prev is None else prev[1] + w)
    return [(pt, w) for pt, w in merged.values() if w > DROP_TOLERANCE]


def _assert_fsum_over(d: Distribution, kept, t: ProducerTransform) -> None:
    assert d.ids() == tuple(pt.id for pt, _ in kept)
    assert [(id(pt), w.hex()) for pt, w in d.items()] == [
        (id(pt), w.hex()) for pt, w in kept
    ]
    n = math.fsum([w for _, w in kept])
    assert d.n.hex() == n.hex()
    if not kept:
        return
    assert d.q.hex() == (math.fsum([w * pt.c for pt, w in kept]) / n).hex()
    e = math.fsum([w * t.apply(pt.p) for pt, w in kept]) / n
    assert expected_t(d, t).hex() == e.hex()


_UNIT_SCORES = {i: (1.0, 1.0) for i in _IDS}


@given(
    scores=st.fixed_dictionaries({i: st.tuples(_SCORE, _SCORE) for i in _IDS}),
    rows=st.lists(_ROW, max_size=6),
    other=st.lists(_ROW, max_size=6),
    inc=st.tuples(st.sampled_from(_IDS), _INC_WEIGHT, st.booleans()),
    cuts=st.lists(_CUT, min_size=len(_IDS), max_size=len(_IDS)),
    t=_SIGNED_TRANSFORM,
)
@settings(max_examples=300, deadline=None)
# a middle entry drops, so the build filters its entries into a new dict
@example(
    scores=_UNIT_SCORES,
    rows=[("a", 1.0, False), ("b", DROP_TOLERANCE, False), ("c", 0.5, False)],
    other=[],
    inc=("b", DROP_TOLERANCE, False),
    cuts=[("skip", 0.0)] * len(_IDS),
    t=ProducerTransform.identity(),
)
def test_each_build_sums_its_kept_entries_with_fsum(scores, rows, other, inc, cuts, t):
    def point(pid: str, flip: bool) -> Point:
        c, p = scores[pid]
        return Point(pid, -c if flip and c == 0 else c, -p if flip and p == 0 else p)

    entries = [(point(pid, flip), w) for pid, w, flip in rows]
    given_entries = list(entries)
    d = Distribution(entries)
    assert entries == given_entries
    _assert_fsum_over(d, _kept(entries), t)
    held = _rows_of(d)

    pid, weight, flip = inc
    increment = PointIncrement(point(pid, flip), weight)
    _assert_fsum_over(increment.as_distribution(), _kept([(increment.point, weight)]), t)
    _assert_fsum_over(
        apply_increment(d, increment), _kept([*d.items(), (increment.point, weight)]), t
    )

    e = Distribution([(point(pid, flip), w) for pid, w, flip in other])
    other_held = _rows_of(e)
    _assert_fsum_over(combine(d, e), _kept([*d.items(), *e.items()]), t)
    assert _rows_of(e) == other_held

    # cut all, down to DROP_TOLERANCE or just under or over it, or a part
    removed = []
    for (pt, w), (kind, share) in zip(d.items(), cuts):
        removed.append((pt, {
            "skip": 0.0,
            "all": w,
            "tol": w - DROP_TOLERANCE,
            "under_tol": w - math.nextafter(DROP_TOLERANCE, 0.0),
            "over_tol": w - math.nextafter(DROP_TOLERANCE, 1.0),
            "part": w * share,
        }[kind]))
    y = Distribution(removed)
    y_held = _rows_of(y)
    left = [(pt, w - y.weight_of(pt.id)) for pt, w in d.items()]
    _assert_fsum_over(remove_subdistribution(d, y), _kept(left), t)
    assert _rows_of(y) == y_held
    assert _rows_of(d) == held


_MAX = 1.7976931348623157e308
#: weights from just around the drop tolerance to the largest float
_SMALL_WEIGHT = st.one_of(
    st.sampled_from([*_AROUND_TOLERANCE, 1.0, 1e308, _MAX]),
    st.floats(DROP_TOLERANCE, _MAX),
)
#: scores with both zeros, subnormals and magnitudes whose products overflow
_SMALL_C = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, _MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _fsum_or_error(terms: list[float]):
    try:
        return math.fsum(terms).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(st.lists(st.tuples(_SMALL_WEIGHT, _SMALL_C), min_size=1, max_size=2))
@settings(max_examples=500, deadline=None)
@example([(1.0, -0.0), (2.0, -0.0)])  # two -0.0 products sum to +0.0
@example([(1.0, 5e-324), (1.0, -5e-324)])  # subnormals cancelling
@example([(1e-5, 2.2250738585072014e-308)])  # a product that underflows
@example([(1e10, 1e300)])  # a product that overflows
@example([(1e10, 1e300), (1e10, -1e300)])  # products of opposite infinities
@example([(1e308, 1.0), (1e308, 1.0)])  # weights and products whose sum overflows
@example([(1.0, _MAX), (1.0, -_MAX)])  # the largest products cancelling
@example([(DROP_TOLERANCE, 3.0), (2.0, 1.0)])  # an entry that drops
def test_one_or_two_entries_sum_as_fsum_does(rows):
    points = [Point(pid, c, 0.0) for pid, (_, c) in zip("ab", rows)]
    kept = [(pt, w) for pt, (w, _) in zip(points, rows) if w > DROP_TOLERANCE]
    n = _fsum_or_error([w for _, w in kept])
    q = _fsum_or_error([w * pt.c for pt, w in kept])
    want = n if isinstance(n, tuple) else q if isinstance(q, tuple) else (n, q)
    for build in (
        lambda: Distribution([(pt, w) for pt, (w, _) in zip(points, rows)]),
        lambda: Distribution._from_checked({pt.id: (pt, w) for pt, (w, _) in zip(points, rows)}),
    ):
        try:
            d = build()
        except (OverflowError, ValueError) as exc:
            got = type(exc), str(exc)
        else:
            got = d._n.hex(), d._q_numerator.hex()
            assert d.ids() == tuple(pt.id for pt, _ in kept)
        assert got == want


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


# -- a greedy build's running sums against fsum -------------------------------

# huge finite scores make terms past the exact sums' range, which leave their
# state to fsum, overflow errors and infinities included
_CHAIN_SCORE = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
_CHAIN_WEIGHT = st.one_of(
    st.sampled_from(
        [
            math.nextafter(DROP_TOLERANCE, 0.0),
            DROP_TOLERANCE,
            math.nextafter(DROP_TOLERANCE, 1.0),
            2 * DROP_TOLERANCE,
            0.5,
        ]
    ),
    st.floats(1e-12, 1e3),
    st.floats(min_value=5e-324, allow_infinity=False),
)
_CHAIN_STEP = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 7)),  # what a greedy step takes
    st.tuples(st.just("add"), st.integers(0, 7), _CHAIN_WEIGHT),
    st.tuples(st.just("copy")),
    st.tuples(st.just("carve"), st.floats(0.0, 1.0)),
)
_POOL_ROW = st.tuples(_CHAIN_SCORE, _CHAIN_SCORE, _CHAIN_WEIGHT)
_TRANSFORM = st.one_of(
    st.just(ProducerTransform.identity()),
    st.builds(ProducerTransform.affine, _CHAIN_SCORE, _CHAIN_SCORE),
)


def _outcome(value) -> str:
    """``value()`` as hex, or the name of the error it raised."""
    try:
        return value().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _assert_summed_as_fsum(d: Distribution, t: ProducerTransform) -> None:
    """N, Q and E(T|D) of ``d`` as a fresh distribution over its entries
    takes them, with ``fsum``, bit for bit."""
    fresh = Distribution(list(d.items()))
    _assert_same(d, fresh)
    if not fresh.is_empty():
        assert _outcome(lambda: expected_t(d, t)) == _outcome(lambda: expected_t(fresh, t))


def _big(c: float) -> list:
    """A pool whose second point's Q term is ``c``."""
    return [(1.0, 1.0, 1.0), (c, 1.0, 1.0)]


def _huge_adds(weight: float) -> list:
    """Steps that add ``weight`` at each of two pool points."""
    return [("add", 0, weight), ("add", 1, weight)]


@given(
    rows=st.lists(_POOL_ROW, min_size=1, max_size=6),
    start=st.integers(0, 3),
    chunk=st.sampled_from([None, 2 * DROP_TOLERANCE, 0.3, 1.0]),
    t=_TRANSFORM,
    steps=st.lists(_CHAIN_STEP, max_size=12),
)
@settings(max_examples=300, deadline=None)
# a term of 2**960 leaves its state to fsum; one just below it does not
@example(_big(2.0**960), 0, None, ProducerTransform.identity(), [("offer", 0)] * 2)
@example(
    _big(math.nextafter(2.0**960, 0.0)), 0, None, ProducerTransform.identity(), [("offer", 0)] * 2
)
# fsum raises an intermediate overflow on N, on Q and on E(T|D)
@example([(1.0, 1.0, 1.0)] * 2, 0, None, ProducerTransform.identity(), _huge_adds(1e308))
@example([(1e200, 1.0, 1.0)] * 2, 0, None, ProducerTransform.identity(), _huge_adds(1e108))
@example([(1.0, 1e308, 1.0)] * 2, 0, None, ProducerTransform.identity(), [("offer", 0)] * 2)
# two adds at one point whose merged weight overflows
@example([(1.0, 1.0, 1.5e308)], 0, None, ProducerTransform.identity(), [("add", 0, 1e308)] * 2)
# an add past the point's offer, then a carve of all the pool holds of it:
# the state keeps a point the pool no longer has, so E(T|D) is not carried
@example([(1.0, 1.0, 1.0)], 0, None, ProducerTransform.identity(), [("add", 0, 2.0), ("carve", 1.0)])
def test_a_greedy_chain_sums_as_fsum_does(rows, start, chunk, t, steps):
    points = [Point(f"x{i}", c, p) for i, (c, p, _) in enumerate(rows)]
    try:
        pool = Distribution([(pt, w) for pt, (_, _, w) in zip(points, rows)])
        d = Distribution([(pt, w / 2) for pt, (_, _, w) in zip(points[:start], rows)])
    except (OverflowError, ValueError):  # fsum's errors, as at any construction
        return
    model = ParticipationModel.power(1.0, 1.0)
    build = GreedyBuild(d, pool, chunk, model, t)
    _assert_summed_as_fsum(build.d, t)
    for step in steps:
        if step[0] == "copy":
            build = build.copy()
            continue
        if step[0] == "carve":
            d, available = build.d, build.available
            y = Distribution(
                [(pt, min(w, available.weight_of(pt.id)) * step[1]) for pt, w in d.items()]
            )
            try:
                build = GreedyBuild(
                    remove_subdistribution(d, y),
                    remove_subdistribution(available, y),
                    chunk,
                    model,
                    t,
                )
            except (OverflowError, ValueError):
                continue
        else:
            if step[0] == "offer":
                offers = [(pt, w) for pt, w, _ in build._offers.values()]
                if not offers:
                    continue
                point, weight = offers[step[1] % len(offers)]
            else:
                point, weight = points[step[1] % len(points)], step[2]
                if point.id not in build._offers:  # a build adds only offered points
                    continue
            before = list(build.d.items())
            try:
                build.add(PointIncrement(point, weight))
            except (OverflowError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    Distribution(before + [(point, weight)])
                continue
            _assert_same(build.d, Distribution(before + [(point, weight)]))
        _assert_summed_as_fsum(build.d, t)


def test_a_plain_chain_of_increments_sums_with_fsum(monkeypatch):
    # only a ``GreedyBuild`` seeds exact sums: a chain of ``apply_increment``
    # from ``Distribution()``, the brute force's and the carve's path, takes
    # N and Q with fsum at every step past its second entry (one or two
    # entries add as floats, which fsum equals) and E(T|D) by a pass, T(p)
    # given or not
    fsums = 0
    fsum = math.fsum

    def counted(terms):
        nonlocal fsums
        fsums += 1
        return fsum(terms)

    t = ProducerTransform.affine(2.0, 0.5)
    points = [Point(f"r{i}", 1.0 + i / 7, i / 3) for i in range(6)]
    monkeypatch.setattr(core.math, "fsum", counted)
    applies = _count_applies(monkeypatch)
    for with_tp in (False, True):
        d = Distribution()
        for step, pt in enumerate(points + points[:2]):
            before = fsums
            d = apply_increment(d, PointIncrement(pt, 0.5), t.apply(pt.p) if with_tp else None)
            assert fsums == before + (0 if len(d) <= 2 else 2), step
            assert d._sums is None
            applies.clear()
            expected_t(d, t)
            assert len(applies) == len(d)
