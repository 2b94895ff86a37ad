from __future__ import annotations

import math
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from distopt import core, sequence, valuation
from distopt.core import (
    DROP_TOLERANCE,
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    combine,
    expected_t,
    remove_subdistribution,
)
from distopt.instances import INSTANCE_SCHEMA, InstanceError, build_objects
from distopt.participation import ParticipationModel, potential
from distopt.optimizer import OptimizerConfig, _Run, optimize
from distopt.oracle import find_scenario_instance, generate_instance
from distopt.sequence import (
    GreedyBuild,
    best_increment,
    best_next_in_sequence,
    greedy_sweep,
    seed_distribution,
)
from distopt.thresholds import ExtensionContext, x_u_kappa
from distopt.valuation import delta_v_of_increment

from conftest import LADDER, make_dist, make_instance

M11 = ParticipationModel.power(1.0, 1.0)
IDENT = ProducerTransform.identity()


def test_remaining_pool_subtracts_current_weights():
    pool = make_dist(("a", 2, 1, 2.0), ("b", 1, 1, 1.0))
    cur = make_dist(("a", 2, 1, 0.5))
    offers = GreedyBuild(cur, pool, None, M11, IDENT)._offers
    left = {pid: w for pid, (_, w, _) in offers.items()}
    assert left == {"a": 1.5, "b": 1.0}
    # a chunk caps each offer at the chunk
    offers = GreedyBuild(cur, pool, 1.2, M11, IDENT)._offers
    left = {pid: w for pid, (_, w, _) in offers.items()}
    assert left == {"a": 1.2, "b": 1.0}


def test_seed_picks_the_highest_first_content_value():
    pool = make_dist(("hi", 5.0, 1.0, 1.0), ("mix", 2.0, 3.0, 1.0))
    empty = GreedyBuild(Distribution(), pool, None, M11, IDENT)
    seeds = seed_distribution(empty, OptimizerConfig())
    # T(p) * M(c): 3*2 beats 1*5
    assert [i.point.id for i in seeds] == ["mix"]


def test_explicit_seed_policy_uses_listed_ids():
    pool = make_dist(("hi", 5.0, 1.0, 1.0), ("mix", 2.0, 3.0, 1.0))
    cfg = OptimizerConfig(seed_ids=("hi",))
    empty = GreedyBuild(Distribution(), pool, None, M11, IDENT)
    assert [i.point.id for i in seed_distribution(empty, cfg)] == ["hi"]


def test_an_explicit_seed_id_must_be_in_the_pool():
    pool = make_dist(("hi", 5.0, 1.0, 1.0))
    empty = GreedyBuild(Distribution(), pool, None, M11, IDENT)
    with pytest.raises(KeyError, match="seed id 'lo' is not in the pool"):
        seed_distribution(empty, OptimizerConfig(seed_ids=("lo",)))


@pytest.mark.parametrize(
    "optimizer, case",
    [
        ({"seed_policy": "lowest"}, "unknown seed policy 'lowest'"),
        ({"increment_policy": "half_point"}, "unknown increment policy 'half_point'"),
        ({"seed_policy": {"ids": []}}, "explicit seeding needs at least one id"),
    ],
)
def test_build_objects_rejects_policies_without_the_schema(optimizer, case):
    # library callers go through the schema just as the CLI does, and get
    # the error ``jsonschema.validate`` reports for the case
    import jsonschema

    inst = make_instance([("a", 1.0, 1.0, 1.0)], optimizer=optimizer)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(inst, INSTANCE_SCHEMA)
    with pytest.raises(InstanceError) as raised:
        build_objects(inst)
    assert str(raised.value) == (
        f"instance failed schema validation: {expected.value.message}"
    ), case


def test_equal_candidates_break_ties_by_id():
    cur = make_dist(("z", 2.0, 1.0, 1.0))
    pool = make_dist(("z", 2.0, 1.0, 1.0), ("b", 2.0, 1.0, 1.0), ("a", 2.0, 1.0, 1.0))
    inc = best_increment(GreedyBuild(cur, pool, None, M11, IDENT))
    assert inc.point.id == "a"


def test_chunked_weights_split_points():
    pool = make_dist(("a", 2.0, 1.0, 0.26))
    cfg = OptimizerConfig(chunk=0.1)
    trace = greedy_sweep(pool, cfg, M11, IDENT)
    assert [round(s.added.weight, 10) for s in trace] == [0.1, 0.1, 0.06]


def test_sweep_step_bookkeeping_is_consistent():
    pool, model, t, cfg = build_objects(LADDER)
    trace = greedy_sweep(pool, cfg, model, t)
    assert [s.added.point.id for s in trace] == sorted(pool.ids())
    n = 0.0
    for s in trace:
        n += s.added.weight
        assert s.n_after == pytest.approx(n, rel=1e-12)
        assert s.m_after == pytest.approx(model.m(s.q_after), rel=1e-12)
    # mean consumer value never rises along the build, which opens with
    # participation above volume
    qs = [s.q_after for s in trace]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(qs, qs[1:]))
    assert trace[0].m_after > trace[0].n_after


def test_probe_stops_at_a_non_positive_slope():
    pool, model, t, cfg = build_objects(LADDER)
    prefix = Distribution([(pt, w) for pt, w in pool.items() if pt.id <= "p06"])
    build = GreedyBuild(prefix, pool, cfg.chunk, model, t)
    k, increments = best_next_in_sequence(build)
    assert [i.point.id for i in increments] == ["p07"]
    # the probe advanced the build it was given
    block = Distribution([(i.point, i.weight) for i in increments])
    assert build.d == combine(prefix, block)
    assert k == pytest.approx(-1.0 / 13.0, rel=1e-12)


def test_probe_reports_exhaustion_when_the_pool_runs_dry():
    # b raises the running mean, so the block slope lands inside (0, 1)
    # and the pool dries up before the probe can settle
    pool = make_dist(("a", 3.0, 1.0, 0.5), ("b", 3.2, 1.0, 0.5))
    prefix = make_dist(("a", 3.0, 1.0, 0.5))
    k, increments = best_next_in_sequence(GreedyBuild(prefix, pool, None, M11, IDENT))
    assert [i.point.id for i in increments] == ["b"]
    assert k == pytest.approx(0.2, rel=1e-12)


def test_viability_respects_the_build_order():
    pool, model, t, cfg = build_objects(LADDER)
    res = optimize(pool, cfg, model, t)
    last = res.trace[-1].added

    def viable(candidate: PointIncrement) -> bool:
        """The earlier slope stays at or under the adjusted ordering limit."""
        block = candidate.as_distribution()
        ctx = ExtensionContext.from_run(
            res.d_star, last, block, model, t, cfg.iota, cfg.consumer_mode
        )
        assert ctx.r1 == last  # measured against the base the last step joined
        _, adjusted = x_u_kappa(ctx.n_r1, ctx.n_r2, ctx.tp1_ratio, ctx.tp2_ratio)
        return ctx.kappa_ar2 <= adjusted + 1e-12

    # a candidate far better than anything accepted could not have been
    # deferred to the tail, so it is not a consistent late arrival
    assert not viable(PointIncrement(Point("z", 5.0, 1.0), 0.3))
    assert viable(PointIncrement(Point("z", 0.5, 1.0), 0.3))


# -- candidate scoring against a per-step base ---------------------------


def _direct_delta_v(d, c, p, weight, model, t):
    """The extended value at the realized share minus V(D), each from a
    full pass over d."""
    if d.is_empty():
        return t.apply(p) * model.m(c)
    phi = weight / (d.n + weight)
    e = expected_t(d, t)
    q = d.q
    xi = (e + phi * (t.apply(p) - e)) * model.m(q + phi * (c - q))
    return xi - expected_t(d, t) * potential(model, d)


def _reference_best_increment(d, d_all, cfg, model, t):
    """The per-candidate loop that rescored the whole base for every candidate."""
    best = best_inc = None
    for point, total in d_all.items():
        available = total - d.weight_of(point.id)
        if available <= DROP_TOLERANCE:
            continue
        weight = available if cfg.chunk is None else min(cfg.chunk, available)
        score = delta_v_of_increment(d, point.c, point.p, weight, model, t)
        assert score == _direct_delta_v(d, point.c, point.p, weight, model, t)
        key = (-score, (-point.c, -t.apply(point.p), point.id))
        if best is None or key < best:
            best, best_inc = key, PointIncrement(point, weight)
    return best_inc


# few distinct values, so equal scores and tie-breaks come up often
_C = st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-1.0, 5.0))
_P = st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.5])
_W = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 4.0))

_MODELS = st.one_of(
    st.builds(ParticipationModel.power, st.floats(0.1, 10.0), st.floats(0.05, 1.0)),
    # a power curve ignores a cap it carries
    st.builds(
        lambda zeta, alpha, cap: ParticipationModel("power", zeta, alpha, cap=cap),
        st.floats(0.1, 10.0),
        st.floats(0.05, 1.0),
        st.floats(0.1, 2.0),
    ),
    st.builds(
        ParticipationModel.saturating,
        st.floats(0.1, 10.0),
        st.floats(0.05, 1.0),
        st.floats(0.1, 20.0),
    ),
    # capped at the curve's value at a sampled c, so mixes fall on both
    # sides of the cap and, where a mix equals that c, exactly at it
    st.builds(
        lambda zeta, alpha, c: ParticipationModel.saturating(zeta, alpha, zeta * c**alpha),
        st.floats(0.1, 10.0),
        st.floats(0.05, 1.0),
        st.sampled_from([0.5, 1.0, 2.0]),
    ),
    st.lists(st.floats(0.1, 6.0), min_size=1, max_size=6, unique=True).map(
        lambda qs: ParticipationModel.from_table(
            [(q, 0.5 * k + q) for k, q in enumerate(sorted(qs))]
        )
    ),
)

_CONFIGS = st.one_of(
    st.just(OptimizerConfig()),
    st.builds(
        lambda chunk: OptimizerConfig(chunk=chunk),
        st.sampled_from([0.3, 0.5, 1.0]),
    ),
)


def _transform(kind, ps):
    if kind == "identity":
        return ProducerTransform.identity()
    if kind == "affine":
        return ProducerTransform.affine(-0.5, 2.0)
    return ProducerTransform.from_table([(p, round(math.sqrt(p) + 0.1, 6)) for p in ps])


# a base of half of the first row puts Q, and so the mix of every offer
# with c = 1, at 1 exactly, and the rows' other mixes on both sides of it.
# Under M(q) = 2 sqrt(q) the c = 2 offer scores best, and capping M at
# M(1) = 2 hands the step to the last row
_AT_ONE = [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 2.0, 1.0), (1.0, 3.0, 0.5)]


@settings(max_examples=300, deadline=None)
@example(  # mixes below, at and above the cap
    rows=_AT_ONE, model=ParticipationModel.saturating(2.0, 0.5, 2.0), kind="identity",
    cfg=OptimizerConfig(), taken=0.25, share=0.5, appeal=True,
)
@example(  # the cap, were it applied, would change the best offer
    rows=_AT_ONE, model=ParticipationModel("power", 2.0, 0.5, cap=1.0), kind="identity",
    cfg=OptimizerConfig(), taken=0.25, share=0.5, appeal=True,
)
@example(  # every mix is at most 0
    rows=_AT_ONE, model=ParticipationModel("power", 2.0, 0.5, cap=1.0), kind="affine",
    cfg=OptimizerConfig(), taken=0.25, share=0.5, appeal=False,
)
@given(
    rows=st.lists(st.tuples(_C, _P, _W), min_size=1, max_size=24),
    model=_MODELS,
    kind=st.sampled_from(["identity", "affine", "table"]),
    cfg=_CONFIGS,
    taken=st.floats(0.0, 1.0),
    share=st.sampled_from([1.0, 0.5]),
    appeal=st.booleans(),
)
def test_best_increment_matches_the_per_candidate_reference(
    rows, model, kind, cfg, taken, share, appeal
):
    if not appeal:
        # nothing draws participation, so every score ties and the tie key decides
        rows = [(min(c, 0.0), p, w) for c, p, w in rows]
    # ids out of insertion order, so the id tie-break is really exercised
    points = [Point(f"p{(7 * i) % 31:02d}", c, p) for i, (c, p, _) in enumerate(rows)]
    pool = Distribution([(pt, w) for pt, (_, _, w) in zip(points, rows)])
    k = int(taken * len(rows)) if share < 1 else int(taken * (len(rows) - 1))
    base = Distribution([(pt, w * share) for pt, (_, _, w) in zip(points[:k], rows[:k])])
    t = _transform(kind, sorted({p for _, p, _ in rows}))
    want = _reference_best_increment(base, pool, cfg, model, t)
    assert best_increment(GreedyBuild(base, pool, cfg.chunk, model, t)) == want


# every mix below lies in [0.05, 6], so a cap of 10 never binds and M(q) = q
@pytest.mark.parametrize(
    "model", [M11, ParticipationModel.saturating(1.0, 1.0, 10.0)], ids=["power", "saturating"]
)
@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.floats(0.05, 6.0), st.floats(0.05, 6.0)), min_size=1, max_size=10),
    weight=st.floats(0.05, 4.0),
    x=st.floats(0.05, 6.0),
    n=st.floats(0.05, 4.0),
)
def test_best_increment_keeps_the_exact_ties_of_swapped_values(model, pairs, weight, x, n):
    # under M(q) = q and T(p) = p, on a base with E = Q, ΔV is
    # (E + φ (p − E)) * (Q + φ (c − Q)) − V, so a point and its twin with c
    # and p swapped tie exactly and the higher c takes the tie.  Scoring
    # arithmetic that rounds one factor otherwise than
    # ``delta_v_of_increment`` and ``ParticipationModel.m`` do breaks such
    # ties at random
    base = make_dist(("base", x, x, n))
    rows = [(f"a{i}", c, p, weight) for i, (c, p) in enumerate(pairs)]
    rows += [(f"b{i}", p, c, weight) for i, (c, p) in enumerate(pairs)]
    pool = make_dist(("base", x, x, n), *rows)
    want = _reference_best_increment(base, pool, OptimizerConfig(), model, IDENT)
    assert best_increment(GreedyBuild(base, pool, None, model, IDENT)) == want


@pytest.mark.parametrize("size", [8, 80, 320])
def test_best_increment_passes_over_the_base_a_fixed_number_of_times(size, monkeypatch):
    calls = []
    original = core.expected_t

    def counted(d, t):
        calls.append(len(d))
        return original(d, t)

    for module in (core, sequence, valuation):
        if hasattr(module, "expected_t"):  # every binding the scorer could call
            monkeypatch.setattr(module, "expected_t", counted)
    rows = [(f"x{i:03d}", 1.0 + (i * 37 % 101) / 50.0, (i % 5) / 2.0, 1.0) for i in range(size)]
    pool = make_dist(*rows)
    base = make_dist(*rows[: size // 2])
    for cfg in (OptimizerConfig(), OptimizerConfig(chunk=0.5)):
        calls.clear()
        best_increment(GreedyBuild(base, pool, cfg.chunk, M11, IDENT))
        assert len(calls) <= 2, f"{len(calls)} passes over the base at pool size {size}"


@pytest.mark.parametrize("offers", [8, 80, 320])
def test_best_increment_calls_a_power_family_curve_once_per_step(offers, monkeypatch):
    # on a non-empty base the power and saturating curves are evaluated in
    # the scoring loop, so ``m`` runs once, for the base's V, whatever the
    # number of offers; a table curve and the empty base still go through ``m``
    calls = 0
    original = ParticipationModel.m

    def counted(self, q):
        nonlocal calls
        calls += 1
        return original(self, q)

    monkeypatch.setattr(ParticipationModel, "m", counted)
    rows = [
        (f"x{i:03d}", 1.0 + (i * 37 % 101) / 50.0, (i % 5) / 2.0, 1.0) for i in range(2 * offers)
    ]
    pool = make_dist(*rows)
    base = make_dist(*rows[:offers])
    table = ParticipationModel.from_table([(1.0, 1.0), (2.0, 1.5), (4.0, 1.75)])
    inline = [M11, ParticipationModel.saturating(1.0, 0.5, 1.5),
              ParticipationModel("power", 2.0, 0.5, cap=1.0)]
    for cfg in (OptimizerConfig(), OptimizerConfig(chunk=0.5)):
        for model in inline + [table]:
            calls = 0
            best_increment(GreedyBuild(base, pool, cfg.chunk, model, IDENT))
            if model is table:
                assert calls >= offers
            else:
                assert calls <= 1, f"{calls} curve calls for {model.kind} at {offers} offers"
        for model in inline:
            calls = 0
            best_increment(GreedyBuild(Distribution(), pool, cfg.chunk, model, IDENT))
            assert calls >= 2 * offers


@pytest.mark.parametrize(
    "instance, min_steps",
    [
        (lambda: generate_instance("uniform", 7, 80), 20),
        # a carve restart and a return to D* seed new builds mid-run
        (lambda: find_scenario_instance("Scenario_ii_ConsumerPrefers", 300, 4, True).instance, 3),
        (lambda: find_scenario_instance("ContinueToD2Star_Thm4", 300, 3).instance, 3),
    ],
    ids=["uniform-80", "carve", "d2"],
)
def test_a_greedy_step_takes_e_of_its_state_once(instance, min_steps, monkeypatch):
    # E(T|D) of a state that ``add`` (and so ``record``) reaches comes with
    # the state, from the build's running sums: neither ``add`` nor any
    # later ``expected_t`` of that state passes over its entries, which
    # would apply T to each of them
    reached: dict[int, Distribution] = {}  # both kept alive, so no id is reused
    passed: dict[int, Distribution] = {}
    applies = 0
    add_applies = 0
    apply = ProducerTransform.apply
    add = GreedyBuild.add

    def counted_apply(self, p):
        nonlocal applies
        applies += 1
        return apply(self, p)

    def counted_add(self, inc):
        nonlocal add_applies
        before = applies
        add(self, inc)
        add_applies += applies - before
        reached[id(self.d)] = self.d

    pool, model, t, cfg = build_objects(instance())
    original = core.expected_t

    def counted(d, t):
        before = applies
        value = original(d, t)
        if applies > before:
            passed[id(d)] = d
        return value

    monkeypatch.setattr(ProducerTransform, "apply", counted_apply)
    monkeypatch.setattr(GreedyBuild, "add", counted_add)
    for name, module in list(sys.modules.items()):
        if name.startswith("distopt") and getattr(module, "expected_t", None) is original:
            monkeypatch.setattr(module, "expected_t", counted)
    result = optimize(pool, cfg, model, t)
    assert len(reached) >= len(result.trace) >= min_steps
    assert add_applies == 0, "add applied T"
    assert not passed.keys() & reached.keys(), "a state reached by add summed E(T|D)"


def test_scoring_applies_t_to_no_offer(monkeypatch):
    # T(p) is taken when a build is made; a step whose base already has
    # E(T|D) cached scores every offer without applying T again
    pool, model, t, _ = build_objects(generate_instance("uniform", 7, 40))
    applies = 0
    apply = ProducerTransform.apply

    def counted_apply(self, p):
        nonlocal applies
        applies += 1
        return apply(self, p)

    for chunk in (None, 0.5):
        build = GreedyBuild(Distribution(), pool, chunk, model, t)
        for _ in range(6):
            build.add(build.best())
        twin = build.copy()
        empty = GreedyBuild(Distribution(), pool, chunk, model, t)
        expected_t(build.d, t)
        monkeypatch.setattr(ProducerTransform, "apply", counted_apply)
        best_increment(empty)
        best_increment(build)
        best_increment(twin)
        monkeypatch.undo()
        assert applies == 0


# -- the offers a build keeps ----------------------------------------------


def _offers(build) -> list[tuple[Point, str, str]]:
    """Each offer's point, weight and the T(p) the build took for it."""
    return [(pt, w.hex(), tp.hex()) for pt, w, tp in build._offers.values()]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_C, _P, _W), min_size=1, max_size=12),
    chunk=st.one_of(st.none(), st.floats(0.01, 2.0)),
    picks=st.lists(st.one_of(st.none(), st.integers(0, 1000)), min_size=1, max_size=40),
    restart_at=st.integers(1, 40),
    restart=st.sampled_from(["carve", "rewind"]),
    share=st.floats(0.05, 1.0),
    copy_at=st.integers(0, 12),
    copy_picks=st.lists(st.one_of(st.none(), st.integers(0, 1000)), min_size=1, max_size=5),
)
def test_a_kept_pool_equals_a_fresh_one(
    rows, chunk, picks, restart_at, restart, share, copy_at, copy_picks
):
    # a run takes best or arbitrary offers and keeps its build's offers
    # current with ``add``; after every step, and after a restart that
    # retires a carve or rewinds to an earlier state, they and their T(p)
    # equal a freshly built build's, bit for bit.  A copy of the run's
    # build, as a probe takes, goes on without touching the run's
    points = [Point(f"p{i:02d}", c, p) for i, (c, p, _) in enumerate(rows)]
    d_all = Distribution([(pt, w) for pt, (_, _, w) in zip(points, rows)])
    run = _Run(d_all, OptimizerConfig(chunk=chunk), M11, IDENT)
    available = d_all

    def fresh(d=None):
        d = run.current if d is None else d
        return _offers(GreedyBuild(d, available, chunk, M11, IDENT))

    def take(build, pick):
        if pick is None:
            return build.best()
        offers = [(pt, w) for pt, w, _ in build._offers.values()]
        return PointIncrement(*offers[pick % len(offers)])

    for step, pick in enumerate(picks):
        if step == restart_at and restart == "carve":
            y = Distribution([(pt, w * share) for pt, w in run.current.items()])
            d_plus = remove_subdistribution(run.current, y)
            available = remove_subdistribution(available, y)
            run.restart(d_plus, y)
        elif step == restart_at:
            # the state after an earlier step, rebuilt from the trace
            earlier = Distribution()
            for s in run.steps[: 1 + int(share * (len(run.steps) - 1))]:
                earlier = apply_increment(earlier, s.added)
            run.restart(earlier)
        assert _offers(run.build) == fresh()
        if not run.build:
            break
        if step == copy_at:
            state, offers = run.build.d, _offers(run.build)
            twin = run.build.copy()
            for twin_pick in copy_picks:
                if not twin:
                    break
                twin.add(take(twin, twin_pick))
                assert _offers(twin) == fresh(twin.d)
            assert run.build.d is state
            assert _offers(run.build) == offers
        run.record_step(take(run.build, pick))
        assert _offers(run.build) == fresh()
