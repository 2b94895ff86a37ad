"""The ``--format csv`` trace sweep resumes from the optimizer's greedy prefix.

``optimize`` counts the leading trace steps that lie on the plain greedy
build (``OptimizationResult.greedy_steps``) and ``cli.sweep_csv`` hands them
to ``greedy_sweep``, which replays them instead of scoring them again.  The
oracle here is the from-scratch sweep, every step scored, kept as its own
loop; the resumed CSV must equal the CSV of that sweep byte for byte.
"""
from __future__ import annotations

import json

import pytest

from distopt import cli, optimizer, sequence
from distopt.core import Distribution, apply_increment
from distopt.instances import build_objects
from distopt.oracle import find_scenario_instance, generate_instance
from distopt.optimizer import optimize
from distopt.sequence import (
    ExhaustedPoolError,
    GreedyBuild,
    best_increment,
    seed_distribution,
)
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


def _reference_sweep(d_all, cfg, model, t) -> tuple:
    """The from-scratch sweep: every step scored from a freshly built build,
    the seed block one step, at most ten steps per pool point."""
    steps = []
    d = Distribution()
    taken = 0
    while taken < 10 * max(1, len(d_all)):
        build = GreedyBuild(d, d_all, cfg.chunk, model, t)
        try:
            if d.is_empty():
                incs = seed_distribution(build, cfg)
            else:
                incs = [best_increment(build)]
        except ExhaustedPoolError:
            break
        for inc in incs:
            build.record(inc, steps)
        d = build.d
        taken += 1
        if not GreedyBuild(d, d_all, cfg.chunk, model, t):
            break
    return tuple(steps)


def _searched(kind: str, seed: int, carve: bool = False) -> dict:
    found = find_scenario_instance(kind, budget=300, rng_seed=seed, require_carveout=carve)
    assert found is not None, f"no {kind} instance at seed {seed}"
    return found.instance


def _chunks(inst: dict, chunk: float) -> dict:
    inst.setdefault("optimizer", {})["increment_policy"] = {"kind": "unit_chunks", "chunk": chunk}
    return inst


def _seeded(inst: dict, ids: list[str] | None = None) -> dict:
    """An explicit seed block: ``ids``, or else the last two pool points."""
    if ids is None:
        ids = [pt["id"] for pt in inst["points"][-2:]]
    inst.setdefault("optimizer", {})["seed_policy"] = {"ids": ids}
    return inst


KINDS = [
    STAY_AT_D_STAR_THM2,
    CONTINUE_TO_D2_STAR_THM4,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    SCENARIO_IV_STAY,
    UNDER_SERVED,
    SATURATED_CONSUMER,
]

#: name -> builder of the instance
CASES = {
    **{f"kind-{kind}": (lambda kind=kind: _searched(kind, 3)) for kind in KINDS},
    "ii-carve": lambda: _searched(SCENARIO_II_CONSUMER_PREFERS, 4, carve=True),
    "iii-carve": lambda: _searched(SCENARIO_III_PRODUCER_PREFERS, 5, carve=True),
    "d2-reached": lambda: _searched(CONTINUE_TO_D2_STAR_THM4, 0),
    # chunked, the Scenario i block becomes a D²* climb from a three-step D*
    "d2-after-chunks": lambda: _chunks(_searched(SCENARIO_I_BOTH_PREFER, 1), 0.5),
    # carves after which the build goes on, so the chain ends inside the trace
    "iii-carve-fine-chunks": lambda: _chunks(_searched(SCENARIO_III_PRODUCER_PREFERS, 6), 0.05),
    "uniform-31-carve": lambda: generate_instance("uniform", 1062, 31),
    "explicit-seed-carve": lambda: _seeded(generate_instance("uniform", 1026, 31), ["p20"]),
    # 0.05 chunks need more than ten steps per point: the step limit binds
    "fine-chunks-12": lambda: _chunks(generate_instance("uniform", 20, 12), 0.05),
    "explicit-seed-30": lambda: _seeded(generate_instance("uniform", 20, 30)),
    # with a two-point seed block the limit is 10 * len(pool) + 1 increments
    "fine-chunks-explicit-seed-12": lambda: _seeded(
        _chunks(generate_instance("uniform", 20, 12), 0.05)
    ),
    # a probe block adopted near the budget takes the trace past the sweep's limit
    "chain-past-limit": lambda: _chunks(_searched(CONTINUE_TO_D2_STAR_THM4, 9), 0.07),
    "chunks-0.3": lambda: _chunks(generate_instance("monotone", 21, 20), 0.3),
}


def _csv_pair(inst: dict, monkeypatch) -> tuple[str, str, object, object]:
    """The CLI's trace CSV and the oracle's, with the result and pool."""
    pool, model, t, cfg = build_objects(json.loads(json.dumps(inst)))
    result = optimize(pool, cfg, model, t)
    got = cli.sweep_csv(pool, cfg, result, model, t)
    with monkeypatch.context() as m:
        m.setattr(
            cli,
            "greedy_sweep",
            lambda d_all, scfg, model, t, prefix=(): _reference_sweep(d_all, scfg, model, t),
        )
        want = cli.sweep_csv(pool, cfg, result, model, t)
    return got, want, result, pool


@pytest.mark.parametrize("name", list(CASES))
def test_resumed_sweep_csv_equals_the_from_scratch_sweep(name, monkeypatch):
    got, want, result, pool = _csv_pair(CASES[name](), monkeypatch)
    assert got == want
    assert 0 <= result.greedy_steps <= len(result.trace)
    if name.startswith("d2-"):
        assert result.d2_star is not None
        assert result.greedy_steps == len(result.trace)
    if name == "fine-chunks-12":
        assert want.count("\n") - 1 == 10 * len(pool)
    if name == "fine-chunks-explicit-seed-12":
        assert want.count("\n") - 1 == 10 * len(pool) + 1
    if name == "chain-past-limit":
        assert result.greedy_steps > 10 * len(pool)


def test_carve_instances_cover_a_chain_that_ends_inside_the_trace(monkeypatch):
    shorter = []
    carves = ("ii-carve", "iii-carve", "iii-carve-fine-chunks", "uniform-31-carve", "explicit-seed-carve")
    for name in carves:
        _, _, result, _ = _csv_pair(CASES[name](), monkeypatch)
        assert result.carveouts, name
        if result.greedy_steps < len(result.trace):
            shorter.append(name)
    assert shorter


def test_cases_cover_every_verdict_kind():
    kinds = set()
    for build in CASES.values():
        pool, model, t, cfg = build_objects(build())
        result = optimize(pool, cfg, model, t)
        kinds.add(result.verdict.kind)
        kinds.update(e.kind for e in result.events)
    assert kinds >= set(KINDS)


@pytest.mark.parametrize(
    "name, length",
    [
        # the corpus reaches D²* only from the last state built: with D* one
        # state earlier, the continuation's steps are not on the greedy chain
        ("d2-after-chunks", -1),
        # D* inside the two-point seed block: no whole step of the sweep
        ("explicit-seed-30", 1),
    ],
)
def test_a_crossing_before_the_last_state_counts_the_chain_only_to_it(
    name, length, monkeypatch
):
    def forced(run):
        # D* is the state after the first ``length`` trace steps (all but
        # the last ``-length`` of them), rebuilt by replaying those steps
        assert not run.carveouts
        steps = run.steps[:length]
        d = Distribution()
        for s in steps:
            d = apply_increment(d, s.added)
        return d, len(steps)

    inst = CASES[name]()
    monkeypatch.setattr(optimizer._Run, "best_snapshot", forced)
    got, want, result, _ = _csv_pair(inst, monkeypatch)
    assert result.greedy_steps < len(result.trace)
    if name == "d2-after-chunks":
        assert result.d2_star is not None
    else:
        assert result.greedy_steps == 1
    assert got == want


def test_each_greedy_build_walks_the_pool_once(monkeypatch, tmp_path):
    # the run and the sweep construct one ``GreedyBuild`` each, and each
    # probe (whose build a lookahead goes on with) copies the run's; all
    # keep their offers current step by step: the constructions are
    # bounded by a constant, not by the step count
    builds: list[int] = []
    scored: list[int] = []
    sweeps: list[tuple[int, int]] = []
    real_init, real_score, real_sweep = (
        sequence.GreedyBuild.__init__,
        sequence.best_increment,
        sequence.greedy_sweep,
    )

    def counted_init(self, *args):
        builds.append(1)
        real_init(self, *args)

    def counted_score(*args):
        scored.append(1)
        return real_score(*args)

    def counted_sweep(d_all, cfg, model, t, prefix=()):
        before = len(scored)
        trace = real_sweep(d_all, cfg, model, t, prefix)
        sweeps.append((len(prefix), len(scored) - before))
        return trace

    monkeypatch.setattr(sequence.GreedyBuild, "__init__", counted_init)
    for module in (sequence, optimizer, cli):
        if hasattr(module, "best_increment"):
            monkeypatch.setattr(module, "best_increment", counted_score)
    monkeypatch.setattr(cli, "greedy_sweep", counted_sweep)

    inst = generate_instance("uniform", 7, 80)
    src = tmp_path / "pool.json"
    src.write_text(cli.canonical_json(inst))
    out = tmp_path / "out.json"
    cli.main(["optimize", "--input", str(src), "--output", str(out), "--format", "csv"])

    assert len(scored) >= 40
    assert len(builds) <= 6, f"{len(builds)} builds for {len(scored)} scorings"
    [(prefix, sweep_scored)] = sweeps
    assert prefix > 1
    assert sweep_scored <= len(inst["points"]) - prefix + 1
