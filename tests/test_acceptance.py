from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import time

import pytest

from distopt import cli
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
from distopt.instances import SCHEMA_VERSION, build_objects
from distopt.oracle import (
    crosscheck_thresholds,
    find_scenario_instance,
    finite_difference_facts,
    generate_instance,
)
from distopt.optimizer import CROSSING_REL_TOL, optimize
from distopt.sequence import ExhaustedPoolError, GreedyBuild, best_increment
from distopt.participation import ParticipationModel, potential
from distopt.thresholds import (
    ADAPTIVE,
    CONTINUE_TO_D2_STAR_THM4,
    REACTIVE,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    STAY_AT_D_STAR_THM2,
    threshold_report,
    viability_limit_m_ratio,
)
from distopt.valuation import delta_s, delta_v_of_increment

from conftest import FIVE_POINT, LADDER, make_instance
from reference import brute_force_w_max, synthesize, v_value

IDENT = ProducerTransform.identity()


def _rand_point(rng: random.Random, prefix: str, i: int) -> tuple[Point, float]:
    pt = Point(f"{prefix}{i}", rng.uniform(0.1, 9.0), rng.uniform(0.0, 2.0))
    return pt, rng.uniform(0.05, 3.0)


def _rand_dist(rng: random.Random, prefix: str, size: int) -> Distribution:
    return Distribution([_rand_point(rng, prefix, i) for i in range(size)])


def _w_of(d: Distribution, model: ParticipationModel) -> float:
    return min(potential(model, d), d.n)


def test_distribution_algebra_is_additive_and_order_invariant():
    """Mixing distributions commutes and total value adds, at scale."""
    rng = random.Random(20240801)
    start = time.monotonic()
    ops = 0
    while ops < 10_000:
        a = _rand_dist(rng, "a", rng.randint(1, 6))
        b = _rand_dist(rng, "b", rng.randint(1, 6))
        ab, ba = combine(a, b), combine(b, a)
        ops += 2
        assert ab.n == pytest.approx(ba.n, rel=1e-12)
        assert ab.q == pytest.approx(ba.q, rel=1e-12)
        total = a.q * a.n + b.q * b.n
        assert ab.q * ab.n == pytest.approx(total, rel=1e-12)

        grown, grown_total = a, a.q * a.n
        for i in range(3):
            pt, w = _rand_point(rng, "x", i)
            grown = apply_increment(grown, PointIncrement(pt, w))
            ops += 1
            grown_total += pt.c * w
        assert grown.q * grown.n == pytest.approx(grown_total, rel=1e-12)
    assert time.monotonic() - start < 5.0


def test_value_delta_closed_form_and_rankings_agree():
    """The closed-form value delta matches direct differencing, and ranking
    unit candidates by the potential value after inclusion picks the same
    winner as ranking them by their value delta."""
    rng = random.Random(31337)
    model = ParticipationModel.power(1.2, 0.55)
    t = ProducerTransform.affine(1.1, 0.3)
    start = time.monotonic()

    for trial in range(1_000):
        base = _rand_dist(rng, "b", rng.randint(1, 6))
        d2 = base
        for i in range(rng.randint(1, 4)):
            pt, w = _rand_point(rng, "x", i)
            d2 = apply_increment(d2, PointIncrement(pt, w))
        direct = v_value(d2, model, t) - v_value(base, model, t)
        assert delta_s(base, d2, model, t).delta_v == pytest.approx(
            direct, rel=1e-10, abs=1e-12
        ), f"pair {trial}"

    for trial in range(200):
        base = _rand_dist(rng, "b", rng.randint(1, 5))
        cands = [(rng.uniform(0.1, 9.0), rng.uniform(0.0, 2.0)) for _ in range(7)]
        e, q = expected_t(base, t), base.q

        def xi(c: float, p: float, share: float) -> float:
            """Potential value of the base extended by a share of (c, p)."""
            return (e + share * (t.apply(p) - e)) * model.m(q + share * (c - q))

        # the share of one unit joining the base
        share = 1.0 / (base.n + 1.0)
        by_xi = max(range(7), key=lambda i: xi(*cands[i], share))
        by_delta = max(
            range(7),
            key=lambda i: delta_v_of_increment(base, cands[i][0], cands[i][1], 1.0, model, t),
        )
        assert by_xi == by_delta, f"set {trial}"
    assert time.monotonic() - start < 5.0


def test_crossing_build_matches_brute_force_and_rejects_deviations():
    """On pools whose greedy build never raises potential participation,
    the chosen prefix hits the brute-force peak of min(M, N) exactly, and
    stepping the sequence back or forward never improves on it."""
    start = time.monotonic()
    for seed in range(500):
        inst = generate_instance("monotone", seed, size=4 + seed % 9)
        pool, model, t, cfg = build_objects(inst)
        res = optimize(pool, cfg, model, t)
        w_star = _w_of(res.d_star, model)
        bf = brute_force_w_max(pool, model, t, subset_cap=0)
        assert w_star == bf.best_prefix_w, f"seed {seed}"

        # the chosen set is a prefix of the build trace: one whole point
        # per step, so its final step is the k-th one
        bound = w_star + 1e-12 * max(1.0, abs(w_star))
        k = len(res.d_star.ids())
        last = res.trace[k - 1].added
        assert res.d_star.weight_of(last.point.id) == last.weight, f"seed {seed}"
        if k >= 2:
            d_minus = remove_subdistribution(res.d_star, last.as_distribution())
            assert _w_of(d_minus, model) <= bound, f"seed {seed}: step back"
        try:
            nxt = best_increment(
                GreedyBuild(res.d_star, pool, cfg.chunk, model, t)
            )
        except ExhaustedPoolError:
            continue
        d_plus = apply_increment(res.d_star, nxt)
        assert _w_of(d_plus, model) <= bound, f"seed {seed}: step forward"
    assert time.monotonic() - start < 60.0


def test_five_point_checkpoint():
    start = time.monotonic()
    pool, model, t, cfg = build_objects(FIVE_POINT)
    res = optimize(pool, cfg, model, t)
    assert sorted(res.d_star.ids()) == ["c2", "c3", "c4", "c5"]
    assert res.n_star == 4.0
    assert res.verdict.witness is not None
    assert res.verdict.witness.kappa_r2 == pytest.approx(-0.5, rel=1e-12)
    assert time.monotonic() - start < 1.0


def test_threshold_rules_agree_with_measured_deltas():
    report = crosscheck_thresholds(10_000)
    assert report.mismatches == (), report.mismatches[:3]
    assert report.checked >= 10_000


def test_threshold_boundary_identities():
    # a worthless candidate puts the realized-value threshold exactly at 1
    for mode in (ADAPTIVE, REACTIVE):
        for n2 in (0.1, 0.5, 0.9):
            r = threshold_report(
                synthesize(
                    n_r1=0.2, n_r2=n2, tp2_ratio=0.0, c2_ratio=2.0, alpha=0.5,
                    consumer_mode=mode,
                )
            )
            assert r["x_l_kappa"] == 1.0

    # vanishing extension volume: the ordering limit collapses to 1, or to
    # the last point's transform correction when it sat below average
    for n1 in (0.05, 0.25, 0.6):
        for tp2 in (0.0, 0.4, 0.95):
            assert viability_limit_m_ratio(n1, 0.0, 1.0, tp2) == 1.0
            for tp1 in (0.5, 2.0, 3.5):
                assert viability_limit_m_ratio(n1, 0.0, tp1, tp2) == pytest.approx(
                    1.0 + n1 * (tp1 - 1.0), rel=1e-12
                )

    # the transform cutoff sits below 1 whenever the candidate is below average
    for tp2 in (0.0, 0.3, 0.7, 0.999):
        for n2 in (0.05, 0.4, 0.9):
            r = threshold_report(
                synthesize(
                    n_r1=0.25, n_r2=n2, tp2_ratio=tp2, c2_ratio=2.0, alpha=0.5
                )
            )
            assert r["tau"] < 1.0

    # worthless candidate joining an even base: exclusion is purely volumetric
    def gain_exclusion_holds(n1: float, n2: float, c1a: float, c2a: float) -> bool:
        denom = 1.0 - n2 * (1.0 - c1a)
        if abs(denom) < 1e-12:
            return False
        return (1.0 + c2a * n2) * (1.0 - n2) / denom > n1

    for n1 in (0.05, 0.3, 0.51, 0.8):
        for n2 in (0.04, 0.3, 0.52, 0.9):
            assert gain_exclusion_holds(n1, n2, 1.0, 0.0) == (1.0 - n2 > n1)


def test_finite_difference_sign_suites():
    start = time.monotonic()
    report = finite_difference_facts(50)
    assert report.mismatches == (), report.mismatches[:3]
    assert report.checked > 0
    assert time.monotonic() - start < 10.0


def test_carveouts_are_certified_and_survive_exhaustive_recheck():
    """Every carve found by the scenario searcher keeps both parties whole,
    removes less volume than the extension added, lands near the crossing,
    and agrees with an exhaustive subset enumeration of its carve pool."""
    instances = []
    for kind in (SCENARIO_II_CONSUMER_PREFERS, SCENARIO_III_PRODUCER_PREFERS):
        for seed in range(12):
            found = find_scenario_instance(
                kind, budget=20, rng_seed=seed, require_carveout=True
            )
            assert found is not None, (kind, seed)
            instances.append(found)
    assert len(instances) >= 20

    for found in instances:
        carve = found.result.carveouts[-1]
        _, model, t, _ = build_objects(found.instance)
        tol = CROSSING_REL_TOL

        d_prime = combine(carve.d_plus, carve.y)
        pre = remove_subdistribution(d_prime, carve.r2)
        w_r2 = carve.r2.n
        budget_c = carve.r2.q * w_r2
        budget_t = expected_t(carve.r2, t) * w_r2

        y_c = math.fsum(w * pt.c for pt, w in carve.y.items())
        y_t = math.fsum(w * t.apply(pt.p) for pt, w in carve.y.items())
        assert y_c <= budget_c + 1e-9, "carve spent more consumer value than gained"
        assert y_t <= budget_t + 1e-9, "carve spent more producer value than gained"
        assert carve.consumer_gain == pytest.approx(budget_c - y_c, abs=1e-9)
        assert carve.producer_slack == pytest.approx(budget_t - y_t, abs=1e-9)
        assert carve.n_y < w_r2, "carve may not swallow the extension's volume"

        m_plus, n_plus = potential(model, carve.d_plus), carve.d_plus.n
        assert abs(m_plus - n_plus) / n_plus <= tol + 1e-12

        cands = [(pt, w) for pt, w in pre.items() if pt.c < carve.r2.q]
        if len(cands) > 10:
            continue
        feasible = set()
        for r in range(len(cands) + 1):
            for combo in itertools.combinations(cands, r):
                yc = math.fsum(w * pt.c for pt, w in combo)
                yt = math.fsum(w * t.apply(pt.p) for pt, w in combo)
                if yc > budget_c + 1e-12 or yt > budget_t + 1e-12:
                    continue
                shrunk = remove_subdistribution(d_prime, Distribution(list(combo)))
                m_s = potential(model, shrunk)
                if m_s > shrunk.n * (1.0 + tol):
                    continue
                if abs(m_s - shrunk.n) / max(abs(m_s), abs(shrunk.n)) > tol:
                    continue
                # nothing the certification admits may violate the contract
                assert math.fsum(w for _, w in combo) < w_r2, carve.trigger_kind
                feasible.add(
                    frozenset((pt.id, round(w, 12)) for pt, w in combo)
                )
        assert feasible, "enumeration must confirm feasibility"
        mine = frozenset(
            (pid, round(carve.y.weight_of(pid), 12)) for pid in carve.y.ids()
        )
        assert mine in feasible, "returned carve must be one of the certified sets"


def test_second_crossing_preserves_both_values():
    """Zero-transform extensions that more than replace the lost base pull
    the build to a second crossing with no change in either value."""
    for scale, zeta in ((1.0, 1.0), (4.0, 0.5), (2.0, 0.7071067811865476)):
        inst = {
            "schema_version": SCHEMA_VERSION,
            "points": [
                {"id": "a", "c": 1.0 * scale, "p": 1.0, "n": 1.0},
                {"id": "b", "c": 9.0 * scale, "p": 0.0, "n": 0.5},
                {"id": "f", "c": 5.0 * scale, "p": 0.0, "n": 0.5},
            ],
            "participation": {"kind": "power", "zeta": zeta, "alpha": 0.5},
            "transform": {"kind": "identity"},
        }
        pool, model, t, cfg = build_objects(inst)
        res = optimize(pool, cfg, model, t)
        assert res.verdict.kind == CONTINUE_TO_D2_STAR_THM4, scale
        assert res.d2_star is not None
        assert sorted(res.d2_star.ids()) == ["a", "b", "f"]
        assert abs(res.d2_delta_v) < 1e-9
        assert abs(res.d2_delta_s) < 1e-9
        assert res.d2_crossing_gap <= CROSSING_REL_TOL


def _signs(rows) -> list[int]:
    out = []
    for r in rows:
        diff = float(r["m"]) - float(r["n"])
        if diff != 0.0:
            out.append(1 if diff > 0 else -1)
    return out


def test_csv_curves_reproduce_the_crossing_and_threshold_bands(tmp_path):
    # build curve: supply overtakes demand exactly once
    for name, inst in (("five", FIVE_POINT), ("ladder", LADDER)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(inst))
        out = tmp_path / f"{name}.report.json"
        code = cli.main(
            ["optimize", "--input", str(path), "--output", str(out), "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / f"{name}.report.trace.csv").read_text())))
        signs = _signs(rows)
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1, f"{name}: expected a single crossing, saw {changes}"
        assert any(r["is_d_star"] == "1" for r in rows)

    # threshold curve: producer floor <= tightened ordering limit <= plain
    # ordering limit, wherever the tightened form's premises hold
    inst = make_instance(
        [("c5", 5.0, 1.0, 1.0), ("c4", 4.0, 1.0, 1.0), ("c3", 3.0, 1.0, 1.0),
         ("c2", 2.0, 0.97, 1.0), ("c1", 1.0, 0.5, 1.0)]
    )
    pool, model, t, cfg = build_objects(inst)
    res = optimize(pool, cfg, model, t)
    witness = res.verdict.witness
    assert witness is not None
    text = cli.threshold_csv(witness, res.n_star, res.d_star.q, model)
    tp1, tp2, n1 = witness.tp1_ratio, witness.tp2_ratio, witness.n_r1
    held = 0
    for row in csv.DictReader(io.StringIO(text)):
        n2 = float(row["n_r2"])
        x_l = float(row["x_l_kappa"])
        x_u = float(row["x_u_kappa"])
        alt = float(row["x_u_kappa_alt"])
        tau = ((1.0 - n1) + (2.0 - n1 + n2) * tp2 * n2) / (
            (1.0 - n1 + n2) * (1.0 + tp2 * n2)
        )
        if tp1 <= 1.0 + 1e-12 and tp1 + 1e-12 >= tau:
            held += 1
            assert x_l <= alt + 1e-12, (n2, x_l, alt)
            assert alt <= x_u + 1e-12, (n2, alt, x_u)
    assert held >= 10, "the premise window must cover a real band of volumes"


def test_outputs_are_byte_identical_across_runs(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(LADDER))

    def run_all(tag: str) -> list[bytes]:
        blobs = []
        report = tmp_path / f"{tag}.report.json"
        assert cli.main(
            ["optimize", "--input", str(inst_path), "--output", str(report),
             "--format", "csv"]
        ) == 0
        blobs.append(report.read_bytes())
        blobs.append((tmp_path / f"{tag}.report.trace.csv").read_bytes())
        blobs.append((tmp_path / f"{tag}.report.thresholds.csv").read_bytes())
        gen = tmp_path / f"{tag}.gen.json"
        assert cli.main(
            ["gen", "--profile", "uniform", "--seed", "11", "--output", str(gen)]
        ) == 0
        blobs.append(gen.read_bytes())
        oracle = tmp_path / f"{tag}.oracle.json"
        assert cli.main(
            ["oracle-check", "--samples", "300", "--grid", "6",
             "--output", str(oracle)]
        ) == 0
        blobs.append(oracle.read_bytes())
        return blobs

    assert run_all("first") == run_all("second")
