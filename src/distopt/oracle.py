"""Independent checks of the optimizer and the threshold algebra.

Everything here verifies package behavior from first principles:

* ``crosscheck_thresholds`` samples candidate extensions, measures value
  changes directly on concrete distributions, and compares their signs
  against the closed-form threshold rules written out inline here — it
  deliberately does not call the threshold module for those deltas, so a
  shared algebra slip cannot hide.
* ``finite_difference_facts`` checks the shape claims about the ordering
  limit and the producer window (base value, slopes, curvature, shrinkage)
  by numeric differentiation of the public functions.
* ``find_scenario_instance`` searches seeded instance templates for pools
  whose optimizer run realizes a requested outcome kind, for ``generate``'s
  ``scenario:<Kind>`` profile (``generate_instance`` is re-exported here).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

from .core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    UndefinedMeanError,
    apply_increment,
)
from .generate import _instance, _point, _power_spec, _round6, generate_instance
from .generate import _template_saturated, _template_underserved
from .instances import InstanceError, build_objects
from .optimizer import BuildOrderError, OptimizationResult, optimize
from .participation import ParticipationModel, ZeroVolumeDeltaError, potential
from .thresholds import (
    CONTINUE_TO_D2_STAR_THM4,
    SATURATED_CONSUMER,
    SCENARIO_I_BOTH_PREFER,
    SCENARIO_II_CONSUMER_PREFERS,
    SCENARIO_III_PRODUCER_PREFERS,
    SCENARIO_IV_STAY,
    STAY_AT_D_STAR_THM2,
    UNDER_SERVED,
    viability_limit_m_ratio,
    x_l_kappa,
    x_u_kappa,
)
from .valuation import delta_s

#: comparisons closer than this to a decision boundary are not scored
BOUNDARY_BAND = 1e-9


@dataclass(frozen=True)
class OracleReport:
    checked: int
    skipped: int
    mismatches: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _record(mismatches: list[dict], check: str, **info: Any) -> None:
    """Append a failed check to ``mismatches`` as ``{"check": check, **info}``.

    Both suites call it only when a check fails, so a passing run makes
    no call; they count checked and skipped comparisons in local ints.
    """
    mismatches.append(dict(check=check, **info))


# ---------------------------------------------------------------------------
# sampled sign checks: direct value deltas vs threshold rules
# ---------------------------------------------------------------------------


def _sample_context(rng: random.Random) -> dict[str, float]:
    while True:
        alpha = rng.uniform(0.15, 0.95)
        n_r1 = rng.uniform(0.05, 0.6)
        n_r2 = rng.uniform(0.05, 0.95)
        tp2 = rng.uniform(-0.4, 1.4)
        c2 = rng.uniform(0.2, 2.5)
        if (1.0 - n_r1 + tp2 * n_r2) < 0.05:
            continue
        return {
            "alpha": alpha,
            "n_r1": n_r1,
            "n_r2": n_r2,
            "tp2": tp2,
            "c2": c2,
        }


def crosscheck_thresholds(
    n_samples: int = 10_000, rng_seed: int = 20240817
) -> OracleReport:
    """Compare measured value-change signs against the threshold rules.

    Each sample realizes a unit-volume crossing (two points of unit
    consumer and producer value, participation scaled to meet volume
    exactly) plus a candidate extension, then checks:

    * below-unit slopes: sign of the measured realized-value change
      matches the sign of kappa minus the producer threshold;
    * above-unit slopes: the realized-value change equals the candidate's
      carried value, and the potential-value change is positive exactly
      when kappa clears the producer threshold;
    * the ordering rule: the direct would-the-greedy-have-swapped
      comparison agrees with the kappa bound against the ordering limit.

    Samples inside the boundary band are skipped, not scored.
    """
    if n_samples < 1:
        raise ValueError(f"sample count must be at least 1, got {n_samples}")
    rng = random.Random(rng_seed)
    t = ProducerTransform.identity()
    base = Point(id="a", c=1.0, p=1.0)
    last = Point(id="b", c=1.0, p=1.0)
    mismatches: list[dict] = []
    checked = 0
    skipped = 0
    for i in range(n_samples):
        s = _sample_context(rng)
        alpha, n_r1, n_r2, tp2, c2 = (
            s["alpha"],
            s["n_r1"],
            s["n_r2"],
            s["tp2"],
            s["c2"],
        )
        cand = Point(id="r", c=c2, p=tp2)
        d_a = Distribution([(base, 1.0 - n_r1)])
        d_star = Distribution([(base, 1.0 - n_r1), (last, n_r1)])
        model = ParticipationModel.power(1.0, alpha)
        # by construction Q* = 1, E* = 1, N* = 1, and M(Q*) = 1 = N*

        inc = PointIncrement(cand, n_r2)
        d_prime = apply_increment(d_star, inc)
        m_star = potential(model, d_star)
        m_prime = potential(model, d_prime)
        kappa = (m_prime - m_star) / n_r2

        # inline producer threshold (adaptive): (1 - tp2) / (1 + tp2 n_r2)
        x_l = (1.0 - tp2) / (1.0 + tp2 * n_r2)

        delta = delta_s(d_star, d_prime, model, t)
        ds = delta.delta_s
        if kappa <= 1.0:
            if abs(kappa - x_l) <= BOUNDARY_BAND or abs(ds) <= BOUNDARY_BAND:
                skipped += 1
            else:
                checked += 1
                if (ds > 0) != (kappa > x_l):
                    _record(mismatches, "producer_threshold_sign", sample=i, params=s,
                            kappa=kappa, x_l=x_l, delta_s=ds)
        else:
            carried = tp2 * n_r2  # E* = 1
            checked += 1
            if abs(ds - carried) > 1e-9 * max(1.0, abs(carried)):
                _record(mismatches, "carried_value_above_unit_slope", sample=i,
                        params=s, delta_s=ds, carried=carried)
            dv = delta.delta_v
            if abs(kappa - x_l) > BOUNDARY_BAND and abs(dv) > BOUNDARY_BAND:
                if (dv > 0) != (kappa > x_l):
                    _record(mismatches, "potential_value_sign", sample=i, params=s,
                            kappa=kappa, x_l=x_l, delta_v=dv)

        # ordering rule: direct preference comparison at the earlier base
        m_a = potential(model, d_a)
        m_ar2 = potential(model, apply_increment(d_a, inc))
        kappa_a = (m_ar2 - m_a) / n_r2
        x_u = (1.0 - tp2) / (1.0 - n_r1 + tp2 * n_r2)
        phi2 = n_r2 / (1.0 - n_r1 + n_r2)
        score_cand = (1.0 + phi2 * (tp2 - 1.0)) * m_ar2
        phi1 = n_r1 / (1.0 - n_r1 + n_r1)
        score_last = (1.0 + phi1 * (1.0 - 1.0)) * potential(
            model, apply_increment(d_a, PointIncrement(last, n_r1))
        )
        direct_viable = score_cand <= score_last
        rule_viable = kappa_a <= x_u
        if (
            abs(score_cand - score_last) <= BOUNDARY_BAND
            or abs(kappa_a - x_u) <= BOUNDARY_BAND
        ):
            skipped += 1
        else:
            checked += 1
            if direct_viable != rule_viable:
                _record(mismatches, "ordering_rule", sample=i, params=s,
                        kappa_a=kappa_a, x_u=x_u, score_cand=score_cand,
                        score_last=score_last)
    return OracleReport(checked, skipped, tuple(mismatches))


# ---------------------------------------------------------------------------
# finite-difference shape checks
# ---------------------------------------------------------------------------

_FD_STEP = 1e-6
_FD_MARGIN = 1e-8


def _grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def finite_difference_facts(grid_size: int = 50) -> OracleReport:
    """Differentiate the ordering limit and the producer window numerically.

    Checked claims (all on positive-denominator parameter ranges):

    * the ordering limit in participation-ratio form equals 1 at zero
      candidate weight, grows in candidate weight with slope less than 1
      exactly when the last increment outweighs the candidate's value
      ratio, and is concave;
    * with a non-unit last-increment value ratio tp1 the limit at zero
      weight is 1 + n_r1 (tp1 − 1) and the initial slope scales by the
      same factor;
    * the window between the ordering limit and the producer threshold
      narrows as the candidate's value ratio rises, at a diminishing
      rate, and collapses as that ratio approaches one.
    """
    if grid_size < 2:
        raise ValueError(f"grid size must be at least 2, got {grid_size}")
    mismatches: list[dict] = []
    checked = 0
    skipped = 0
    h = _FD_STEP

    # ordering limit, neutral last increment (tp1 = 1)
    for n_r1 in _grid(0.05, 0.9, grid_size):
        for tp2 in _grid(0.05, 0.95, grid_size):
            f = lambda n2: viability_limit_m_ratio(n_r1, n2, 1.0, tp2)
            base = f(0.0)
            checked += 1
            if abs(base - 1.0) > 1e-12:
                _record(mismatches, "limit_base_value", n_r1=n_r1, tp2=tp2, value=base)
            slope0 = (f(h) - f(0.0)) / h
            if abs(slope0 - 1.0) > 1e-4:
                checked += 1
                if (slope0 < 1.0) != (n_r1 < tp2):
                    _record(mismatches, "limit_initial_slope_vs_unity", n_r1=n_r1,
                            tp2=tp2, slope=slope0)
            else:
                skipped += 1
            for n2 in (0.3, 0.6):
                up, mid, dn = f(n2 + h), f(n2), f(n2 - h)
                slope = (up - dn) / (2 * h)
                curv = (up - 2 * mid + dn) / (h * h)
                checked += 1
                if slope <= _FD_MARGIN:
                    _record(mismatches, "limit_slope_positive", n_r1=n_r1, tp2=tp2,
                            n_r2=n2, slope=slope)
                checked += 1
                if curv >= -_FD_MARGIN:
                    _record(mismatches, "limit_concavity", n_r1=n_r1, tp2=tp2, n_r2=n2,
                            curvature=curv)

    # ordering limit with a non-neutral last increment
    for n_r1 in _grid(0.05, 0.9, grid_size):
        for tp1 in _grid(0.3, 1.7, grid_size):
            tp2 = 0.5
            g = 1.0 - n_r1 + tp1 * n_r1
            f_adj = lambda n2: viability_limit_m_ratio(n_r1, n2, tp1, tp2)
            f_std = lambda n2: viability_limit_m_ratio(n_r1, n2, 1.0, tp2)
            base = f_adj(0.0)
            checked += 1
            if abs(base - g) > 1e-12:
                _record(mismatches, "adjusted_limit_base_value", n_r1=n_r1, tp1=tp1,
                        value=base, expected=g)
            slope_adj = (f_adj(0.4 + h) - f_adj(0.4 - h)) / (2 * h)
            slope_std = (f_std(0.4 + h) - f_std(0.4 - h)) / (2 * h)
            checked += 1
            if abs(slope_adj - g * slope_std) > 1e-6 * max(1.0, abs(slope_adj)):
                _record(mismatches, "adjusted_limit_slope_factor", n_r1=n_r1, tp1=tp1,
                        slope_adjusted=slope_adj, slope_standard=slope_std, factor=g)

    # window between ordering limit and producer threshold vs tp2
    def window(n_r1: float, n_r2: float, tp2: float) -> float:
        return x_u_kappa(n_r1, n_r2, 1.0, tp2)[0] - x_l_kappa(n_r2, tp2)[0]

    for n_r1 in _grid(0.05, 0.6, 10):
        for n_r2 in _grid(0.05, 0.9, 10):
            for tp2 in _grid(0.1, 0.85, 5):
                up = window(n_r1, n_r2, tp2 + h)
                mid = window(n_r1, n_r2, tp2)
                dn = window(n_r1, n_r2, tp2 - h)
                slope = (up - dn) / (2 * h)
                curv = (up - 2 * mid + dn) / (h * h)
                checked += 1
                if slope >= -_FD_MARGIN:
                    _record(mismatches, "window_narrows_in_tp2", n_r1=n_r1, n_r2=n_r2,
                            tp2=tp2, slope=slope)
                checked += 1
                if curv <= _FD_MARGIN:
                    _record(mismatches, "window_narrowing_slows", n_r1=n_r1, n_r2=n_r2,
                            tp2=tp2, curvature=curv)
            squeeze = [
                window(n_r1, n_r2, 1.0 - 10.0**-k) for k in range(1, 7)
            ]
            checked += 1
            if any(b >= a for a, b in zip(squeeze, squeeze[1:])):
                _record(mismatches, "window_collapse_monotone", n_r1=n_r1, n_r2=n_r2,
                        values=squeeze)
            checked += 1
            if not (0 <= squeeze[-1] < 1e-4):
                _record(mismatches, "window_collapse_limit", n_r1=n_r1, n_r2=n_r2,
                        final=squeeze[-1])

    return OracleReport(checked, skipped, tuple(mismatches))


# ---------------------------------------------------------------------------
# scenario instance search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoundInstance:
    instance: dict
    result: OptimizationResult


def _template_stay(rng: random.Random) -> dict:
    count = rng.randint(4, 7)
    top = rng.uniform(3.0, 6.0)
    cs = [top * (1.0 - i / count) + rng.uniform(0.0, 0.1) for i in range(count)]
    points = [
        _point(f"p{i}", cs[i], rng.uniform(0.8, 1.2), 1.0) for i in range(count)
    ]
    alpha = 1.0
    prefix = max(2, count - 2)
    q_prefix = sum(cs[:prefix]) / prefix
    zeta = prefix / q_prefix**alpha
    return _instance(points, _power_spec(zeta, alpha))


def _template_continue(rng: random.Random) -> dict:
    scale = rng.uniform(0.8, 1.25)
    c_far = rng.uniform(8.0, 11.0)
    c_mid = rng.uniform(4.5, 6.0)
    points = [
        _point("a", 1.0 * scale, 1.0, 1.0),
        _point("b", c_far * scale, 0.0, 0.5),
        _point("f", c_mid * scale, 0.0, 0.5),
    ]
    zeta = 1.0 / math.sqrt(scale)
    return _instance(points, _power_spec(zeta, 0.5))


#: the carve-required templates calibrate potential participation to this
#: multiple of volume at the crossing
CARVE_M_CAL = 1.02


def _scenario_base(
    rng: random.Random,
    *,
    tp2: float,
    c2_over_qstar: float,
    alpha: float,
    iota: float = 0.1,
    consumer_mode: str = "adaptive",
    chunked_carve: bool = False,
    fodder_p: float | None = None,
) -> dict:
    """Common crossing construction for the four sub-unit-slope scenarios.

    A base point, optional carve fodder, a final low-value increment, and
    the candidate.  With a ``fodder_p`` the base cedes 0.4 of the volume
    to eight fodder points of that producer value, and participation is
    calibrated so potential meets ``CARVE_M_CAL`` times volume when the
    final increment lands; just above 1, that delays the probe until the
    whole base is in, which pins the probed block to the candidate alone.
    Without one, potential meets volume there.
    """
    s = rng.uniform(0.8, 1.25)
    v = rng.uniform(0.8, 1.25)
    if fodder_p is None:
        fodder_share, fodder_count, fodder_p, m_cal = 0.0, 0, 0.0, 1.0
        c_a, c_r1 = 0.95, 0.6
    else:
        fodder_share, fodder_count, m_cal = 0.4, 8, CARVE_M_CAL
        c_a, c_r1 = 0.8, 0.48
    base_share = 0.9 - fodder_share
    r1_share = 0.1
    q_star_unit = base_share * c_a + r1_share * c_r1
    points = [_point("a", c_a * s, 1.0, base_share * v)]
    if fodder_count:
        fodder_c = 0.95 * c2_over_qstar * q_star_unit
        # recompute with fodder mass included
        q_star_unit = (
            base_share * c_a + fodder_share * fodder_c + r1_share * c_r1
        )
        for i in range(fodder_count):
            points.append(
                _point(
                    f"f{i}",
                    fodder_c * s,
                    fodder_p,
                    (fodder_share / fodder_count) * v,
                )
            )
    points.append(_point("r1", c_r1 * s, 1.2, r1_share * v))
    e_star = base_share * 1.0 + fodder_share * fodder_p + r1_share * 1.2
    c2 = c2_over_qstar * q_star_unit
    points.append(_point("r2", c2 * s, tp2 * e_star, 0.5 * v))
    zeta = m_cal * v / (q_star_unit * s) ** alpha
    optimizer: dict[str, Any] = {
        "consumer_mode": consumer_mode,
        "iota": _round6(iota),
    }
    if chunked_carve:
        optimizer["increment_policy"] = {
            "kind": "unit_chunks",
            "chunk": _round6(0.05 * v),
        }
    return _instance(points, _power_spec(zeta, alpha), optimizer=optimizer)


def _solve_alpha(kappa_target: float, c2_over_qstar: float, m_cal: float) -> float:
    """Exponent giving the candidate extension the requested slope.

    With the base calibrated to ``m_cal`` at its own mean and a candidate
    carrying half the base volume, the slope over the extension depends
    only on the mean-value ratio and the exponent; invert that relation.
    """
    q_ratio = (1.0 + c2_over_qstar * 0.5) / 1.5
    alpha = math.log(1.0 + kappa_target / (2.0 * m_cal)) / math.log(q_ratio)
    return min(0.95, max(0.2, alpha))


def _template_scenario(
    rng: random.Random, kind: str, require_carveout: bool
) -> dict:
    if kind == SCENARIO_I_BOTH_PREFER:
        # a both-players-prefer candidate must still rank last during the
        # build (else the greedy ingests it before the crossing), so keep
        # its producer value tiny and solve the participation exponent for
        # a slope just above the producer threshold
        tp2 = rng.uniform(0.015, 0.03)
        c2q = rng.uniform(3.7, 4.1)
        x_l = x_l_kappa(0.5, tp2)[0]
        kappa_target = min(0.995, x_l * rng.uniform(1.01, 1.03))
        return _scenario_base(
            rng,
            tp2=tp2,
            c2_over_qstar=c2q,
            alpha=_solve_alpha(kappa_target, c2q, 1.0),
        )
    if kind == SCENARIO_II_CONSUMER_PREFERS:
        if require_carveout:
            # a mid-range slope leaves a real shortfall past the crossing,
            # and a belt of cheap low-producer-value mass keeps the carve
            # affordable under the candidate's producer budget
            c2q = rng.uniform(3.8, 4.3)
            return _scenario_base(
                rng,
                tp2=rng.uniform(0.05, 0.07),
                c2_over_qstar=c2q,
                alpha=_solve_alpha(rng.uniform(0.4, 0.6), c2q, CARVE_M_CAL),
                fodder_p=0.06,
            )
        return _scenario_base(
            rng,
            tp2=rng.uniform(0.04, 0.06),
            c2_over_qstar=rng.uniform(3.6, 4.2),
            alpha=rng.uniform(0.52, 0.58),
        )
    if kind == SCENARIO_III_PRODUCER_PREFERS:
        if require_carveout:
            # producer prefers even a shallow slope when its value share is
            # high, while a shifted-origin consumer with modest mean gain
            # does not; the shallow slope forces a deep carve
            c2q = rng.uniform(1.15, 1.25)
            return _scenario_base(
                rng,
                tp2=rng.uniform(0.7, 0.8),
                c2_over_qstar=c2q,
                alpha=_solve_alpha(rng.uniform(0.10, 0.16), c2q, CARVE_M_CAL),
                iota=rng.uniform(0.95, 1.05),
                consumer_mode="reactive",
                fodder_p=0.55,
            )
        return _scenario_base(
            rng,
            tp2=rng.uniform(0.85, 0.95),
            c2_over_qstar=rng.uniform(1.15, 1.3),
            alpha=rng.uniform(0.85, 0.95),
            iota=rng.uniform(0.9, 1.1),
            consumer_mode="reactive",
            chunked_carve=True,
        )
    if kind == SCENARIO_IV_STAY:
        return _scenario_base(
            rng,
            tp2=rng.uniform(0.35, 0.45),
            c2_over_qstar=rng.uniform(1.05, 1.15),
            alpha=rng.uniform(0.35, 0.5),
            iota=rng.uniform(0.7, 0.9),
        )
    raise ValueError(f"no template for target {kind!r}")


def find_scenario_instance(
    target: str,
    budget: int = 200,
    rng_seed: int = 0,
    require_carveout: bool = False,
) -> FoundInstance | None:
    """Search seeded templates for an instance realizing ``target``.

    ``target`` is an outcome kind.  A match means the run's verdict or any
    recorded classification event carries that kind; with
    ``require_carveout`` the run must also have performed a carve
    triggered by it.  Returns None when the budget runs out — some
    targets are structurally rare and a miss is a finding, not an error.
    An attempt the CLI would end with an ``error:`` line is skipped; any
    other exception, such as a broken optimizer invariant, propagates.
    """
    rng = random.Random(rng_seed)
    degenerate = {
        UNDER_SERVED: _template_underserved,
        SATURATED_CONSUMER: _template_saturated,
        STAY_AT_D_STAR_THM2: _template_stay,
        CONTINUE_TO_D2_STAR_THM4: _template_continue,
    }
    for _ in range(budget):
        if target in degenerate:
            instance = degenerate[target](rng)
        else:
            instance = _template_scenario(rng, target, require_carveout)
        try:
            pool, model, transform, cfg = build_objects(instance)
            result = optimize(pool, cfg, model, transform)
        except (
            InstanceError, BuildOrderError, UndefinedMeanError, ZeroVolumeDeltaError
        ):
            continue
        kinds = {result.verdict.kind} | {e.kind for e in result.events}
        if target not in kinds:
            continue
        if require_carveout and not any(
            c.trigger_kind == target and c.n_y > 0.0
            for c in result.carveouts
        ):
            continue
        return FoundInstance(instance, result)
    return None
