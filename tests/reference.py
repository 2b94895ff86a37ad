"""Reference implementations that tests compare the library against.

- ``v_value`` is the potential producer value V(D) = E(T|D) * M(Q(D)),
  taken directly on a concrete distribution.
- ``brute_force_w_max`` replays the greedy build with direct value
  differences and scans subsets exhaustively, an independent target for
  the optimizer's crossing volume.
- ``synthesize`` realizes bare threshold ratios as a minimal concrete
  crossing state, so that closed forms and direct measurements can be
  compared on the same ``ExtensionContext``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from distopt.core import (
    Distribution,
    Point,
    PointIncrement,
    ProducerTransform,
    apply_increment,
    expected_t,
)
from distopt.participation import ParticipationModel, actual, potential
from distopt.thresholds import ADAPTIVE, DegenerateContextError, ExtensionContext


def v_value(
    d: Distribution, model: ParticipationModel, t: ProducerTransform
) -> float:
    """Potential producer value V(D) = E(T|D) * M(Q(D))."""
    if d.is_empty():
        return 0.0
    return expected_t(d, t) * potential(model, d)


@dataclass(frozen=True)
class BruteForceResult:
    best_prefix_w: float
    best_subset_w: float
    prefix_ws: tuple[float, ...]
    greedy_order: tuple[str, ...]


def brute_force_w_max(
    pool: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
    subset_cap: int = 20,
) -> BruteForceResult:
    """Reference crossing volume by direct replay and exhaustive scan.

    The greedy replay ranks candidates by the raw potential-value
    difference of concrete distributions — no incremental scoring — with
    the same deterministic tie-break (higher c, higher T(p), smaller id).
    The subset maximum is a diagnostic upper reference: the realized
    mechanism is constrained to greedy prefixes.
    """
    entries = list(pool.items())
    d = Distribution()
    remaining = {pt.id: (pt, w) for pt, w in entries}
    prefix_ws: list[float] = []
    order: list[str] = []
    while remaining:
        best_key = None
        best_id = None
        base_v = v_value(d, model, t)
        for pid, (pt, w) in remaining.items():
            grown = apply_increment(d, PointIncrement(pt, w))
            gain = v_value(grown, model, t) - base_v
            key = (-gain, -pt.c, -t.apply(pt.p), pid)
            if best_key is None or key < best_key:
                best_key, best_id = key, pid
        pt, w = remaining.pop(best_id)
        d = apply_increment(d, PointIncrement(pt, w))
        prefix_ws.append(actual(model, d))
        order.append(best_id)

    best_subset = 0.0
    if len(entries) <= subset_cap:
        n_pts = len(entries)
        for mask in range(1, 1 << n_pts):
            subset = Distribution(
                [entries[i] for i in range(n_pts) if mask >> i & 1]
            )
            w = actual(model, subset)
            if w > best_subset:
                best_subset = w
    else:
        best_subset = math.nan

    return BruteForceResult(
        best_prefix_w=max(prefix_ws) if prefix_ws else 0.0,
        best_subset_w=best_subset,
        prefix_ws=tuple(prefix_ws),
        greedy_order=tuple(order),
    )


def synthesize(
    n_r1: float,
    n_r2: float,
    tp2_ratio: float,
    c2_ratio: float,
    tp1_ratio: float = 1.0,
    alpha: float = 0.5,
    iota: float = 0.1,
    consumer_mode: str = ADAPTIVE,
) -> ExtensionContext:
    """Realize bare ratios as a minimal concrete crossing state.

    Builds a two-point crossing distribution (a base point plus the
    last increment, both of the same consumer value) with unit volume
    and unit mean consumer value, under M(q) = q**alpha so potential
    participation exactly meets volume there, then measures it with
    ``ExtensionContext.from_run``.  With ``tp1_ratio = 1`` the last
    increment is indistinguishable from the base.
    """
    if not (0 < n_r1 < 1):
        raise ValueError("n_r1 must lie in (0, 1)")
    if not (n_r2 > 0):
        raise ValueError("n_r2 must be positive")
    base_share = 1.0 - n_r1
    q_a = 1.0 / (base_share + n_r1)
    a = Point(id="base", c=q_a, p=1.0)
    r1 = PointIncrement(Point(id="last", c=q_a, p=tp1_ratio), n_r1)
    e_star = base_share + tp1_ratio * n_r1
    if e_star <= 0:
        raise DegenerateContextError(
            "synthesized crossing mean producer value must be positive"
        )
    r2 = PointIncrement(Point(id="cand", c=c2_ratio, p=tp2_ratio * e_star), n_r2)
    d_star = Distribution([(a, base_share), (r1.point, r1.weight)])
    return ExtensionContext.from_run(
        d_star,
        r1,
        r2.as_distribution(),
        ParticipationModel.power(1.0, alpha),
        ProducerTransform.identity(),
        iota=iota,
        consumer_mode=consumer_mode,
    )
