"""Deterministic instance generation from named profiles.

``generate_instance`` returns the one instance that a profile, a seed and
a size determine: ``uniform`` and ``monotone`` pools of that size, and the
small ``underserved`` and ``saturated`` pools.  A ``scenario:<Kind>`` profile is
searched for by ``oracle.find_scenario_instance``, which this module loads
only for that profile.
"""
from __future__ import annotations

import random
from typing import Any

from .instances import SCHEMA_VERSION, check_instance


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def _point(pid: str, c: float, p: float, n: float) -> dict:
    return {"id": pid, "c": _round6(c), "p": _round6(p), "n": _round6(n)}


def _power_spec(zeta: float, alpha: float) -> dict:
    return {"kind": "power", "zeta": _round6(zeta), "alpha": _round6(alpha)}


def _instance(points: list[dict], participation: dict, **extra: Any) -> dict:
    """An instance over ``points`` with the identity transform."""
    return {
        "schema_version": SCHEMA_VERSION,
        "points": points,
        "participation": participation,
        "transform": {"kind": "identity"},
        **extra,
    }


def _template_underserved(rng: random.Random) -> dict:
    count = rng.randint(2, 4)
    points = [
        _point(
            f"p{i}",
            rng.uniform(2.0, 6.0),
            rng.uniform(0.5, 2.0),
            rng.uniform(0.2, 0.6),
        )
        for i in range(count)
    ]
    return _instance(points, _power_spec(1.0, rng.uniform(0.6, 0.9)))


def _template_saturated(rng: random.Random) -> dict:
    count = rng.randint(3, 5)
    points = [
        _point(
            f"p{i}",
            rng.uniform(1.0, 4.0),
            rng.uniform(0.5, 2.0),
            rng.uniform(0.3, 0.7),
        )
        for i in range(count)
    ]
    total = sum(p["n"] for p in points)
    cap = _round6(total * rng.uniform(1.2, 1.6))
    return _instance(
        points,
        {"kind": "saturating", "zeta": _round6(cap * 12.0), "alpha": 0.5, "cap": cap},
    )


def _uniform_template(rng: random.Random, size: int) -> dict:
    points = [
        _point(
            f"p{i}",
            rng.uniform(0.5, 5.0),
            rng.uniform(0.2, 2.0),
            rng.uniform(0.2, 1.5),
        )
        for i in range(size)
    ]
    alpha = rng.uniform(0.4, 0.9)
    prefix = max(2, size // 2)
    ordered = sorted(points, key=lambda p: -p["c"])[:prefix]
    n_prefix = sum(p["n"] for p in ordered)
    q_prefix = sum(p["n"] * p["c"] for p in ordered) / n_prefix
    zeta = n_prefix / q_prefix**alpha
    return _instance(points, _power_spec(zeta, alpha))


def _monotone_template(rng: random.Random, size: int) -> dict:
    """Instances whose greedy build never raises potential participation.

    Equal producer values make the build order follow consumer value
    alone, so the running mean value — and with it potential
    participation — only falls as volume grows.  On this family the
    crossing prefix is provably the volume maximizer, which makes these
    instances the reference workload for exact prefix-maximum checks.
    """
    cs = sorted((round(rng.uniform(0.5, 5.0), 6) for _ in range(size)), reverse=True)
    points = [
        _point(f"p{i:02d}", cs[i], 1.0, round(rng.uniform(0.2, 1.5), 6))
        for i in range(size)
    ]
    alpha = round(rng.uniform(0.4, 0.9), 6)
    k = max(1, int(size * rng.uniform(0.3, 0.8)))
    n_prefix = sum(p["n"] for p in points[:k])
    q_prefix = sum(p["n"] * p["c"] for p in points[:k]) / n_prefix
    zeta = round(n_prefix * rng.uniform(0.9, 1.1) / q_prefix**alpha, 6)
    return _instance(points, _power_spec(zeta, alpha))


def generate_instance(profile: str, seed: int, size: int = 8) -> dict:
    """Deterministic instance generation for the named profile; the result
    has passed ``check_instance`` (a searched one in ``build_objects``)."""
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    rng = random.Random(seed)
    if profile.startswith("scenario:"):
        kind = profile.split(":", 1)[1]
        from . import oracle

        found = oracle.find_scenario_instance(kind, budget=300, rng_seed=seed)
        if found is None:
            raise LookupError(
                f"no instance realizing {kind!r} found within the search budget"
            )
        return found.instance
    if profile == "uniform":
        instance = _uniform_template(rng, size)
    elif profile == "monotone":
        instance = _monotone_template(rng, size)
    elif profile == "underserved":
        instance = _template_underserved(rng)
    elif profile == "saturated":
        instance = _template_saturated(rng)
    else:
        raise ValueError(f"unknown generation profile {profile!r}")
    check_instance(instance)
    return instance
