"""Consumer participation curves.

``M(q)`` maps the mean consumer value of a distribution to the volume the
consumer is willing to absorb (potential participation).  Curves are
increasing and concave on the families supported here, which is what the
threshold algebra downstream relies on.  Realized participation is capped
by what is actually served: ``W = min(M, N)``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .core import Distribution, EmptyDistributionError


class ZeroVolumeDeltaError(ValueError):
    """Marginal participation is undefined when the volume change is zero."""


@dataclass(frozen=True, slots=True, init=False)
class ParticipationModel:
    """A participation curve M(q), one of three families.

    * ``power`` — M(q) = zeta * q**alpha for q > 0, with zeta > 0 and
      0 < alpha <= 1 (alpha = 1 is the linear edge case).
    * ``saturating`` — a power curve clipped at ``cap``.
    * ``table`` — piecewise-linear through (0, 0) and the given knots,
      flat beyond the last knot.  Knot values must be non-decreasing.

    M(q) = 0 for q <= 0 in every family: content with no positive appeal
    draws no participation.
    """

    kind: str
    zeta: float = 1.0
    alpha: float = 0.5
    cap: float = math.inf
    knots: tuple[tuple[float, float], ...] = ()
    _knot_qs: tuple[float, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __init__(
        self,
        kind: str,
        zeta: float = 1.0,
        alpha: float = 0.5,
        cap: float = math.inf,
        knots: tuple[tuple[float, float], ...] = (),
    ) -> None:
        if kind not in ("power", "saturating", "table"):
            raise ValueError(f"unknown participation kind {kind!r}")
        if kind in ("power", "saturating"):
            if not (zeta > 0 and math.isfinite(zeta)):
                raise ValueError(f"zeta must be > 0, got {zeta!r}")
            if not (0 < alpha <= 1):
                raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        if kind == "saturating":
            if not (cap > 0):
                raise ValueError(f"cap must be > 0, got {cap!r}")
        qs = ()
        if kind == "table":
            knots = tuple((float(q), float(m)) for q, m in knots)
            if not knots:
                raise ValueError("table participation needs at least one knot")
            qs = tuple(q for q, _ in knots)
            ms = [m for _, m in knots]
            if any(q <= 0 for q in qs):
                raise ValueError("table knot positions must be > 0")
            if any(b <= a for a, b in zip(qs, qs[1:])):
                raise ValueError("table knot positions must strictly increase")
            if any(m < 0 for m in ms):
                raise ValueError("table knot values must be non-negative")
            if any(b < a for a, b in zip(ms, ms[1:])):
                raise ValueError("table knot values must be non-decreasing")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_knot_qs", qs)

    @staticmethod
    def power(zeta: float, alpha: float) -> "ParticipationModel":
        return ParticipationModel("power", zeta=zeta, alpha=alpha)

    @staticmethod
    def saturating(zeta: float, alpha: float, cap: float) -> "ParticipationModel":
        return ParticipationModel("saturating", zeta=zeta, alpha=alpha, cap=cap)

    @staticmethod
    def from_table(knots) -> "ParticipationModel":
        return ParticipationModel("table", knots=tuple(knots))

    def m(self, q: float) -> float:
        """Potential participation at mean consumer value q."""
        if q <= 0:
            return 0.0
        if self.kind == "power":
            return self.zeta * q**self.alpha
        if self.kind == "saturating":
            return min(self.zeta * q**self.alpha, self.cap)
        if not q <= self._knot_qs[-1]:  # flat past the last knot, as for NaN
            return self.knots[-1][1]
        # the first knot at or past q closes q's segment
        i = bisect_left(self._knot_qs, q)
        prev_q, prev_m = self.knots[i - 1] if i else (0.0, 0.0)
        knot_q, knot_m = self.knots[i]
        span = knot_q - prev_q
        return prev_m + (knot_m - prev_m) * (q - prev_q) / span


def potential(model: ParticipationModel, d: Distribution) -> float:
    """M(Q(D)): the volume the consumer would absorb at D's mean value, and
    0 on an empty D."""
    try:
        q = d.q
    except EmptyDistributionError:
        return 0.0
    return model.m(q)


def actual(model: ParticipationModel, d: Distribution) -> float:
    """W(D) = min(M(Q(D)), N(D)): participation cannot exceed supply."""
    return min(potential(model, d), d.n)


def kappa(
    model: ParticipationModel, d_from: Distribution, d_to: Distribution
) -> float:
    """Marginal participation per unit volume between two distributions.

    kappa = (M(D_to) − M(D_from)) / (N(D_to) − N(D_from)).  The sign says
    whether an extension attracts (>0) or repels (<0) the consumer; the
    magnitude against 1 says whether attraction keeps pace with volume.
    """
    delta_n = d_to.n - d_from.n
    if delta_n == 0:
        raise ZeroVolumeDeltaError(
            "marginal participation is undefined for a zero volume change"
        )
    return (potential(model, d_to) - potential(model, d_from)) / delta_n

