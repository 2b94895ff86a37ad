"""Producer-side value of a distribution and its response to extensions.

Two value functions matter:

* the realized value ``S = E(T|D) * W`` — mean transformed producer value
  times realized participation;
* the potential value ``V = E(T|D) * M`` — the same mean times potential
  participation, which upper-bounds S and is the quantity the greedy
  builder climbs below the crossing.

``delta_s`` gives both changes for a shift between nested distributions.
The potential-value change has an exact closed form that needs only the
mean value of the added (or removed) mass; the realized-value change
reduces to simple expressions on either side of the supply/demand
crossing and is computed directly when a shift straddles it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Distribution,
    ProducerTransform,
    expected_t,
    remove_subdistribution,
)
from .participation import ParticipationModel, potential


@dataclass(frozen=True)
class ValueDelta:
    delta_s: float
    delta_v: float


def _s_of(d: Distribution, m: float, t: ProducerTransform) -> float:
    """Realized producer value S(D) = E(T|D) * min(M, N), from M = M(D)
    already taken."""
    if d.is_empty():
        return 0.0
    return expected_t(d, t) * min(m, d.n)


def v_value(
    d: Distribution, model: ParticipationModel, t: ProducerTransform
) -> float:
    """Potential producer value V(D) = E(T|D) * M(Q(D))."""
    if d.is_empty():
        return 0.0
    return expected_t(d, t) * potential(model, d)


def _difference_mean_t(
    d: Distribution, d_prime: Distribution, t: ProducerTransform
) -> float:
    """Mean transformed producer value E(T|Y) of the mass Y between nested
    d and d' (added when d' is the larger, removed otherwise)."""
    if d_prime.n >= d.n:
        diff = remove_subdistribution(d_prime, d)
    else:
        diff = remove_subdistribution(d, d_prime)
    if diff.is_empty():
        return 0.0
    return expected_t(diff, t)


def delta_s(
    d: Distribution,
    d_prime: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
) -> ValueDelta:
    """Realized-value change S(D') − S(D), with the potential-value change
    V(D') − V(D).

    For D ⊂ D' with difference mass Y (either direction),

        ΔV = E(T|D) N (M'/N' − M/N) + E(T|Y) (N' − N) M'/N'

    which follows from splitting E(T|D') over the shared and added mass;
    the same identity holds for reductions, with Y the removed mass.
    Entirely below the crossing (N <= M at both ends) ΔS is just the added
    mass's value, E(T|Y)(N' − N); entirely at-or-above it equals ΔV; a
    shift that straddles the crossing is computed directly.  M, M' and
    E(T|Y) are taken once and serve both changes.
    """
    n, n_p = d.n, d_prime.n
    m, m_p = potential(model, d), potential(model, d_prime)
    h = None
    if d.is_empty() and d_prime.is_empty():
        dv = 0.0
    elif d.is_empty():
        dv = expected_t(d_prime, t) * m_p
    elif d_prime.is_empty():
        dv = -(expected_t(d, t) * m)
    else:
        h = _difference_mean_t(d, d_prime, t)
        e = expected_t(d, t)
        dv = e * n * (m_p / n_p - m / n) + h * (n_p - n) * (m_p / n_p)
    if n <= m and n_p <= m_p:
        if h is None:
            h = _difference_mean_t(d, d_prime, t)
        return ValueDelta(h * (n_p - n), dv)
    if n >= m and n_p >= m_p:
        return ValueDelta(dv, dv)
    ds = _s_of(d_prime, m_p, t) - _s_of(d, m, t)
    return ValueDelta(ds, dv)


def _extended_value(
    e: float, q: float, c: float, tp: float, phi: float, model: ParticipationModel
) -> float:
    """Potential value of a base with mean values E and Q extended by a
    share φ of a point with consumer value c and T(p) = ``tp``:
    [E + φ (T(p) − E)] * M(Q + φ (c − Q)).  At φ = N_r/(N + N_r) this is
    V(D + I_r) exactly.  The share of a heavy increment can round to
    φ = 1, where this is T(p) * M(c) up to rounding."""
    if not (0 <= phi <= 1):
        raise ValueError(f"share must lie in [0, 1], got {phi!r}")
    return (e + phi * (tp - e)) * model.m(q + phi * (c - q))


class IncrementScorer:
    """ΔV of single-point increments to one base distribution, O(1) each.

    N(D), E(T|D), Q(D) and V(D) = E * M(Q) are taken once, on
    construction, so scoring every candidate of a greedy step costs one
    pass over the base instead of one per candidate.  ``delta_v`` is the
    extended value at the realized share minus V(D), term for term, so its
    scores equal the direct computation bit for bit.  An empty base scores a candidate by
    the potential value of its own singleton, T(p) * M(c); ``e`` and ``q``
    are None there.
    """

    __slots__ = ("model", "n", "e", "q", "v")

    def __init__(
        self, d: Distribution, model: ParticipationModel, t: ProducerTransform
    ) -> None:
        self.model = model
        self.n = d.n
        self.e: float | None = None
        self.q: float | None = None
        self.v = 0.0
        if not d.is_empty():
            self.e = expected_t(d, t)
            self.q = d.q
            self.v = self.e * model.m(self.q)

    def delta_v(self, c: float, tp: float, weight: float) -> float:
        """ΔV for adding ``weight`` at consumer value c and T(p) = ``tp``."""
        if self.e is None:
            return tp * self.model.m(c)
        phi = weight / (self.n + weight)
        return _extended_value(self.e, self.q, c, tp, phi, self.model) - self.v


def delta_v_of_increment(
    d: Distribution,
    c: float,
    p: float,
    weight: float,
    model: ParticipationModel,
    t: ProducerTransform,
) -> float:
    """ΔV for adding ``weight`` at (c, p): the extended value at the
    realized share − V(D)."""
    return IncrementScorer(d, model, t).delta_v(c, t.apply(p), weight)
