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


@dataclass(frozen=True, slots=True)
class ValueDelta:
    delta_s: float
    delta_v: float


def _difference_mean_t(
    d: Distribution, d_prime: Distribution, grows: bool, t: ProducerTransform
) -> float:
    """Mean transformed producer value E(T|Y) of the mass Y between nested
    d and d' (added when ``grows``, d' the larger; removed otherwise)."""
    if grows:
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
    empty, empty_p = d.is_empty(), d_prime.is_empty()
    h = None
    if empty and empty_p:
        dv = 0.0
    elif empty:
        dv = expected_t(d_prime, t) * m_p
    elif empty_p:
        dv = -(expected_t(d, t) * m)
    else:
        h = _difference_mean_t(d, d_prime, n_p >= n, t)
        e = expected_t(d, t)
        dv = e * n * (m_p / n_p - m / n) + h * (n_p - n) * (m_p / n_p)
    if n <= m and n_p <= m_p:
        if h is None:
            h = _difference_mean_t(d, d_prime, n_p >= n, t)
        return ValueDelta(h * (n_p - n), dv)
    if n >= m and n_p >= m_p:
        return ValueDelta(dv, dv)
    # straddling the crossing: S = E(T|D) * min(M, N) at both ends
    s_p = 0.0 if empty_p else expected_t(d_prime, t) * min(m_p, n_p)
    s = 0.0 if empty else expected_t(d, t) * min(m, n)
    return ValueDelta(s_p - s, dv)


def delta_v_of_increment(
    d: Distribution,
    c: float,
    p: float,
    weight: float,
    model: ParticipationModel,
    t: ProducerTransform,
) -> float:
    """ΔV for adding ``weight`` at (c, p) to ``d``.

    At the realized share φ = weight/(N + weight) the extended value is
    [E + φ (T(p) − E)] * M(Q + φ (c − Q)), and ΔV is that minus
    V(D) = E * M(Q).  The share of a heavy increment can round to φ = 1,
    where the extended value is T(p) * M(c) up to rounding.  An empty base
    scores the potential value of the singleton, T(p) * M(c).
    ``sequence.best_increment`` keeps its own copy of this arithmetic,
    inlined in its scoring loop, in the same operation order, so the two
    agree bit for bit; ``tests/test_sequence.py`` checks that they do.
    """
    if d.is_empty():
        return t.apply(p) * model.m(c)
    e = expected_t(d, t)
    q = d.q
    tp = t.apply(p)
    phi = weight / (d.n + weight)
    if not (0 <= phi <= 1):
        raise ValueError(f"share must lie in [0, 1], got {phi!r}")
    return (e + phi * (tp - e)) * model.m(q + phi * (c - q)) - e * model.m(q)
