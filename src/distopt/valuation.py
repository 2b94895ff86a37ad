"""Producer-side value of a distribution and its response to extensions.

Two value functions matter:

* the realized value ``S = E(T|D) * W`` — mean transformed producer value
  times realized participation;
* the potential value ``V = E(T|D) * M`` — the same mean times potential
  participation, which upper-bounds S and is the quantity the greedy
  builder climbs below the crossing.

``delta_s`` gives both changes for a growth of a non-empty distribution.
The potential-value change has an exact closed form that needs only the
mean value of the added mass; the realized-value change reduces to
simple expressions on either side of the supply/demand crossing and is
computed directly when a growth straddles it.
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


def delta_s(
    d: Distribution,
    d_prime: Distribution,
    model: ParticipationModel,
    t: ProducerTransform,
) -> ValueDelta:
    """Realized-value change S(D') − S(D), with the potential-value change
    V(D') − V(D), for a growth: D' holds all of D, and D is not empty.

    With Y = D' − D the added mass (E(T|Y) = 0 when Y is empty),

        ΔV = E(T|D) N (M'/N' − M/N) + E(T|Y) (N' − N) M'/N'

    which follows from splitting E(T|D') over the shared and added mass.
    Entirely below the crossing (N <= M at both ends) ΔS is just the added
    mass's value, E(T|Y)(N' − N); entirely at-or-above it equals ΔV; a
    growth that straddles the crossing is computed directly.  M, M' and
    E(T|Y) are taken once and serve both changes.  A shrink raises
    ``SubdistributionError`` (D' − D is not defined), and an empty D
    raises ``EmptyDistributionError`` (E(T|D) is not defined).
    """
    n, n_p = d.n, d_prime.n
    m, m_p = potential(model, d), potential(model, d_prime)
    added = remove_subdistribution(d_prime, d)
    h = 0.0 if added.is_empty() else expected_t(added, t)
    e = expected_t(d, t)
    dv = e * n * (m_p / n_p - m / n) + h * (n_p - n) * (m_p / n_p)
    if n <= m and n_p <= m_p:
        return ValueDelta(h * (n_p - n), dv)
    if n >= m and n_p >= m_p:
        return ValueDelta(dv, dv)
    # straddling the crossing: S = E(T|D) * min(M, N) at both ends
    return ValueDelta(expected_t(d_prime, t) * min(m_p, n_p) - e * min(m, n), dv)


def delta_v_of_increment(
    d: Distribution,
    c: float,
    p: float,
    weight: float,
    model: ParticipationModel,
    t: ProducerTransform,
) -> float:
    """ΔV for adding ``weight`` > 0 at (c, p) to ``d``.

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
    return (e + phi * (tp - e)) * model.m(q + phi * (c - q)) - e * model.m(q)
