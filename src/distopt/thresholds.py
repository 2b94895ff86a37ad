"""Closed-form thresholds for extensions past the supply/demand crossing.

Once a distribution reaches the crossing (volume ≈ potential), any further
extension trades mean value against participation.  Everything here is
expressed in ratios measured at the crossing:

* ``n_r1``, ``n_r2`` — weights of the last accepted increment and of the
  probe block, as fractions of the crossing volume;
* ``tp1_ratio`` — transformed producer value of the last increment over
  the mean of the base it joined;
* ``tp2_ratio`` — mean transformed producer value of the probe block over
  the mean of the crossing distribution;
* ``c1a_ratio``, ``c2_ratio``, ``c2a_ratio`` — consumer values of those
  increments relative to the relevant base means.

The producer gains from an extension exactly when its marginal
participation ``kappa`` clears ``x_l_kappa``; the consumer, when it clears
``x_c_kappa``; a crossing candidate can only have arrived legitimately
when its earlier slope stays at or under ``x_u_kappa``.  The classifier
turns those comparisons into a named outcome.  ``x_l_kappa`` and
``x_u_kappa`` take the bare ratios rather than a context, so that a
caller can sweep the candidate's weight share through the one copy of
each formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Distribution,
    PointIncrement,
    ProducerTransform,
    SubdistributionError,
    combine,
    expected_t,
    remove_subdistribution,
)
from .participation import ParticipationModel, potential

ADAPTIVE = "adaptive"
REACTIVE = "reactive"

#: comparisons within this distance of a threshold are flagged indeterminate
DECISION_BAND = 1e-9

STAY_AT_D_STAR_THM2 = "StayAtDStar_Thm2"
SCENARIO_I_BOTH_PREFER = "Scenario_i_BothPreferDPrime"
SCENARIO_II_CONSUMER_PREFERS = "Scenario_ii_ConsumerPrefers"
SCENARIO_III_PRODUCER_PREFERS = "Scenario_iii_ProducerPrefers"
SCENARIO_IV_STAY = "Scenario_iv_StayAtDStar"
CONTINUE_TO_D2_STAR_THM4 = "ContinueToD2Star_Thm4"
UNDER_SERVED = "UnderServed"
SATURATED_CONSUMER = "SaturatedConsumer"

#: outcomes that are Nash equilibria of the extension game
NASH_KINDS = frozenset(
    {
        STAY_AT_D_STAR_THM2,
        SCENARIO_I_BOTH_PREFER,
        SCENARIO_IV_STAY,
        CONTINUE_TO_D2_STAR_THM4,
    }
)


class DegenerateContextError(ValueError):
    """The crossing context has no usable ratio scale (e.g. E(T|D*) <= 0)."""


@dataclass(frozen=True)
class ExtensionContext:
    """Everything the threshold algebra needs about one candidate extension.

    Built from a realized optimizer state by ``from_run``.
    """

    r1: PointIncrement | None
    model: ParticipationModel
    n_r1: float
    n_r2: float
    tp1_ratio: float
    tp2_ratio: float
    c1a_ratio: float
    c2_ratio: float
    c2a_ratio: float
    kappa_r2: float
    kappa_ar2: float
    m_star_ratio: float
    m_a_ratio: float
    m_r2_ratio: float
    m_ar2_ratio: float
    q_prime_ratio: float
    n_star: float
    iota: float
    consumer_mode: str

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_run(
        d_star: Distribution,
        r1: PointIncrement,
        block: Distribution,
        model: ParticipationModel,
        transform: ProducerTransform,
        iota: float,
        consumer_mode: str,
    ) -> "ExtensionContext":
        """Measure a realized crossing state, which ``r1`` reached.

        The extension ``block`` enters the algebra through its total
        weight and its mean consumer and transformed producer values.
        ``r1`` enters it only when the base it joined, D* − r1, is
        non-empty with positive mean values; otherwise the context keeps
        no ``r1`` and compares against the crossing itself.
        """
        if block.is_empty():
            raise ValueError("candidate block must carry positive weight")
        if d_star.is_empty():
            raise DegenerateContextError("crossing distribution is empty")
        n_star = d_star.n
        q_star = d_star.q
        e_star = expected_t(d_star, transform)
        if e_star <= 0:
            raise DegenerateContextError(
                "mean transformed producer value at the crossing must be positive"
            )
        if q_star <= 0:
            raise DegenerateContextError(
                "mean consumer value at the crossing must be positive"
            )
        w2 = block.n
        c2_raw = block.q
        t2_raw = expected_t(block, transform)

        d_prime = combine(d_star, block)
        m_star = potential(model, d_star)
        m_prime = potential(model, d_prime)
        kappa_r2 = (m_prime - m_star) / w2

        last: PointIncrement | None = None
        try:
            d_a = remove_subdistribution(d_star, r1.as_distribution())
        except SubdistributionError:  # r1 is not inside the crossing
            d_a = Distribution()
        if not d_a.is_empty():
            q_a = d_a.q
            e_a = expected_t(d_a, transform)
            if e_a > 0 and q_a > 0:
                last = r1
        if last is not None:
            tp1 = transform.apply(last.point.p) / e_a
            c1a = last.point.c / q_a
            n_r1 = last.weight / n_star
        else:
            # an unusable earlier base: the crossing itself is the
            # comparison base, reached by a neutral last step
            d_a, q_a = d_star, q_star
            tp1 = c1a = 1.0
            n_r1 = 0.0
        c2a = c2_raw / q_a
        m_a = potential(model, d_a)
        m_ar2 = potential(model, combine(d_a, block))
        kappa_ar2 = (m_ar2 - m_a) / w2

        return ExtensionContext(
            r1=last,
            model=model,
            n_r1=n_r1,
            n_r2=w2 / n_star,
            tp1_ratio=tp1,
            tp2_ratio=t2_raw / e_star,
            c1a_ratio=c1a,
            c2_ratio=c2_raw / q_star,
            c2a_ratio=c2a,
            kappa_r2=kappa_r2,
            kappa_ar2=kappa_ar2,
            m_star_ratio=m_star / n_star,
            m_a_ratio=m_a / n_star,
            m_r2_ratio=m_prime / n_star,
            m_ar2_ratio=m_ar2 / n_star,
            q_prime_ratio=d_prime.q / q_star,
            n_star=n_star,
            iota=iota,
            consumer_mode=consumer_mode,
        )

    # -- derived values ---------------------------------------------------

    def delta_v_hat(self) -> float:
        """Potential-value change of the extension, in units of E* · N*."""
        e_prime_hat = (1.0 + self.tp2_ratio * self.n_r2) / (1.0 + self.n_r2)
        return e_prime_hat * self.m_r2_ratio - self.m_star_ratio

    def delta_s_hat(self) -> float:
        """Realized-value change of the extension, in units of E* · N*."""
        e_prime_hat = (1.0 + self.tp2_ratio * self.n_r2) / (1.0 + self.n_r2)
        w_star = min(self.m_star_ratio, 1.0)
        w_prime = min(self.m_r2_ratio, 1.0 + self.n_r2)
        return e_prime_hat * w_prime - w_star

    def delta_u(self) -> float:
        """Relative change of the consumer's single-period utility Q · M."""
        return self.q_prime_ratio * self.m_r2_ratio / max(self.m_star_ratio, 1e-300) - 1.0


def x_l_kappa(n_r2: float, tp2_ratio: float) -> tuple[float, float]:
    """Producer's break-even marginal participation for the extension.

    Returns ``(adaptive, reactive)``.  Adaptive consumers re-anchor each
    period, so the producer's gain condition is
    kappa > (1 − tp2)/(1 + tp2 n_r2), infinite where that denominator
    vanishes; reactive consumers punish the full dilution, giving
    1 − tp2 (1 + n_r2).  Extensions at tp2 = 1 are free (threshold 0);
    worthless additions (tp2 = 0) must pull a full unit of participation
    per unit volume.
    """
    tp2, n2 = tp2_ratio, n_r2
    denom = 1.0 + tp2 * n2
    adaptive = (1.0 - tp2) / denom if abs(denom) >= 1e-12 else math.inf
    return adaptive, 1.0 - tp2 * (1.0 + n2)


def x_u_kappa(
    n_r1: float, n_r2: float, tp1_ratio: float, tp2_ratio: float
) -> tuple[float, float]:
    """Upper ordering limits on the candidate's earlier slope.

    Returns ``(standard, adjusted)``.  The standard form assumes the last
    accepted increment was indistinguishable from its base; the adjusted
    form corrects for its realized producer-value ratio ``tp1`` and
    coincides with the standard one at tp1 = 1.  A candidate whose slope
    at the earlier base exceeded the applicable limit would have been
    picked earlier, so reaching the crossing with a higher slope is
    inconsistent with greedy order.
    """
    n1, n2, tp1, tp2 = n_r1, n_r2, tp1_ratio, tp2_ratio
    if n2 <= 0:
        raise ValueError("ordering limits need a candidate with positive weight")
    denom = 1.0 - n1 + tp2 * n2
    if abs(denom) < 1e-12:
        raise DegenerateContextError("degenerate ordering-limit denominator")
    standard = (1.0 - tp2) / denom
    adjusted = ((1.0 - n1 + n2) * (tp1 - 1.0) * n1 / n2 + (1.0 - tp2)) / denom
    return standard, adjusted


def x_c_kappa(ctx: ExtensionContext) -> float:
    """Consumer's break-even marginal participation for the extension.

    Derived from the consumer's two-period utility with the continuation
    weight ``iota``.  The threshold is negative — the consumer wants the
    candidate even at participation cost — exactly when
    c2 > iota + 1/(1 + n_r2), so at iota = 0 and c2 = 1 it is −n_r2;
    cheaper candidates must attract participation to be worth the
    dilution.
    """
    n2, c2, iota = ctx.n_r2, ctx.c2_ratio, ctx.iota
    growth = 1.0 + n2
    return (1.0 - c2 * growth + iota * growth) / (1.0 + iota * growth)


def _tau_tp1(ctx: ExtensionContext) -> float:
    """Least tp1 at which the adjusted ordering limit can exceed the
    producer threshold, i.e. where an ordering-consistent candidate can
    still be profitable.  Below the crossing value 1 whenever tp2 < 1.
    """
    n1, n2, tp2 = ctx.n_r1, ctx.n_r2, ctx.tp2_ratio
    denom = (1.0 - n1 + n2) * (1.0 + tp2 * n2)
    if abs(denom) < 1e-12:
        raise DegenerateContextError("degenerate tau denominator")
    return ((1.0 - n1) + (2.0 - n1 + n2) * tp2 * n2) / denom


def _f_bounds(ctx: ExtensionContext) -> tuple[float, float]:
    """Bounds on the candidate's participation pull factor f.

    ``f`` scales how strongly the candidate's own appeal converts into
    participation.  ``f_low`` is the least pull at which the producer
    gains realized value; ``f_up`` is the most pull consistent with the
    candidate not having displaced the last accepted increment.  An
    instance admits a profitable, ordering-consistent crossing candidate
    only when f_low <= f <= f_up, and the window is often empty.
    """
    n1, n2, tp1 = ctx.n_r1, ctx.n_r2, ctx.tp1_ratio
    if ctx.m_r2_ratio <= 0:
        low = math.inf
    else:
        inv = 1.0 / ctx.m_r2_ratio
        low = (inv - 1.0) / n2 + inv
    # a subnormal participation ratio can round this product to 0
    pull = n2 * ctx.m_ar2_ratio
    if pull <= 0:
        up = math.inf
    else:
        up = (1.0 - n1 + n2) * ((1.0 - n1) + tp1 * n1) / pull - (1.0 - n1) / n2
    return low, up


def _m_ratio_and_rvv(ctx: ExtensionContext) -> tuple[float, float]:
    """Placement-advantage ratio m and the appeal multiple RVV.

    ``m`` is the participation the candidate would have drawn from the
    earlier base relative to what it draws at the crossing; for power
    curves it has a closed form in the measured ratios, otherwise it is
    read off the participation curve directly.  ``RVV`` is the consumer
    appeal multiple the candidate would have needed to overturn the
    realized order, a reductio witness for order consistency.
    """
    if ctx.model.kind == "power":
        n1, n2 = ctx.n_r1, ctx.n_r2
        c1a, c2a = ctx.c1a_ratio, ctx.c2a_ratio
        top = (1.0 + n2) * ((1.0 - n1) + n2 * c2a)
        bottom = (1.0 - n1 + n2) * (((1.0 - n1) + c1a * n1) + n2 * c2a)
        if bottom <= 0 or top <= 0:
            m = math.nan
        else:
            m = (top / bottom) ** ctx.model.alpha
    else:
        if ctx.m_r2_ratio <= 0:
            m = math.nan
        else:
            m = ctx.m_ar2_ratio / ctx.m_r2_ratio
    n1, n2, tp2 = ctx.n_r1, ctx.n_r2, ctx.tp2_ratio
    if not math.isfinite(m) or m <= 0 or n1 <= 0 or abs(1.0 - tp2) < 1e-300:
        rvv = math.inf if (math.isfinite(m) and m > 1.0) else math.nan
        return m, rvv
    rvv = (
        ((m - 1.0) / m)
        * (1.0 + tp2 * n2)
        * (1.0 - n1 + n2)
        / (n2 * n1 * (1.0 - tp2))
    )
    return m, rvv


def viability_limit_m_ratio(
    n_r1: float, n_r2: float, tp1_ratio: float, tp2_ratio: float
) -> float:
    """Ordering limit as a bound on the participation ratio M_ar2 / M_a.

    Equivalent to the kappa-space limit via M_ar2 = M_a + kappa w2; in
    this form the base case (n_r2 -> 0) is exactly 1 and the tp1
    correction is the multiplicative factor (1 − n_r1 + tp1 n_r1).
    """
    denom = 1.0 - n_r1 + tp2_ratio * n_r2
    if abs(denom) < 1e-12:
        raise DegenerateContextError("degenerate ordering-limit denominator")
    return (
        (1.0 - n_r1 + tp1_ratio * n_r1) * (1.0 - n_r1 + n_r2) / denom
    )


#: fields ``ThresholdReport.to_dict`` leaves out: the objects, and the
#: context ratios that only feed the report's own values
_UNREPORTED = frozenset({"context", "r1", "model", "q_prime_ratio"})


@dataclass(frozen=True)
class ThresholdReport:
    """All thresholds and diagnostics for one candidate extension, with
    the context they were computed from."""

    x_l_kappa: float
    x_l_kappa_adaptive: float
    x_l_kappa_reactive: float
    x_u_kappa: float
    x_u_kappa_alt: float
    x_c_kappa: float
    tau: float
    f_low: float
    f_up: float
    m_ratio: float
    rvv: float
    delta_u: float
    delta_v_hat: float
    delta_s_hat: float
    context: ExtensionContext

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and not math.isfinite(x):
                return repr(x)
            return x

        fields = (*self.__dict__.items(), *self.context.__dict__.items())
        return {k: clean(v) for k, v in fields if k not in _UNREPORTED}


def threshold_report(ctx: ExtensionContext) -> ThresholdReport:
    adaptive, reactive = x_l_kappa(ctx.n_r2, ctx.tp2_ratio)
    standard, adjusted = x_u_kappa(ctx.n_r1, ctx.n_r2, ctx.tp1_ratio, ctx.tp2_ratio)
    try:
        tau = _tau_tp1(ctx)
    except DegenerateContextError:
        tau = math.nan
    low, up = _f_bounds(ctx)
    m, rvv = _m_ratio_and_rvv(ctx)
    return ThresholdReport(
        x_l_kappa=adaptive if ctx.consumer_mode == ADAPTIVE else reactive,
        x_l_kappa_adaptive=adaptive,
        x_l_kappa_reactive=reactive,
        x_u_kappa=standard,
        x_u_kappa_alt=adjusted,
        x_c_kappa=x_c_kappa(ctx),
        tau=tau,
        f_low=low,
        f_up=up,
        m_ratio=m,
        rvv=rvv,
        delta_u=ctx.delta_u(),
        delta_v_hat=ctx.delta_v_hat(),
        delta_s_hat=ctx.delta_s_hat(),
        context=ctx,
    )


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Named outcome of the extension game at a crossing.

    ``is_nash`` marks outcomes where no player can gain by deviating from
    the named action; every such outcome is also undominated, so
    ``is_pareto`` reads ``is_nash``.  ``carveout_recommended`` is read
    from the kind too: it flags the two disagreement scenarios, where a
    compensating carve can align the players.
    ``indeterminate`` is set when the deciding comparison fell inside the
    floating-point decision band.
    """

    kind: str
    is_nash: bool
    indeterminate: bool = False
    witness: ThresholdReport | None = None
    notes: tuple[str, ...] = ()

    @property
    def is_pareto(self) -> bool:
        return self.is_nash

    @property
    def carveout_recommended(self) -> bool:
        return self.kind in (SCENARIO_II_CONSUMER_PREFERS, SCENARIO_III_PRODUCER_PREFERS)


def classify(ctx: ExtensionContext) -> EquilibriumVerdict:
    """Classify the best extension past a crossing into a named outcome.

    kappa <= 0: the extension repels the consumer and no one gains —
    stay.  kappa >= 1: participation keeps pace with volume, so if the
    candidate is ordering-consistent and adds potential value, the game
    continues to a farther crossing.  In between, the producer and
    consumer break-even thresholds partition the outcomes into the four
    agreement/disagreement scenarios.
    """
    report = threshold_report(ctx)
    k = ctx.kappa_r2
    notes: list[str] = []
    if ctx.r1 is None:
        notes.append(
            "last-step base was unusable; ordering limits use the crossing itself"
        )

    def verdict(
        kind: str,
        *,
        indet: bool = False,
        extra: tuple[str, ...] = (),
    ) -> EquilibriumVerdict:
        return EquilibriumVerdict(
            kind=kind,
            is_nash=kind in NASH_KINDS,
            indeterminate=indet,
            witness=report,
            notes=tuple(notes) + extra,
        )

    if k <= 0:
        return verdict(
            STAY_AT_D_STAR_THM2,
            indet=abs(k) <= DECISION_BAND,
            extra=("extension repels or leaves participation unchanged",),
        )

    if k < 1:
        x_l = report.x_l_kappa
        x_c = report.x_c_kappa
        producer_gains = k > x_l
        consumer_gains = k > x_c
        indet = (
            abs(k - x_l) <= DECISION_BAND
            or abs(k - x_c) <= DECISION_BAND
            or abs(k - 1.0) <= DECISION_BAND
        )
        if producer_gains and consumer_gains:
            return verdict(SCENARIO_I_BOTH_PREFER, indet=indet)
        if consumer_gains:
            return verdict(SCENARIO_II_CONSUMER_PREFERS, indet=indet)
        if producer_gains:
            return verdict(SCENARIO_III_PRODUCER_PREFERS, indet=indet)
        return verdict(SCENARIO_IV_STAY, indet=indet)

    # kappa >= 1: only an ordering-consistent, value-adding candidate
    # justifies continuing to a farther crossing
    if ctx.r1 is None:
        # the base r1 joined was unusable, so order cannot exclude
        viable, viability_indet = True, False
    else:
        adjusted = report.x_u_kappa_alt
        viable = ctx.kappa_ar2 <= adjusted + 1e-12
        viability_indet = abs(ctx.kappa_ar2 - adjusted) <= DECISION_BAND
    dv = report.delta_v_hat
    indet = (
        abs(k - 1.0) <= DECISION_BAND
        or viability_indet
        or abs(dv) <= DECISION_BAND
    )
    if viable and dv > 0:
        return verdict(CONTINUE_TO_D2_STAR_THM4, indet=indet)
    if not viable:
        notes.append("crossing candidate is inconsistent with greedy order")
    if dv <= 0:
        notes.append("extension adds no potential value")
    return verdict(STAY_AT_D_STAR_THM2, indet=indet)
