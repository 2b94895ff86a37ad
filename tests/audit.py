"""Rules that a report's parts must satisfy against each other.

Each rule is a function of one parsed report, an ``optimize`` report (one
report of ``optimize --batch`` among them) or an ``analyze`` report, and
returns how the report breaks it: a list of messages, empty when the rule
holds.  The rules read the report alone, never the library, so that a
report which does not explain its own verdict is caught however the
library came to write it.  ``audit`` runs every rule.

``tests/test_recipe_digests.py`` audits every report the recipe corpus
writes.  It is not a pytest module; pytest does not collect it.
"""
from __future__ import annotations

#: outcomes that are Nash equilibria of the extension game
NASH_KINDS = frozenset(
    {
        "StayAtDStar_Thm2",
        "Scenario_i_BothPreferDPrime",
        "Scenario_iv_StayAtDStar",
        "ContinueToD2Star_Thm4",
    }
)

#: the slack of the classifier's ordering test
ORDER_SLACK = 1e-12


def kind_from_thresholds(thresholds: dict) -> str:
    """The verdict kind that a report's ``thresholds`` block decides.

    kappa_r2 <= 0 stays.  Below 1 the producer gains when kappa_r2 clears
    x_l and the consumer when it clears x_c, which names one of four
    scenarios.  From 1 up the extension continues when it adds potential
    value and is consistent with greedy order: kappa_ar2 within the
    adjusted ordering limit, or no usable last step to order against
    (``n_r1`` is 0).  A non-finite value is printed as its repr, which
    ``float`` reads back.
    """
    k = float(thresholds["kappa_r2"])
    if k <= 0:
        return "StayAtDStar_Thm2"
    if k < 1:
        producer_gains = k > float(thresholds["x_l_kappa"])
        consumer_gains = k > float(thresholds["x_c_kappa"])
        if producer_gains and consumer_gains:
            return "Scenario_i_BothPreferDPrime"
        if consumer_gains:
            return "Scenario_ii_ConsumerPrefers"
        if producer_gains:
            return "Scenario_iii_ProducerPrefers"
        return "Scenario_iv_StayAtDStar"
    limit = float(thresholds["x_u_kappa_alt"]) + ORDER_SLACK
    viable = float(thresholds["n_r1"]) == 0 or float(thresholds["kappa_ar2"]) <= limit
    if viable and float(thresholds["delta_v_hat"]) > 0:
        return "ContinueToD2Star_Thm4"
    return "StayAtDStar_Thm2"


def verdict_follows_from_thresholds(report: dict) -> list[str]:
    """The verdict kind is the one its printed thresholds decide, and the
    printed x_l is the one its consumer mode names: any mode but adaptive
    reads as reactive."""
    thresholds = report["thresholds"]
    if thresholds is None:
        return []
    found = []
    kind = kind_from_thresholds(thresholds)
    if kind != report["verdict"]["kind"]:
        found.append(f"verdict {report['verdict']['kind']}, but its thresholds decide {kind}")
    mode = "adaptive" if thresholds["consumer_mode"] == "adaptive" else "reactive"
    if thresholds["x_l_kappa"] != thresholds[f"x_l_kappa_{mode}"]:
        found.append(f"x_l_kappa is not the {mode} threshold")
    return found


def nash_follows_from_kind(report: dict) -> list[str]:
    """Each verdict, the final one and every event, is Nash exactly when
    its kind is a Nash outcome, and Pareto exactly when it is Nash."""
    found = []
    for where, verdict in [("verdict", report["verdict"])] + [
        (f"events[{i}]", event) for i, event in enumerate(report.get("events", ()))
    ]:
        if verdict["is_nash"] != (verdict["kind"] in NASH_KINDS):
            found.append(f"{where}: {verdict['kind']} with is_nash {verdict['is_nash']}")
        if verdict["is_pareto"] != verdict["is_nash"]:
            found.append(f"{where}: is_pareto differs from is_nash")
    return found


def recommended_carve_is_tried(report: dict) -> list[str]:
    """A run whose verdict recommends a carve made one, or says why it
    could not.  An ``analyze`` report classifies a candidate without
    running the carve, so the rule reads only run reports."""
    if "carveouts" not in report:
        return []
    verdict = report["verdict"]
    if not verdict["carveout_recommended"] or report["carveouts"]:
        return []
    if any(note.startswith("carveout infeasible") for note in verdict["notes"]):
        return []
    return [f"{verdict['kind']} recommends a carve, but none was made or refused"]


RULES = (verdict_follows_from_thresholds, nash_follows_from_kind, recommended_carve_is_tried)


def audit(report: dict) -> list[str]:
    """Every rule's findings on ``report``, each prefixed by its rule."""
    return [f"{rule.__name__}: {message}" for rule in RULES for message in rule(report)]

