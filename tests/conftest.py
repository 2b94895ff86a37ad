from __future__ import annotations

import pytest

from distopt.core import Distribution, Point, ProducerTransform
from distopt.instances import SCHEMA_VERSION
from distopt.participation import ParticipationModel


def make_dist(*rows: tuple[str, float, float, float]) -> Distribution:
    """Build a distribution from (id, c, p, weight) rows."""
    return Distribution([(Point(i, c, p), w) for (i, c, p, w) in rows])


def make_instance(points, *, zeta=1.0, alpha=1.0, transform=None, optimizer=None) -> dict:
    inst = {
        "schema_version": SCHEMA_VERSION,
        "points": [
            {"id": i, "c": c, "p": p, "n": w} for (i, c, p, w) in points
        ],
        "participation": {"kind": "power", "zeta": zeta, "alpha": alpha},
        "transform": transform or {"kind": "identity"},
    }
    if optimizer is not None:
        inst["optimizer"] = optimizer
    return inst


# The worked reference instance: five unit-weight points with consumer
# values 5..1 under linear participation.  The build crosses supply at
# the fourth point and the fifth would push participation down.
FIVE_POINT = make_instance(
    [("c5", 5.0, 1.0, 1.0), ("c4", 4.0, 1.0, 1.0), ("c3", 3.0, 1.0, 1.0),
     ("c2", 2.0, 1.0, 1.0), ("c1", 1.0, 1.0, 1.0)]
)

# Equal-weight ladder of slowly declining consumer values.  The probe
# turns negative one step before the volume/participation crossing, so
# the optimizer has to keep walking the declining tail to find the true
# peak of min(M, N) at the eighth point.
LADDER = make_instance(
    [(f"p{i:02d}", round(2.0 - 0.04 * i, 6), 1.0, 0.26) for i in range(12)]
)

# A high-volume extension with zero producer value joining a small base:
# the climb past the first crossing is worthwhile and lands on a second
# crossing with no change in either value function.
SECOND_CROSSING = {
    "schema_version": SCHEMA_VERSION,
    "points": [
        {"id": "a", "c": 1.0, "p": 1.0, "n": 1.0},
        {"id": "b", "c": 9.0, "p": 0.0, "n": 0.5},
        {"id": "f", "c": 5.0, "p": 0.0, "n": 0.5},
    ],
    "participation": {"kind": "power", "zeta": 1.0, "alpha": 0.5},
    "transform": {"kind": "identity"},
}

# The probe block's slope lies in (0, 1), and one lookahead step past it
# reaches slope >= 1 with a block worth continuing for.
LOOKAHEAD = {
    "points": [
        {"id": "D", "c": 0.894, "p": 4.138, "n": 1.667},
        {"id": "q0", "c": 10.894, "p": -3.137, "n": 1.026},
        {"id": "q1", "c": 0.694, "p": -0.69, "n": 0.75},
        {"id": "q2", "c": 3.285, "p": 1.445, "n": 1.889},
        {"id": "q3", "c": 8.322, "p": 0.675, "n": 0.052},
        {"id": "q4", "c": 0.509, "p": 0.577, "n": 0.187},
    ],
    "participation": {"kind": "power", "zeta": 1.7893, "alpha": 0.769},
}


@pytest.fixture
def linear_model() -> ParticipationModel:
    return ParticipationModel.power(1.0, 1.0)


@pytest.fixture
def identity_t() -> ProducerTransform:
    return ProducerTransform.identity()
