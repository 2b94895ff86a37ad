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

# A participation scale of 5e-324, the least subnormal: every participation
# ratio at the crossing is subnormal, and the probe block's weight share
# times one of them rounds to 0.
SUBNORMAL_SCALE = {
    "points": [
        {"id": "a", "c": 1.9385183703262605, "p": -1, "n": 0.009951299105697144},
        {"id": "b", "c": 3, "p": 1.9385183703262605, "n": 1},
    ],
    "participation": {"kind": "power", "zeta": 5e-324, "alpha": 0.05},
}


@pytest.fixture
def linear_model() -> ParticipationModel:
    return ParticipationModel.power(1.0, 1.0)


@pytest.fixture
def identity_t() -> ProducerTransform:
    return ProducerTransform.identity()
