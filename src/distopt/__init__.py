"""Volume-optimal content distributions for a consumer/media-source pair.

The library finds the distribution at which potential participation meets
served volume (the crossing), classifies the equilibrium outcome of the
best extension beyond it, and synthesizes compensating carveouts when the
two sides disagree.  ``optimize`` is the one entry point to that pipeline.
"""
from .core import (
    Distribution,
    DistributionError,
    EmptyDistributionError,
    Point,
    PointIncrement,
    ProducerTransform,
    SubdistributionError,
    apply_increment,
    combine,
    expected_t,
    remove_subdistribution,
)
from .participation import (
    ParticipationModel,
    actual,
    kappa,
    potential,
)
from .valuation import (
    ValueDelta,
    delta_s,
)
from .sequence import (
    SequenceConfig,
    SequenceStep,
    greedy_sweep,
)
from .thresholds import (
    EquilibriumVerdict,
    ExtensionContext,
    ThresholdReport,
    classify,
    threshold_report,
    x_c_kappa,
    x_l_kappa,
    x_u_kappa,
)
from .optimizer import (
    CarveoutInfeasibleError,
    CarveoutResult,
    OptimizationResult,
    OptimizerConfig,
    optimize,
)
from .oracle import (
    FoundInstance,
    OracleReport,
    crosscheck_thresholds,
    find_scenario_instance,
    finite_difference_facts,
)

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "DistributionError",
    "EmptyDistributionError",
    "Point",
    "PointIncrement",
    "ProducerTransform",
    "SubdistributionError",
    "apply_increment",
    "combine",
    "expected_t",
    "remove_subdistribution",
    "ParticipationModel",
    "actual",
    "kappa",
    "potential",
    "ValueDelta",
    "delta_s",
    "SequenceConfig",
    "SequenceStep",
    "greedy_sweep",
    "EquilibriumVerdict",
    "ExtensionContext",
    "ThresholdReport",
    "classify",
    "threshold_report",
    "x_c_kappa",
    "x_l_kappa",
    "x_u_kappa",
    "CarveoutInfeasibleError",
    "CarveoutResult",
    "OptimizationResult",
    "OptimizerConfig",
    "optimize",
    "FoundInstance",
    "OracleReport",
    "crosscheck_thresholds",
    "find_scenario_instance",
    "finite_difference_facts",
    "__version__",
]
