"""Volume-optimal content distributions for a consumer/media-source pair.

The library finds the distribution at which potential participation meets
served volume (the crossing), classifies the equilibrium outcome of the
best extension beyond it, and synthesizes compensating carveouts when the
two sides disagree.  ``optimize`` is the one entry point to that pipeline;
the package exports it and the types it takes and returns.  Every other
name lives in its submodule.
"""
from .core import Distribution, Point, ProducerTransform
from .participation import ParticipationModel
from .optimizer import OptimizationResult, OptimizerConfig, optimize

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "OptimizationResult",
    "OptimizerConfig",
    "ParticipationModel",
    "Point",
    "ProducerTransform",
    "optimize",
    "__version__",
]
