"""Volume-optimal content distributions for a consumer/media-source pair.

The library finds the distribution at which potential participation meets
served volume (the crossing), classifies the equilibrium outcome of the
best extension beyond it, and synthesizes compensating carveouts when the
two sides disagree.  ``optimize`` is the one entry point to that pipeline;
the package exports it and the types it takes and returns.  Every other
name lives in its submodule.

Importing the package loads none of its submodules: an exported name loads
its module on first access, so ``distopt gen`` never loads the optimizer.
"""
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

#: exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("Distribution", "Point", "ProducerTransform"), "core"),
    **dict.fromkeys(("OptimizationResult", "OptimizerConfig", "optimize"), "optimizer"),
    "ParticipationModel": "participation",
}


def __getattr__(name: str):
    """An exported name, from its submodule; any other name raises
    ``AttributeError``, so ``from distopt import core`` imports the module."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
