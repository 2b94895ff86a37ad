"""The benchmark's tracer patches library names; they must all still resolve.

``bench/tracing.py`` is loaded by path and only read.  A renamed pipeline
stage or hot function then fails here, not only in the benchmark's own
tests.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from distopt import core, participation, thresholds
from distopt.instances import build_objects
from distopt.optimizer import optimize

from conftest import SECOND_CROSSING

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("distopt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    targets = [t for ts in tracing.SPAN_TARGETS.values() for t in ts]
    targets += list(tracing.COUNT_TARGETS.values())
    missing = [
        f"{mod}.{attr}"
        for mod, attr in targets
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
    # patched on the class, so they must be defined there
    assert isinstance(thresholds.ExtensionContext.__dict__.get("from_run"), staticmethod)
    assert callable(core.Distribution.__dict__.get("__init__"))
    assert callable(participation.ParticipationModel.__dict__.get("m"))
    assert callable(core.expected_t)


def test_both_pipeline_stages_are_spanned():
    # ``optimize`` reaches its stages through module globals, which the
    # tracer rebinds
    tracer = _tracing().Tracer()
    pool, model, t, cfg = build_objects(SECOND_CROSSING)
    tracer.install()
    try:
        result = optimize(pool, cfg, model, t)
    finally:
        tracer.uninstall()
    assert result.d2_star is not None
    names = {name for name, *_ in tracer.spans}
    assert {"optimizer.d_star", "optimizer.d2", "sequence.score"} <= names
