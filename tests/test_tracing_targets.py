"""The benchmark's tracer patches library names; they must all still resolve.

``bench/tracing.py`` is loaded by path and only read.  A renamed pipeline
stage or hot function then fails here, not only in the benchmark's own
tests.
"""
from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import distopt
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


def test_the_benchmark_imports_load_every_traced_module():
    # ``Tracer.install`` reads each target from ``sys.modules``, and the
    # benchmark loads the library only through ``distopt.cli`` and, for its
    # workloads, ``distopt.oracle``; a module those two no longer load at
    # import time would end a traced run in a ``KeyError``
    script = (
        "import importlib.util, sys\n"
        "import distopt.cli, distopt.oracle\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "targets = [t for ts in tracing.SPAN_TARGETS.values() for t in ts]\n"
        "targets += list(tracing.COUNT_TARGETS.values())\n"
        "print(sorted({m for m, _ in targets if m.startswith('distopt')} - set(sys.modules)))\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(distopt.__file__).parent.parent)},
    )
    assert proc.stdout.splitlines()[:1] == ["[]"], proc.stderr
    assert proc.returncode == 0, proc.stderr
