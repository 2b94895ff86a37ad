"""In-process tracing of the distopt layers, driven from outside the package.

The tracer patches names in the imported ``distopt`` modules; the package
itself is not changed.  Two kinds of probe are installed:

* spans, around the coarse layer boundaries (loading, validation, the
  pipeline stages, scoring, probing, sweeps, classification, report and
  CSV writing, the oracle suites).  A span records its name, start, end,
  parent span and the instance it belongs to.
* counters, on the hot functions (``expected_t``, ``Distribution``
  construction, ``ParticipationModel.m``, ``delta_v_of_increment``,
  ``delta_s``).  They count calls and work units only, because a span per
  call would cost more than the call.  ``expected_t`` also accumulates
  its inclusive time, which shows how much of the scoring span it takes.

Modules bind functions with ``from .x import y``, so a function is patched
under every module attribute that refers to it, not only where it is
defined.  ``uninstall`` restores every binding.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterator

#: span name -> (module, attribute) of the function it wraps
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.load": (("distopt.cli", "load_instance"),),
    "cli.validate": (("jsonschema", "validate"),),
    "cli.report": (
        ("distopt.cli", "run_report"),
        ("distopt.cli", "canonical_json"),
        ("distopt.cli", "_write"),
    ),
    "cli.csv": (("distopt.cli", "sweep_csv"), ("distopt.cli", "threshold_csv")),
    "instances.build": (("distopt.instances", "build_objects"),),
    "optimizer.d_star": (("distopt.optimizer", "determine_d_star"),),
    "optimizer.carve": (("distopt.optimizer", "_carve_block"),),
    "optimizer.d2": (("distopt.optimizer", "continue_to_d2_star"),),
    "sequence.score": (("distopt.sequence", "best_increment"),),
    "sequence.probe": (("distopt.sequence", "best_next_in_sequence"),),
    "sequence.sweep": (("distopt.sequence", "greedy_sweep"),),
    "thresholds.classify": (("distopt.thresholds", "classify"),),
    "oracle.crosscheck": (("distopt.oracle", "crosscheck_thresholds"),),
    "oracle.fd": (("distopt.oracle", "finite_difference_facts"),),
}

#: counted functions: counter prefix -> (module, attribute)
COUNT_TARGETS: dict[str, tuple[str, str]] = {
    "valuation.delta_v_inc": ("distopt.valuation", "delta_v_of_increment"),
    "valuation.delta_s": ("distopt.valuation", "delta_s"),
}


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, instance)
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: Counter[str] = Counter()
        self.expected_t_s = 0.0
        self.instance: str | None = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.instance))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.instance)
            self.counters[f"{name}.calls"] += 1

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent, instance) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "instance": instance,
                        }
                    )
                    + "\n"
                )

    # -- installation ------------------------------------------------------

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every distopt module attribute bound to ``original`` at
        ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "distopt" or mod_name.startswith("distopt.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append(
                        lambda m=module, a=attr, v=value: setattr(m, a, v)
                    )

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _spanned(self, name: str, fn: Callable) -> Callable:
        span = self.span

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import jsonschema

        from distopt import cli, core, participation, thresholds

        counters = self.counters
        tracer = self

        for name, targets in SPAN_TARGETS.items():
            for mod_name, attr in targets:
                module = sys.modules[mod_name]
                original = getattr(module, attr)
                wrapped = self._spanned(name, original)
                if module is jsonschema:
                    # only the CLI calls it, through the module attribute
                    self._patch_attr(jsonschema, attr, wrapped)
                else:
                    self._rebind(original, wrapped)

        load = cli.load_instance

        @wraps(load)
        def load_instance(path: str) -> dict:
            tracer.instance = Path(path).stem
            return load(path)

        self._rebind(load, load_instance)

        from_run = thresholds.ExtensionContext.__dict__["from_run"].__func__
        self._patch_attr(
            thresholds.ExtensionContext,
            "from_run",
            staticmethod(self._spanned("thresholds.context", from_run)),
        )

        for prefix, (mod_name, attr) in COUNT_TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            key = f"{prefix}.calls"

            def counted(*args: Any, _fn=original, _key=key, **kwargs: Any) -> Any:
                counters[_key] += 1
                return _fn(*args, **kwargs)

            self._rebind(original, wraps(original)(counted))

        expected_t = core.expected_t
        clock = time.perf_counter

        @wraps(expected_t)
        def timed_expected_t(d: Any, *args: Any, **kwargs: Any) -> float:
            counters["core.expected_t.calls"] += 1
            counters["core.expected_t.terms"] += len(d)
            start = clock()
            try:
                return expected_t(d, *args, **kwargs)
            finally:
                tracer.expected_t_s += clock() - start

        self._rebind(expected_t, timed_expected_t)

        dist_init = core.Distribution.__init__

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            dist_init(obj, *args, **kwargs)
            counters["core.distribution.builds"] += 1
            counters["core.distribution.entries"] += len(obj)

        self._patch_attr(core.Distribution, "__init__", wraps(dist_init)(init))

        m = participation.ParticipationModel.m

        def m_counted(model: Any, q: float) -> float:
            counters["participation.m.calls"] += 1
            return m(model, q)

        self._patch_attr(
            participation.ParticipationModel, "m", wraps(m)(m_counted)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
