"""distopt benchmark: one workload, closed loop, one JSON result line.

    python3 bench/run.py --workload pool-json --seed 1 --seconds 30 --trace 0

Drives ``distopt.cli.main`` in-process from one thread: each call starts
only after the previous one returned.  Inputs are generated from
``--seed`` into a working directory under ``.bench_work/`` in the
checkout and removed at exit.  Every call's outputs are checked; the
last line of standard output is the result object.

``--trace 0`` measures the end-to-end metrics over the workload's calls
for ``--seconds``, and at least over its first pass.  Times are scaled
to a nominal host speed by reference work timed between calls (see
``HostSpeed``), and ``setup_s`` by a bare interpreter start timed after
each set-up spawn (see ``SetupProbe``); the raw figures are printed on
the summary line.
``--trace 1`` runs the first pass to warm up, then untraced and traced,
and reports the per-layer metrics; the spans are written to
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_REPEATS = 12
SETUP_ARGV = ["-m", "distopt.cli", "gen", "--profile", "uniform", "--size", "8"]
SETUP_TIMEOUT_S = 60
#: an interpreter that starts and exits at once, timed after every set-up
#: spawn; it runs without the package on its path
BARE_ARGV = ["-c", "pass"]
#: nominal time of ``BARE_ARGV``: it sets the unit of ``setup_s``.  On the
#: baseline host its median over 25-second windows went from 0.055 s to
#: 0.078 s as the host factor went from 0.85 to 1.34.
BARE_S = 0.065

#: nominal time of one ``_reference_work()``: it sets the unit of the
#: scaled times.  On the baseline host (2-core Xeon VM at 2.0 GHz,
#: CPython 3.11) the work took about 5 ms in fast phases and 9.5 ms in
#: slow ones.
REFERENCE_S = 0.007

PER_LAYER_SPANS = (
    "cli.validate",
    "cli.load",
    "cli.report",
    "cli.csv",
    "instances.build",
    "optimizer.d_star",
    "optimizer.carve",
    "optimizer.d2",
    "sequence.score",
    "sequence.probe",
    "sequence.sweep",
    "thresholds.context",
    "thresholds.classify",
    "oracle.crosscheck",
    "oracle.fd",
    "oracle.scenario",
)
PER_LAYER_CALLS = (
    "cli.validate",
    "instances.build",
    "optimizer.d_star",
    "optimizer.carve",
    "optimizer.d2",
    "sequence.score",
    "sequence.probe",
    "sequence.sweep",
    "thresholds.context",
    "thresholds.classify",
    "valuation.delta_v_inc",
    "valuation.delta_s",
    "core.expected_t",
    "participation.m",
)
PER_LAYER_COUNTS = (
    "core.expected_t.terms",
    "core.distribution.builds",
    "core.distribution.entries",
)


class _RefPoint:
    __slots__ = ("c", "p")

    def __init__(self, c: float, p: float) -> None:
        self.c = c
        self.p = p

    def value(self) -> float:
        return self.p * 1.5 if self.p > 0 else 0.0


_REF_VALUES = [((i * 7919) % 1000) / 7.0 for i in range(2000)]
_REF_POINTS = {
    f"p{i}": (_RefPoint(i * 0.37 % 5, i * 0.11 % 2), 0.5 + i % 3) for i in range(150)
}


def _reference_work() -> float:
    """Fixed pure-Python work like the package's own: dict updates,
    sorting, and fsum over generators of method calls on small objects."""
    total = 0.0
    for _ in range(12):
        bins: dict[int, float] = {}
        for k, v in enumerate(_REF_VALUES):
            bins[k & 127] = bins.get(k & 127, 0.0) + v * 0.5
        total += math.fsum(bins.values()) + sum(sorted(_REF_VALUES[:300]))
    for _ in range(100):
        entries = _REF_POINTS.values()
        total += math.fsum(w * pt.value() for pt, w in entries) / math.fsum(
            w for _, w in entries
        )
    return total


def _pin_to_current_cpu() -> None:
    """Keep this process, and the interpreters it starts, on one CPU.

    The host's CPUs drift in speed independently of each other, so the
    reference work and the measured work must run on the same one.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # unpinned: the scaling still removes most of the drift


class HostSpeed:
    """Scales wall times to the nominal speed of the baseline host.

    The shared host this benchmark was built on drifts in speed by up to
    1.7x over tens of seconds, for process and wall time alike.
    Reference work timed just before and just after each measured
    interval tracks that drift; dividing by it removes most of it.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self._last = self._sample()

    @staticmethod
    def _sample() -> float:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start

    def scale(self, elapsed: float) -> float:
        """``elapsed`` at nominal speed; call right after the interval."""
        after = self._sample()
        ref = (self._last + after) / 2
        self._last = after
        self.refs.append(ref)
        return elapsed * REFERENCE_S / ref

    def skip(self) -> None:
        """Start the next interval here, ignoring what ran since the last."""
        self._last = self._sample()

    def factor(self) -> float:
        """How much slower than nominal the host ran, as a median."""
        return statistics.median(self.refs) / REFERENCE_S


class Outcome:
    """Failure accounting and output digests for a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: over the outputs of the first pass, in call order
        self.pass_digest = hashlib.sha256()
        #: call label -> digest of the outputs of its first run
        self.call_digests: dict[str, str] = {}

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)


def _output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        name = path.relative_to(out_dir).as_posix().encode()
        digest.update(name + b"\0" + len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def _invoke(cli_main, argv: list[str]) -> tuple[int | None, str | None]:
    try:
        return cli_main(argv), None
    except (Exception, SystemExit) as exc:  # a crash is a failed call
        return None, f"{type(exc).__name__}: {exc}"


def _run_call(cli_main, call, outcome: Outcome, in_pass: bool) -> float:
    """Run one call, check and digest its outputs; return its wall time.

    A call made again must write the same bytes as the first time.
    """
    shutil.rmtree(call.out_dir, ignore_errors=True)
    call.out_dir.mkdir(parents=True)
    start = time.perf_counter()
    rc, crash = _invoke(cli_main, call.argv)
    elapsed = time.perf_counter() - start
    outcome.attempted += call.instances
    if crash is not None:
        outcome.fail(call.instances, f"{call.label}: {crash}")
        return elapsed
    try:
        problems = call.check(rc, call.out_dir)
    except (ValueError, KeyError, TypeError) as exc:
        problems = {"": [f"unreadable output: {exc!r}"]}
    if problems:
        outcome.fail(
            min(call.instances, len(problems)),
            f"{call.label}: {json.dumps(problems, sort_keys=True)[:400]}",
        )
    digest = _output_digest(call.out_dir)
    if outcome.call_digests.setdefault(call.label, digest) != digest:
        outcome.fail(call.instances, f"{call.label}: outputs changed between runs")
    if in_pass:
        outcome.pass_digest.update(f"{call.label}\0{digest}\n".encode())
    return elapsed


class SetupProbe:
    """Times a fresh interpreter running a small ``gen`` (``setup_s``).

    The spawns are spread over the run.  Each is followed by a bare
    interpreter start, and each ``gen`` time is scaled by ``BARE_S`` over
    that bare time: the start-up of a new process drifts with the host
    differently from the in-process reference work, but just like another
    start-up.  ``setup_s`` is the median of the scaled times.
    """

    def __init__(self, work: Path, outcome: Outcome) -> None:
        self.work = work
        self.outcome = outcome
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.bare_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.first_output: bytes | None = None

    def _spawn(self, argv: list[str], env: dict[str, str]):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=self.work,
            env=env,
            capture_output=True,
            timeout=SETUP_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    def spawn(self) -> None:
        elapsed, proc = self._spawn(SETUP_ARGV, self.env)
        bare, bare_proc = self._spawn(BARE_ARGV, self.bare_env)
        self.times.append(elapsed)
        self.scaled.append(elapsed * BARE_S / bare)
        self.outcome.attempted += 1
        if self.first_output is None:
            self.first_output = proc.stdout
        if bare_proc.returncode != 0:
            self.outcome.fail(1, f"bare interpreter: exit {bare_proc.returncode}")
        elif proc.returncode != 0 or proc.stdout != self.first_output:
            self.outcome.fail(1, f"setup gen: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        elif len(json.loads(proc.stdout)["points"]) != 8:
            self.outcome.fail(1, "setup gen: wrong point count")


def check_digest(workload: str, digest: str, seed: int, tiny: bool) -> str:
    if seed != DEFAULT_SEED or tiny:
        return "skipped"
    recorded = json.loads((BENCH / "digests.json").read_text()).get(workload)
    return "match" if recorded == digest else "mismatch"


def run_end_to_end(
    cli_main, pass_len: int, call_at, seconds: float, outcome: Outcome, work: Path
) -> dict:
    """Calls in order until ``seconds`` have passed and the first pass is
    done, with the set-up spawns spread between them."""
    speed = HostSpeed()
    setup = SetupProbe(work, outcome)
    per_instance: list[float] = []
    raw_per_instance: list[float] = []
    instances = 0
    busy = raw_busy = 0.0
    k = 0
    start = time.perf_counter()
    while k < pass_len or time.perf_counter() - start < seconds:
        call = call_at(k)
        raw = _run_call(cli_main, call, outcome, in_pass=k < pass_len)
        elapsed = speed.scale(raw)
        per_instance.append(elapsed / call.instances)
        raw_per_instance.append(raw / call.instances)
        instances += call.instances
        busy += elapsed
        raw_busy += raw
        k += 1
        while len(setup.times) < SETUP_REPEATS and (
            time.perf_counter() - start >= len(setup.times) * seconds / SETUP_REPEATS
        ):
            setup.spawn()
            speed.skip()
    while len(setup.times) < SETUP_REPEATS:
        setup.spawn()
    return {
        "setup_s": statistics.median(setup.scaled),
        "raw_setup_s": statistics.median(setup.times),
        "instances_per_s": instances / busy,
        "instance_s_p50": statistics.median(per_instance),
        "raw_instances_per_s": instances / raw_busy,
        "raw_instance_s_p50": statistics.median(raw_per_instance),
        "host_factor": speed.factor(),
        "samples": len(per_instance),
    }


def run_traced(
    cli_main, pass_len: int, call_at, tracer, outcome: Outcome, run_label: str
) -> dict:
    """The first pass three times: to warm up, untraced, and traced.

    Per-layer metrics come from the traced pass; the untraced one gives
    the tracing overhead.
    """
    calls = [call_at(k) for k in range(pass_len)]
    for call in calls:
        _run_call(cli_main, call, outcome, in_pass=True)
    speed = HostSpeed()
    untraced = sum(
        speed.scale(_run_call(cli_main, call, outcome, in_pass=False))
        for call in calls
    )
    tracer.install()
    try:
        traced = 0.0
        for call in calls:
            tracer.instance = call.label
            with tracer.span("bench.call"):
                raw = _run_call(cli_main, call, outcome, in_pass=False)
            traced += speed.scale(raw)
    finally:
        tracer.uninstall()
    tracer.write_spans(ROOT / ".bench_out" / f"spans-{run_label}.jsonl")

    self_s = tracer.self_times()
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (counters[f"{name}.calls"], "count")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (counters[name], "count")
    metrics["core.expected_t.s"] = (tracer.expected_t_s, "s")
    metrics["optimizer.carve.iterations"] = (
        sum(call.carve_iterations(call.out_dir) for call in calls),
        "count",
    )
    checked = skipped = 0
    for call in calls:
        c, s = call.oracle_counts(call.out_dir)
        checked, skipped = checked + c, skipped + s
    metrics["oracle.checked"] = (checked, "count")
    metrics["oracle.skipped"] = (skipped, "count")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for smoke tests"
    )
    args = parser.parse_args(argv)

    if not (SRC / "distopt" / "cli.py").is_file():
        print(f"error: no distopt sources under {SRC}", file=sys.stderr)
        return 2
    _pin_to_current_cpu()
    sys.path.insert(0, str(SRC))
    from distopt.cli import main as cli_main

    from tracing import Tracer
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_label = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{run_label}-{os.getpid()}"
    outcome = Outcome()
    tracer = Tracer()
    try:
        work.mkdir(parents=True)
        span = tracer.span if args.trace else (lambda _name: nullcontext())
        pass_len, call_at = build(args.workload, args.seed, work, args.tiny, span)
        if args.trace:
            metrics = run_traced(cli_main, pass_len, call_at, tracer, outcome, run_label)
            summary = f"samples={pass_len}"
        else:
            e2e = run_end_to_end(
                cli_main, pass_len, call_at, args.seconds, outcome, work
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (e2e["setup_s"], "s"),
                "instances_per_s": (e2e["instances_per_s"], "1/s"),
                "instance_s_p50": (e2e["instance_s_p50"], "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            summary = (
                f"samples={e2e['samples']} host_factor={e2e['host_factor']:.4f} "
                f"raw_setup_s={e2e['raw_setup_s']:.6g} "
                f"raw_instances_per_s={e2e['raw_instances_per_s']:.6g} "
                f"raw_instance_s_p50={e2e['raw_instance_s_p50']:.6g}"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = outcome.pass_digest.hexdigest()
    digest_state = check_digest(args.workload, digest, args.seed, args.tiny)
    if digest_state == "mismatch":
        outcome.fail(1, f"output digest {digest} differs from bench/digests.json")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"{summary} sha256={digest} digest={digest_state} "
        f"error_rate={outcome.failed / max(1, outcome.attempted)!r}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
