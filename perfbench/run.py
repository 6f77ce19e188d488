"""turanpack benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload resolve-stream --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run. Earlier lines give every
metric with its unit and sample count, the error rate and the machine.
Spans and a full report go to .perfbench_out/. Load is one client in a
closed loop; every op's output is checked (see workloads.py).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 5
OUT_DIR = ".perfbench_out"
# Ops still pending this long after start fail unrun, so a run that has
# slowed down badly still exits in time.
RUN_LIMIT_S = 150
PROCESS_START = time.perf_counter()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package(root: Path):
    src = root / "src"
    if not (src / "turanpack" / "__init__.py").is_file():
        fail(f"no turanpack sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import turanpack
    if Path(turanpack.__file__).resolve().parent != (src / "turanpack").resolve():
        fail(f"imported turanpack from {turanpack.__file__}, not from {src}")
    return turanpack


def machine() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "networkx": version("networkx"),
            "platform": platform.platform()}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- set-up ---------------------------------------------------------------------


def setup_probe(name: str) -> None:
    """Child side of the set-up measurement: import and warm up, then exit."""
    import_package(Path.cwd())
    import workloads
    workloads.WORKLOADS[name].warm_up()


def measure_setup(name: str, root: Path) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import the
    package and warm up the workload's op. Input generation is excluded."""
    import workloads
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name]
    env = workloads.child_env(root)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        result = workloads.run_child(argv, env, root, 120)
        elapsed = time.perf_counter() - started
        if result.code != 0:
            fail(f"set-up probe failed: {result.stderr.strip()[-300:]}")
        if i:  # the first child only fills the bytecode cache
            samples.append(elapsed)
    return samples


# -- the loop ------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, latency: float | None, problem: str | None,
            label: str | None = None) -> None:
        """latency None: the op never ran because the run's time was up."""
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            if label is not None:
                self.by_label.setdefault(label, []).append(latency)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_pass(work, tally: Tally, tracer=None) -> None:
    """One closed-loop pass over the workload's items. An op that raises,
    outlives its timeout (SIGALRM interrupts it) or fails its check counts
    as failed; its wall time is kept either way."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for item in work.items:
            if hasattr(work, "before_op"):
                work.before_op(item)
            remaining = RUN_LIMIT_S - (time.perf_counter() - PROCESS_START)
            if remaining <= 0:
                tally.add(None, f"not run: the run passed its {RUN_LIMIT_S}s limit")
                continue
            timeout = min(work.op_timeout, remaining)
            if tracer is not None:
                tracer.op_id += 1
                tracer.begin("op")
            error = None
            started = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    result = work.op(item)
                finally:
                    elapsed = time.perf_counter() - started
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                error = f"timed out after {timeout:.3g}s"
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.end()
            if error is None:
                try:
                    if tracer is not None:
                        with tracer.paused():
                            error = work.check(item, result)
                    else:
                        error = work.check(item, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            tally.add(elapsed, error, item.get("label"))
    finally:
        signal.signal(signal.SIGALRM, previous)


def run_passes(seconds: float, one_pass) -> int:
    """Whole passes while the next one still fits in `seconds` (at least
    one), so every run measures the same mix of ops."""
    started = time.perf_counter()
    passes = 0
    longest = 0.0
    while passes == 0 or time.perf_counter() - started + longest <= seconds:
        pass_started = time.perf_counter()
        one_pass()
        longest = max(longest, time.perf_counter() - pass_started)
        passes += 1
    return passes


def end_to_end(tally: Tally, setup: list[float], rss_kb: int) -> dict:
    lat = sorted(tally.latencies)
    if not lat:
        fail("no op ran to completion")
    n = len(lat)
    return {
        "throughput_ops_s": ((tally.attempted - tally.failed) / sum(lat), "ops/s", n),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms", n),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }


# -- the traced run ------------------------------------------------------------


def import_layer(root: Path) -> dict:
    """cli.import_* from one `-X importtime` child importing the CLI."""
    import workloads
    argv = [sys.executable, "-X", "importtime", "-c", "import turanpack.cli"]
    result = workloads.run_child(argv, workloads.child_env(root), root, 120)
    if result.code != 0:
        fail(f"importtime child failed: {result.stderr.strip()[-300:]}")
    rows = {}
    for line in result.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows[m.group(4)] = (int(m.group(1)) / 1e3, int(m.group(2)) / 1e3)
    return {
        "cli.import_ms": (rows.get("turanpack.cli", (0, 0))[1], "ms"),
        "cli.import.numpy_ms": (rows.get("numpy", (0, 0))[1], "ms"),
        "cli.import.oracle_self_ms": (rows.get("turanpack.oracle", (0, 0))[0], "ms"),
    }


def traced_run(work, root: Path, seconds: float, out_dir: Path, stem: str):
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()

    def both():
        run_pass(work, plain)
        tracer.install()
        try:
            run_pass(work, traced, tracer)
        finally:
            tracer.uninstall()

    passes = run_passes(seconds, both)
    ops = len(traced.latencies)
    metrics, absent = tracing.layer_metrics(tracer, ops, passes)
    metrics.update(import_layer(root))
    for label in workloads.CLI_LABELS:
        metrics[f"cli.cmd.{label}_ms"] = (0.0, "ms")
    for label, walls in plain.by_label.items():
        metrics[f"cli.cmd.{label}_ms"] = (statistics.median(walls) * 1e3, "ms")
    plain_mean = statistics.fmean(plain.latencies)
    traced_mean = statistics.fmean(traced.latencies)
    metrics["trace.overhead_ms"] = ((traced_mean - plain_mean) * 1e3, "ms/op")
    metrics["trace.overhead_pct"] = (100 * (traced_mean - plain_mean) / plain_mean, "%")
    tracer.write_spans(out_dir / f"{stem}-spans.jsonl.gz")
    return metrics, absent, plain, traced, passes


# -- main ------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    root = Path.cwd()
    import_package(root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{cls.name}-seed{args.seed}-trace{args.trace}"
    context = machine()
    print(f"perfbench workload={cls.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} clients=1 loop=closed")
    print("machine " + " ".join(f"{k}={v}" for k, v in context.items()))

    setup = None if args.trace else measure_setup(cls.name, root)
    work = cls(args.seed, out_dir)  # input generation: not part of set-up
    cls.warm_up()

    report = {"workload": cls.name, "seed": args.seed, "trace": args.trace,
              "machine": context}
    if args.trace:
        if isinstance(work, workloads.CliCold):
            work.in_process = True
        shown, absent, plain, tally, passes = traced_run(
            work, root, args.seconds, out_dir, stem)
        for name, reason in absent.items():
            print(f"absent {name}: {reason}")
        report["absent"] = absent
        print(f"traced passes={passes} ops={len(tally.latencies)} untraced ops="
              f"{len(plain.latencies)}")
        failed = tally.failed + plain.failed
        attempted = tally.attempted + plain.attempted
        failures = tally.failures + plain.failures
    else:
        tally = Tally()
        passes = run_passes(args.seconds, lambda: run_pass(work, tally))
        rss_kb = getattr(work, "peak_child_kb", 0) or \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = end_to_end(tally, setup, rss_kb)
        failed, attempted, failures = tally.failed, tally.attempted, tally.failures
        for name, (value, unit, samples) in e2e.items():
            print(f"{name} = {value:.6g} {unit} (samples={samples})")
        print(f"passes={passes} ops_per_pass={len(work.items)}")
        shown = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
        report["samples"] = {name: samples for name, (_, _, samples) in e2e.items()}
    print(f"error_rate = {failed / attempted:.6g} (failed={failed} of attempted={attempted})")
    for problem in failures:
        print(f"failed op: {problem}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in shown.items()}}
    report.update(result)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
