"""The benchmark's tracer still finds every layer function it wraps, and its
per-layer metrics are exactly the ones BENCHMARK.json declares.

A layer function that is renamed or deleted makes the traced benchmark run
drop that metric from its result line; this catches it in the test suite.
"""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import turanpack

ROOT = Path(__file__).resolve().parent.parent
# Metrics the runner adds itself, outside the tracer: CLI import and
# command times, and the tracing overhead.
RUNNER_PREFIXES = ("cli.", "trace.")


def load_tracer():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_tracer_finds_every_layer_and_declared_metric():
    for module in pkgutil.iter_modules(turanpack.__path__):
        importlib.import_module(f"turanpack.{module.name}")
    tracing = load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == {}
        metrics, absent = tracing.layer_metrics(tracer, 1, 1)
    finally:
        tracer.uninstall()
    assert absent == {}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer"]
                if not m["name"].startswith(RUNNER_PREFIXES)}
    assert set(metrics) == expected


def test_move_kinds_match_the_tracer():
    # A renamed move kind would read 0 in traced runs without any error.
    from turanpack.shifting import STIR_MOVES, WITNESS_MOVES
    assert WITNESS_MOVES + STIR_MOVES == load_tracer().MOVE_KINDS
