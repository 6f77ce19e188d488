"""Span tracing around turanpack's layer functions, applied from outside.

The tracer replaces each layer function wherever callers look it up (the
defining module and every turanpack module that imported the name), or the
attribute on its class for methods; the benchmark calls through module
attributes, so it sees the wrappers too. Each call becomes a span (id,
name, start, end, parent span, op id) kept in memory; self time is a
span's duration minus the time its child spans cover. Nothing inside the
package changes.

A layer function that no longer exists under its name is reported absent
with a reason, never as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path)
LAYER_FUNCTIONS = (
    ("codec.from_graph6", "turanpack.codec", "from_graph6"),
    ("codec.to_graph6", "turanpack.codec", "to_graph6"),
    ("graphs.Graph.init", "turanpack.graphs", "Graph.__init__"),
    ("graphs.complement", "turanpack.graphs", "complement"),
    ("records.to_json_line", "turanpack.records", "ResultRecord.to_json_line"),
    ("formulas.dispatch_formula", "turanpack.formulas", "dispatch_formula"),
    ("constructions.build_ref", "turanpack.constructions", "build_ref"),
    ("constructions.claim_holds", "turanpack.constructions", "claim_holds"),
    ("packing.find_disjoint_independent_sets", "turanpack.packing",
     "find_disjoint_independent_sets"),
    ("packing.clique_union_search", "turanpack.packing", "_clique_union_search"),
    ("packing.greedy_attempt", "turanpack.packing", "_greedy_attempt"),
    ("packing.verify_witness", "turanpack.packing", "verify_witness"),
    ("packing.equitable_coloring", "turanpack.packing", "equitable_coloring"),
    ("packing.balance_by_shifts", "turanpack.packing", "_balance_by_shifts"),
    ("packing.networkx_fallback", "turanpack.packing", "_networkx_equitable"),
    ("packing.equitable_coloring_exact", "turanpack.packing",
     "equitable_coloring_exact"),
    ("shifting.resolve", "turanpack.shifting", "resolve"),
    ("shifting.init_partition", "turanpack.shifting", "init_partition"),
    ("shifting.build_aux_digraph", "turanpack.shifting", "build_aux_digraph"),
    ("shifting.propose_moves", "turanpack.shifting", "propose_moves"),
    ("shifting.PartitionState.init", "turanpack.shifting", "PartitionState.__init__"),
    ("shifting.PartitionState.validate", "turanpack.shifting",
     "PartitionState.__post_init__"),
    ("shifting.certify_k7_structure", "turanpack.shifting", "certify_k7_structure"),
    ("shifting.verify_certificate", "turanpack.shifting", "verify_certificate"),
    ("oracle.exhaustive_ex_sizes", "turanpack.oracle", "exhaustive_ex_sizes"),
    ("probes.random_bounded_graph", "turanpack.probes", "random_bounded_graph"),
    ("probes.probe_dichotomy", "turanpack.probes", "probe_dichotomy"),
)

MOVE_KINDS = ("path-shift", "double-solo", "solo-reroot", "re-root", "solo-swap")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, start, child seconds]
        self.next_id = 0
        self.op_id = -1
        self.enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0])
        self.next_id += 1

    def end(self) -> None:
        finished = time.perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = finished - start
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, name, start, finished, parent, self.op_id))
        self.calls[name] += 1
        self.self_s[name] += duration - child

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for name, module_name, path in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.absent[name] = f"module {module_name} does not import: {exc}"
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent[name] = f"{module_name}.{'.'.join(owner_path)} not found"
                continue
            if inspect.isclass(owner):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.absent[name] = f"{module_name}.{path} not found"
                continue
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for holder in self._holders():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _holders(self):
        for mod_name, module in list(sys.modules.items()):
            if module is None:
                continue
            if mod_name == "turanpack" or mod_name.startswith("turanpack."):
                yield module

    def _hooks(self) -> dict:
        """Counters read at a layer boundary: packing path taken, graphs the
        oracle scans, and the engine's moves via the public EngineTrace."""
        counts = self.counts

        def greedy_after(args, kwargs, result):
            counts["packing.path.greedy" if result is not None else "packing.path.bnb"] += 1

        def oracle_after(args, kwargs, result):
            n = kwargs.get("n", args[0] if args else 0)
            counts["oracle.graphs_scanned"] += 1 << (n * (n - 1) // 2)

        hooks = {
            "packing.greedy_attempt": (None, greedy_after),
            "oracle.exhaustive_ex_sizes": (None, oracle_after),
        }
        shifting = sys.modules.get("turanpack.shifting")
        engine_trace = getattr(shifting, "EngineTrace", None)
        resolve = getattr(shifting, "resolve", None)
        if engine_trace is None or resolve is None:
            self.absent["shifting.moves"] = "turanpack.shifting.EngineTrace or resolve not found"
            return hooks
        params = list(inspect.signature(resolve).parameters)
        if "trace" not in params:
            self.absent["shifting.moves"] = "resolve() takes no trace argument"
            return hooks
        trace_pos = params.index("trace")

        def resolve_before(args, kwargs):
            if len(args) <= trace_pos and kwargs.get("trace") is None:
                kwargs = {**kwargs, "trace": engine_trace()}
            return args, kwargs

        def resolve_after(args, kwargs, result):
            trace = kwargs.get("trace") or args[trace_pos]
            counts["shifting.resolved"] += 1
            counts["shifting.exact_fallback"] += bool(trace.used_exact_fallback)
            for kind in trace.moves:
                counts[f"shifting.moves.{kind}"] += 1

        hooks["shifting.resolve"] = (resolve_before, resolve_after)
        return hooks

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span_id, name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op_id},
                                        separators=(",", ":")) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics and the absent ones with reasons.

    `*.calls`, path and move counts are per pass over the corpus, so they
    repeat exactly for a seed; `*.self_us` / `*.self_ms` are self time per op.
    """
    metrics: dict[str, tuple[float, str]] = {}
    absent: dict[str, str] = {}
    c = tracer.counts

    def per_pass(value: float) -> float:
        return value / passes

    def self_per_op(name: str, scale: float) -> float:
        return tracer.self_s[name] / ops * scale

    def put(metric: str, needs: tuple[str, ...], value, unit: str) -> None:
        missing = [n for n in needs if n in tracer.absent]
        if missing:
            absent[metric] = tracer.absent[missing[0]]
        else:
            metrics[metric] = (value(), unit)

    for span, unit, scale in (
            ("codec.from_graph6", "us/op", 1e6), ("codec.to_graph6", "us/op", 1e6),
            ("graphs.Graph.init", "us/op", 1e6), ("graphs.complement", "us/op", 1e6),
            ("records.to_json_line", "us/op", 1e6),
            ("formulas.dispatch_formula", "us/op", 1e6),
            ("constructions.build_ref", "ms/op", 1e3),
            ("constructions.claim_holds", "ms/op", 1e3),
            ("packing.find_disjoint_independent_sets", "ms/op", 1e3),
            ("packing.verify_witness", "us/op", 1e6),
            ("packing.equitable_coloring", "us/op", 1e6),
            ("packing.balance_by_shifts", "us/op", 1e6),
            ("packing.equitable_coloring_exact", "ms/op", 1e3),
            ("shifting.resolve", "us/op", 1e6), ("shifting.init_partition", "us/op", 1e6),
            ("shifting.build_aux_digraph", "us/op", 1e6),
            ("shifting.propose_moves", "us/op", 1e6),
            ("shifting.PartitionState.validate", "us/op", 1e6),
            ("shifting.certify_k7_structure", "us/op", 1e6),
            ("shifting.verify_certificate", "us/op", 1e6),
            ("oracle.exhaustive_ex_sizes", "ms/op", 1e3),
            ("probes.random_bounded_graph", "us/op", 1e6),
            ("probes.probe_dichotomy", "ms/op", 1e3)):
        suffix = "self_us" if unit == "us/op" else "self_ms"
        put(f"{span}.{suffix}", (span,),
            lambda span=span, scale=scale: self_per_op(span, scale), unit)

    for span in ("codec.from_graph6", "graphs.Graph.init",
                 "packing.find_disjoint_independent_sets", "probes.random_bounded_graph"):
        put(f"{span}.calls", (span,), lambda span=span: per_pass(tracer.calls[span]), "count")
    put("shifting.PartitionState.count", ("shifting.PartitionState.init",),
        lambda: per_pass(tracer.calls["shifting.PartitionState.init"]), "count")
    put("packing.networkx_fallback.count", ("packing.networkx_fallback",),
        lambda: per_pass(tracer.calls["packing.networkx_fallback"]), "count")

    put("packing.path.analytic", ("packing.clique_union_search",),
        lambda: per_pass(tracer.calls["packing.clique_union_search"]), "count")
    put("packing.path.greedy", ("packing.greedy_attempt",),
        lambda: per_pass(c["packing.path.greedy"]), "count")
    put("packing.path.bnb", ("packing.greedy_attempt",),
        lambda: per_pass(c["packing.path.bnb"]), "count")
    put("packing.greedy_hit_ratio", ("packing.greedy_attempt",),
        lambda: _ratio(c["packing.path.greedy"],
                       c["packing.path.greedy"] + c["packing.path.bnb"]), "ratio")

    for kind in MOVE_KINDS:
        put(f"shifting.moves.{kind}", ("shifting.moves",),
            lambda kind=kind: per_pass(c[f"shifting.moves.{kind}"]), "count")
    put("shifting.exact_fallback_ratio", ("shifting.moves",),
        lambda: _ratio(c["shifting.exact_fallback"], c["shifting.resolved"]), "ratio")

    put("oracle.graphs_scanned_per_s", ("oracle.exhaustive_ex_sizes",),
        lambda: _ratio(c["oracle.graphs_scanned"], tracer.self_s["oracle.exhaustive_ex_sizes"]),
        "graphs/s")
    return metrics, absent
