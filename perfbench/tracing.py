"""Span tracing around the public calls into each prunekit module.

A :class:`Tracer` replaces functions and methods with wrappers that record
one span per call (name, start, end, parent span) and a few counts.  Each
function is wrapped wherever a caller looks its name up: ``Network``
reaches ``ops.conv2d_forward`` through the module, while ``pipeline``
binds ``train``, ``apply`` and the bundle functions with ``from ...
import``, so every prunekit module attribute that *is* the target function
gets the wrapper.  Methods are wrapped on the class that defines them.
Spans stay in memory; :meth:`Tracer.write` saves them when the run ends,
and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from prunekit import bundle as bundle_mod
from prunekit.pipeline import PIPELINE_STAGES

MIB = float(1 << 20)

# (module, attribute, span name); functions are wrapped under every alias
FUNCTIONS = (
    ("prunekit.ops", "conv2d_forward", "ops.conv_fwd"),
    ("prunekit.ops", "conv2d_backward", "ops.conv_bwd"),
    ("prunekit.ops", "batchnorm_forward", "ops.batchnorm_fwd"),
    ("prunekit.ops", "batchnorm_backward", "ops.batchnorm_bwd"),
    ("prunekit.ops", "maxpool_forward", "ops.maxpool_fwd"),
    ("prunekit.ops", "maxpool_backward", "ops.maxpool_bwd"),
    ("prunekit.ops", "relu_forward", "ops.relu"),
    ("prunekit.ops", "relu_backward", "ops.relu"),
    ("prunekit.ops", "global_avg_pool_forward", "ops.head"),
    ("prunekit.ops", "global_avg_pool_backward", "ops.head"),
    ("prunekit.ops", "linear_forward", "ops.head"),
    ("prunekit.ops", "linear_backward", "ops.head"),
    ("prunekit.ops", "softmax_forward", "ops.head"),
    ("prunekit.ops", "softmax_backward", "ops.head"),
    ("prunekit.gate", "gate_forward", "gate.fwd"),
    ("prunekit.gate", "gate_backward", "gate.bwd"),
    ("prunekit.trainer", "train", "trainer.train"),
    ("prunekit.trainer", "data_loss_and_grad", "trainer.loss"),
    ("prunekit.trainer", "penalty_value", "trainer.loss"),
    ("prunekit.trainer", "evaluate", "trainer.evaluate"),
    ("prunekit.scoring", "collect_scores", "scoring.collect"),
    ("prunekit.planner", "make_plan", "planner.make_plan"),
    ("prunekit.rewriter", "apply", "rewriter.apply"),
    ("prunekit.accounting", "report", "accounting.report"),
    ("prunekit.accounting", "count_flops", "accounting.count_flops"),
    ("prunekit.bundle", "save_bundle", "bundle.save"),
    ("prunekit.bundle", "load_bundle", "bundle.load"),
    ("prunekit.bundle", "bundle_fingerprint", "bundle.fingerprint"),
    ("prunekit.builders", "build", "builders.build"),
    ("prunekit.builders", "initialize_parameters", "builders.init"),
)

# (module, class, method, span name)
METHODS = (
    ("prunekit.network", "Network", "forward", "network.forward"),
    ("prunekit.network", "Network", "backward", "network.backward"),
    ("prunekit.trainer", "OptimizerState", "step", "trainer.optimizer"),
    ("prunekit.graph", "ArchitectureGraph", "validate", "graph.validate"),
    ("prunekit.graph", "ArchitectureGraph", "topo_order", "graph.topo_order"),
)

# counted on every call, never timed: they run thousands of times per graph query
COUNTED_METHODS = (
    ("prunekit.graph", "ArchitectureGraph", "producers", "graph.edge_scans"),
    ("prunekit.graph", "ArchitectureGraph", "consumers", "graph.edge_scans"),
)

# generator methods: each next() is one span, the time a step waits for data
GENERATOR_METHODS = (
    ("prunekit.data", "Dataset", "batches", "data.batch_wait"),
)

# per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "ops.conv_fwd_ms": "ms", "ops.conv_bwd_ms": "ms", "ops.conv_gflops": "GFLOP/s",
    "ops.conv_macs": "count", "ops.im2col_mib": "MiB",
    "ops.batchnorm_fwd_ms": "ms", "ops.batchnorm_bwd_ms": "ms",
    "ops.maxpool_fwd_ms": "ms", "ops.maxpool_bwd_ms": "ms",
    "ops.relu_ms": "ms", "ops.head_ms": "ms",
    "gate.fwd_ms": "ms", "gate.bwd_ms": "ms",
    "network.forward_ms": "ms", "network.backward_ms": "ms",
    "network.self_ms": "ms", "network.tape_mib": "MiB",
    "trainer.optimizer_ms": "ms", "trainer.loss_ms": "ms", "trainer.evaluate_ms": "ms",
    "trainer.train_self_ms": "ms", "trainer.steps": "count",
    "data.batch_wait_ms": "ms",
    "scoring.collect_ms": "ms", "scoring.collect_self_ms": "ms", "scoring.samples": "count",
    "planner.make_plan_ms": "ms", "rewriter.apply_ms": "ms", "rewriter.apply_self_ms": "ms",
    "accounting.report_ms": "ms", "accounting.report_self_ms": "ms",
    "accounting.count_flops_ms": "ms",
    "graph.edge_scans": "count", "graph.validate_ms": "ms", "graph.validate_self_ms": "ms",
    "graph.topo_order_ms": "ms",
    "bundle.save_ms": "ms", "bundle.save_self_ms": "ms", "bundle.load_ms": "ms",
    "bundle.fingerprint_ms": "ms", "bundle.mib_written": "MiB",
    "builders.build_ms": "ms", "builders.build_self_ms": "ms", "builders.init_ms": "ms",
    **{f"pipeline.{stage}_s": "s" for stage in PIPELINE_STAGES},
    "trace.overhead_pct": "%",
}

# metrics that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("ops.conv_macs", "graph.edge_scans", "trainer.steps", "scoring.samples")


def _prunekit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "prunekit" or name.startswith("prunekit."))]


def _array_root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_bytes(net, tape) -> int:
    """Bytes of the arrays a tape holds, each buffer once, parameters excluded."""
    params = {id(_array_root(p)) for node in net.graph.nodes for p in node.params.values()}
    roots: dict[int, int] = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            root = _array_root(obj)
            if id(root) not in params:
                roots[id(root)] = root.nbytes
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)

    for value in tape.outputs.values():
        visit(value)
    for value in tape.caches.values():
        visit(value)
    return sum(roots.values())


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and counts while installed; inert once uninstalled."""

    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.tape_peak_bytes = 0
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "ops.conv_fwd": self._count_conv_fwd,
            "ops.conv_bwd": self._count_conv_bwd,
            "network.forward": self._measure_tape,
            "trainer.optimizer": self._count_step,
            "scoring.collect": self._count_scored,
            "bundle.save": self._count_written,
        }

    # -- spans ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (no-op while inactive)."""
        if not self.active:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def paused(self):
        """Run the block untraced, e.g. the benchmark's own output checks."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, generator_classes=()) -> None:
        """Wrap every target and start recording.

        ``generator_classes`` are Dataset subclasses that override
        ``batches``; their batches are timed as ``data.batch_wait`` too.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _prunekit_modules()
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._timed(name, original)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        for table, make in ((METHODS, self._timed), (COUNTED_METHODS, self._counted),
                            (GENERATOR_METHODS, self._timed_generator)):
            for modname, clsname, attr, name in table:
                cls = getattr(sys.modules[modname], clsname)
                self._patch(cls, attr, make(name, cls.__dict__[attr]))
        for cls in generator_classes:
            self._patch(cls, "batches", self._timed_generator(
                GENERATOR_METHODS[0][3], cls.__dict__["batches"]))
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore every original, last patch first."""
        self.active = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- count hooks ---------------------------------------------------------------

    def _count_conv_fwd(self, args, kwargs, result):
        weight = _arg(args, kwargs, 1, "weight")
        y, cache = result
        self.counts["ops.conv_macs"] += y.size * weight[0].size
        self.counts["ops.im2col_bytes"] += cache[1].nbytes

    def _count_conv_bwd(self, args, kwargs, result):
        dy, cache = _arg(args, kwargs, 0, "dy"), _arg(args, kwargs, 1, "cache")
        # weight and input gradients: two GEMMs the size of the forward one
        self.counts["ops.conv_macs"] += 2 * dy.size * cache[2][0].size

    def _measure_tape(self, args, kwargs, result):
        tape = kwargs.get("tape", args[3] if len(args) > 3 else None)
        if tape is not None:
            self.tape_peak_bytes = max(self.tape_peak_bytes, tape_bytes(args[0], tape))

    def _count_step(self, args, kwargs, result):
        self.counts["trainer.steps"] += 1

    def _count_scored(self, args, kwargs, result):
        self.counts["scoring.samples"] += int(result.metadata["samples"])

    def _count_written(self, args, kwargs, result):
        path = _arg(args, kwargs, 1, "path")
        self.counts["bundle.bytes_written"] += sum(
            os.path.getsize(os.path.join(path, f))
            for f in (bundle_mod.MANIFEST_NAME, bundle_mod.BLOB_NAME))

    # -- aggregation ------------------------------------------------------------------

    def profile(self) -> dict[str, dict]:
        """Per span name: calls, total ms and self ms (total minus children)."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = rows.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child[i]) * 1e3
        return rows

    def layer_metrics(self, stage_seconds: dict | None = None,
                      overhead_pct: float = 0.0) -> dict[str, float]:
        """Every PER_LAYER metric; layers the run never reached read 0."""
        prof = self.profile()

        def total(name):
            return prof.get(name, {}).get("total_ms", 0.0)

        def self_ms(name):
            return prof.get(name, {}).get("self_ms", 0.0)

        m: dict[str, float] = {}
        for name, unit in PER_LAYER.items():
            if name.endswith("_self_ms"):
                m[name] = self_ms(name[:-len("_self_ms")])
            elif name.endswith("_ms"):
                m[name] = total(name[:-len("_ms")])
        conv_s = (m["ops.conv_fwd_ms"] + m["ops.conv_bwd_ms"]) / 1e3
        m["ops.conv_macs"] = self.counts["ops.conv_macs"]
        m["ops.conv_gflops"] = 2 * m["ops.conv_macs"] / conv_s / 1e9 if conv_s else 0.0
        m["ops.im2col_mib"] = self.counts["ops.im2col_bytes"] / MIB
        m["network.self_ms"] = self_ms("network.forward") + self_ms("network.backward")
        m["network.tape_mib"] = self.tape_peak_bytes / MIB
        m["trainer.steps"] = self.counts["trainer.steps"]
        m["scoring.samples"] = self.counts["scoring.samples"]
        m["graph.edge_scans"] = self.counts["graph.edge_scans"]
        m["bundle.mib_written"] = self.counts["bundle.bytes_written"] / MIB
        for stage in PIPELINE_STAGES:
            m[f"pipeline.{stage}_s"] = float((stage_seconds or {}).get(stage, 0.0))
        m["trace.overhead_pct"] = overhead_pct
        return {name: m[name] for name in PER_LAYER}

    def write(self, path: str) -> None:
        """Save the spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")
