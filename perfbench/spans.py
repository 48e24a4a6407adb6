"""In-memory span recorder wrapped around the layers' public functions.

Tracing patches the *names callers actually use*: a function imported with
``from repro.graph.crystal_graph import build_graph`` is a separate binding
in every importing module, so each binding is listed in :data:`PATCHES`.
Class attributes (methods) are patched once on the class.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` indexes the span
that was open when this one started (``-1`` at top level).  Spans stay in
memory and are written out once, at the end, as Chrome trace-event JSON.
A span's *self time* is its duration minus the durations of its direct
children, so self times of nested spans partition the outermost spans.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext

#: (span name, module path, attribute path) — every binding that is wrapped.
#: Module-level functions appear once per importing module.
PATCHES: list[tuple[str, str, str]] = [
    # structures: fresh pair searches (NeighborCache rebuilds call the
    # module-level name in repro.structures.neighbors).
    ("structures.neighbor_list", "repro.structures.neighbors", "neighbor_list"),
    ("structures.neighbor_list", "repro.graph.crystal_graph", "neighbor_list"),
    ("structures.neighbor_cache", "repro.structures.neighbors", "NeighborCache.query"),
    # graph: builds, collation and padding, at each importing module.
    ("graph.build_graph", "repro.graph.crystal_graph", "build_graph"),
    ("graph.build_graph", "repro.serve.engine", "build_graph"),
    ("graph.build_graph", "repro.md.farm", "build_graph"),
    ("graph.build_graph", "repro.md.calculator", "build_graph"),
    ("graph.build_graph", "repro.data.dataset", "build_graph"),
    ("graph.collate", "repro.graph.batching", "collate"),
    ("graph.collate", "repro.serve.engine", "collate"),
    ("graph.collate", "repro.data.dataset", "collate"),
    ("graph.collate", "repro.md.calculator", "collate"),
    ("graph.pad_batch", "repro.graph.batching", "pad_batch"),
    ("graph.pad_batch", "repro.data.loader", "pad_batch"),
    ("graph.pad_batch", "repro.tensor.compile", "pad_batch"),
    # tensor: capture and replay of compiled programs.
    ("tensor.capture", "repro.tensor.compile", "StepCompiler._capture"),
    ("tensor.capture", "repro.tensor.compile", "InferenceCompiler._capture"),
    ("tensor.replay", "repro.tensor.compile", "CompiledStep.replay"),
    # model: eager forward (captures, fallbacks, eager references).
    ("model.forward", "repro.model.chgnet", "CHGNetModel.forward"),
    # train: per-rank compute and the optimizer.
    ("train.step", "repro.train.distributed", "DistributedTrainer.train_step"),
    ("train.rank_compute", "repro.tensor.compile", "StepCompiler.step"),
    ("train.optimizer", "repro.train.optimizer", "Adam.step"),
    # comm: the gradient collective.
    ("comm.allreduce", "repro.comm.communicator", "SimCommunicator.allreduce_mean_inplace"),
    # serve: the engine's public entry points.
    ("serve.submit", "repro.serve.engine", "InferenceEngine.submit"),
    ("serve.poll", "repro.serve.engine", "InferenceEngine.poll"),
    ("serve.publish", "repro.serve.engine", "InferenceEngine.publish_weights"),
    # md: farm waves and the integrators' two step phases.
    ("md.predict_wave", "repro.serve.engine", "InferenceEngine.predict_wave"),
    ("md.integrator", "repro.md.integrator", "VelocityVerlet.begin_step"),
    ("md.integrator", "repro.md.integrator", "VelocityVerlet.finish_step"),
    ("md.integrator", "repro.md.relax", "FIRE.begin_step"),
    ("md.integrator", "repro.md.relax", "FIRE.finish_step"),
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _allreduce_bytes(args: tuple) -> int:
    # SimCommunicator.allreduce_mean_inplace(self, per_rank, work=None)
    return sum(int(arr.nbytes) for arr in args[1])


class SpanRecorder:
    """Collects spans from wrapped functions; see the module docstring.

    Replays run inside one reusable ``runtime.kernel_stats`` scope, which
    routes them through the per-kernel timed replay path, so
    :attr:`kernels` tallies every replayed kernel (count, computed output
    bytes, seconds) — and nothing executed eagerly.
    """

    def __init__(self) -> None:
        from repro.runtime import kernel_stats

        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.allreduce_bytes = 0
        self._replay_scope = kernel_stats()
        self.kernels = self._replay_scope.stats
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        scope = self._replay_scope if name == "tensor.replay" else nullcontext()
        count_bytes = name == "comm.allreduce"

        def traced(*args, **kwargs):
            if count_bytes:
                self.allreduce_bytes += _allreduce_bytes(args)
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                with scope:
                    return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding in :data:`PATCHES` (idempotent per recorder)."""
        if self._originals:
            return
        for name, module, attr in PATCHES:
            owner, key = _resolve(module, attr)
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._originals.append((owner, key, original))
            setattr(owner, key, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def summary(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), kids in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - kids) * 1e-9
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete ``X`` events)."""
        t0 = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
