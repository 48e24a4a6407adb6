"""Run one workload in this process and print its result as one JSON line.

Launched by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread count
fixed.  ``--trace 0`` sets up, runs one untraced window, sets up
``setup_repeats - 1`` more times and reports the end-to-end metrics with
the median set-up time.  Times are scaled to a reference host speed by
calibration marks taken around every set-up and every sub-window (see
:class:`measure.HostSpeed`); the figures as measured are reported beside
them.
``--trace 1`` sets up once, runs an untraced window, then a second window
with every layer binding wrapped by :class:`spans.SpanRecorder`, and
reports per-layer metrics from the traced window plus the tracing overhead.
Correctness checks run after the windows; a failed check is reported as an
error and no metric is printed by ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import time
from pathlib import Path

from measure import HostSpeed, environment, median, peak_rss_mib
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
KERNEL_GROUPS = (
    "linear", "matmul", "fused_layernorm", "sigmoid", "gather", "concat", "segment_sum", "fused_chain",
)
#: End-to-end figures that only serve-open has; listed among the per-layer
#: metrics, they are taken from the untraced window.
E2E_EXTRAS = (
    "serve.bulk_ms_p95", "serve.slo_ms", "serve.slo_attainment", "serve.max_rate_in_slo",
)


def _timed(wl, params, inputs, state, seconds, host, recorder=None) -> dict:
    """One window; its tail percentile needs ``min_samples`` latency samples.

    Everything alive before the window (the pre-generated inputs above all)
    is frozen out of the garbage collector, so collections inside the
    window scan what the program allocates there, not the benchmark's own
    input pool.
    """
    gc.collect()
    gc.freeze()
    result = wl.timed(params, inputs, state, seconds, host, recorder)
    if result["samples"] < params["min_samples"]:
        raise RuntimeError(
            f"{result['samples']} latency samples in the window, "
            f"fewer than the {params['min_samples']} its tail percentile needs"
        )
    return result


def _layers(manifest, wl, params, state, untraced, traced, recorder, window_s, rss, host) -> dict:
    summary = recorder.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def busy(name):
        return summary.get(name, {}).get("self_s", 0.0)

    kernels = recorder.kernels
    replays = calls("tensor.replay")
    grouped = {g: kernels.time_by_name.get(g, 0.0) for g in KERNEL_GROUPS}
    values = {
        "tensor.replay.calls": replays,
        "tensor.replay.busy_s": busy("tensor.replay"),
        **{f"tensor.kernel.{g}.busy_s": t for g, t in grouped.items()},
        "tensor.kernel.other.busy_s": sum(kernels.time_by_name.values()) - sum(grouped.values()),
        "tensor.kernels_per_replay": kernels.count / replays if replays else 0.0,
        "tensor.kernel_bytes_per_replay": kernels.bytes_out / replays if replays else 0.0,
        "tensor.capture.calls": calls("tensor.capture"),
        "tensor.capture.busy_s": busy("tensor.capture"),
        "tensor.program_hit_ratio": traced["program_hits"] / traced["program_lookups"]
        if traced["program_lookups"]
        else 0.0,
        "tensor.eager_fallbacks": traced["eager_fallbacks"],
        "data.loader.wait_s": summary.get("data.loader", {}).get("total_s", 0.0),
        "comm.allreduce.bytes": recorder.allreduce_bytes,
        "process.peak_rss_mib": rss,
        "host.calibration_ms": median(host.marks_ms),
        # Calibration marks are the benchmark's own work, not a layer's.
        "trace.accounted_share": sum(
            entry["self_s"] for name, entry in summary.items() if not name.startswith("bench.")
        )
        / (window_s - busy("bench.calibration")),
        "trace.overhead.throughput_share": 1.0
        - traced["throughput_per_s"] / untraced["throughput_per_s"],
    }
    for name in (
        "model.forward", "structures.neighbor_list", "graph.build_graph", "graph.collate",
        "graph.pad_batch", "comm.allreduce", "serve.publish", "md.predict_wave",
    ):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.busy_s"] = busy(name)
    for name in (
        "train.rank_compute", "train.optimizer", "serve.submit", "serve.poll", "md.integrator",
    ):
        values[f"{name}.busy_s"] = busy(name)
    values.update(wl.after(params, state, traced))
    e2e_u, e2e_t = wl.e2e(untraced, params), wl.e2e(traced, params)
    values["trace.overhead.latency_ms_p50"] = e2e_t["latency_ms_p50"] - e2e_u["latency_ms_p50"]
    values.update({k: v for k, v in wl.after(params, state, untraced).items() if k in E2E_EXTRAS})
    declared = [m["name"] for m in manifest["per_layer"]]
    unknown = set(values) - set(declared)
    if unknown:
        raise KeyError(f"per-layer values not declared in the manifest: {sorted(unknown)}")
    # A layer the workload does not exercise reports 0 (no calls, no time).
    return {name: float(values.get(name, 0.0)) for name in declared}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    manifest = json.loads((HERE / "manifest.json").read_text())
    spec = manifest["workloads"][args.workload]
    params = spec["params"]
    wl = importlib.import_module(spec["module"])
    inputs = wl.make_inputs(params, args.seed, args.seconds)
    out: dict = {"workload": args.workload, "env": environment(args.seed)}

    host = HostSpeed(**manifest["calibration"])

    def timed_setup():
        before = host.mark()
        t0 = time.perf_counter()
        state = wl.setup(params, inputs)
        elapsed = time.perf_counter() - t0
        return state, elapsed, elapsed * host.scale(before, host.mark())

    if args.trace == 0:
        state, raw, scaled = timed_setup()
        setups, raw_setups = [scaled], [raw]
        result = _timed(wl, params, inputs, state, args.seconds, host)
        # Peak memory is read before the repeated set-ups, so it holds one
        # set-up and the window, not the allocator's history of several.
        rss = peak_rss_mib()
        errors = wl.check(params, inputs, state, result)
        metrics = {"setup_s": 0.0, **wl.e2e(result, params)}
        raw_metrics = {"setup_s": 0.0, **wl.e2e_raw(result, params)}
        extras = {k: v for k, v in wl.after(params, state, result).items() if k in E2E_EXTRAS}
        extras["process.peak_rss_mib"] = rss
        out["warmup_captures"] = state.get("warmup_captures")
        for _ in range(manifest["setup_repeats"] - 1):
            state = None  # the previous set-up is freed before the next one
            gc.collect()
            state, raw, scaled = timed_setup()
            setups.append(scaled)
            raw_setups.append(raw)
        metrics["setup_s"] = median(setups)
        raw_metrics["setup_s"] = median(raw_setups)
        out.update(
            metrics=metrics,
            raw_metrics=raw_metrics,
            extras=extras,
            setups_s=setups,
            samples=result["samples"],
            window_s=result["wall_s"],
        )
    else:
        state = timed_setup()[0]
        untraced = _timed(wl, params, inputs, state, args.seconds, host)
        rss = peak_rss_mib()
        recorder = SpanRecorder()
        recorder.install()
        try:
            t0 = time.perf_counter()
            with recorder.span("bench.window"):
                traced = _timed(wl, params, inputs, state, args.seconds, host, recorder)
            window = time.perf_counter() - t0
        finally:
            recorder.uninstall()
        errors = wl.check(params, inputs, state, traced)
        result = traced
        out["warmup_captures"] = state.get("warmup_captures")
        out.update(
            metrics=_layers(manifest, wl, params, state, untraced, traced, recorder, window, rss, host),
            samples=traced["samples"],
            window_s=window,
            spans=len(recorder.spans),
            top_kernels=sorted(recorder.kernels.time_by_name.items(), key=lambda kv: -kv[1])[:8],
            trace_file=args.trace_out,
        )
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        recorder.write_chrome_trace(args.trace_out)
    out.update(
        attempted=result["attempted"],
        failed=result["failed"],
        errors=errors,
        window_captures=result["captures"],
        host_marks_ms=[min(host.marks_ms), median(host.marks_ms), max(host.marks_ms)],
        rungs=result.get("rungs"),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
