"""The repository's benchmark: train, serve-open and farm workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --write-benchmark-json    # regenerate BENCHMARK.json

Each workload runs in a child process (``perfbench/workload.py``) with
``PYTHONPATH=src`` and one BLAS thread.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced window
(and writes a Chrome trace under ``.perfbench_out/``).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check, a failed child or a checkout without ``src/repro``
exits non-zero without printing a result.  Workloads, parameters and the
metric table live in ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"


def _manifest() -> dict:
    return json.loads((HERE / "manifest.json").read_text())


def benchmark_json(manifest: dict) -> dict:
    """The BENCHMARK.json contents, derived from the manifest."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": manifest["run_seconds"],
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in manifest["workloads"].items()
        ],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in manifest["end_to_end"]
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in manifest["per_layer"]],
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Run one workload in a fresh interpreter and return its parsed result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    trace_out = root / ".perfbench_out" / f"trace_{workload}_seed{seed}.json"
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--trace-out", str(trace_out),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(manifest: dict, result: dict, trace: int) -> dict:
    """Print the human-readable lines; return the result JSON object."""
    name = result["workload"]
    spec = manifest["workloads"][name]
    print(f"== {name}: {spec['loop']}")
    print(f"   shapes: {spec['shapes']}; model width {spec['model_width']}")
    print(f"   env: {json.dumps(result['env'], sort_keys=True)}")
    print(
        f"   window {result['window_s']:.2f} s, {result['samples']} latency samples, "
        f"captures in window {result['window_captures']}"
    )
    lo, mid, hi = result["host_marks_ms"]
    ref = manifest["calibration"]["ref_ms"]
    print(f"   calibration chunk: {mid:.3f} ms median ({lo:.3f}-{hi:.3f}), reference {ref} ms")
    if result["warmup_captures"] is not None:
        print(f"   warm-up captures per pass: {result['warmup_captures']}")
    for r, rung in enumerate(result["rungs"] or []):
        print(
            f"   rung {r}: offered {rung['rate']:.1f}/s, completed {rung['completed_per_s']:.1f}/s, "
            f"interactive p50 {rung['interactive_p50_ms']:.1f} ms p95 {rung['interactive_p95_ms']:.1f} ms "
            f"(n={rung['interactive_samples']}), backlog at end {rung['backlog_end']}"
        )
    attempted, failed = result["attempted"], result["failed"]
    print(f"   {name}.failed_share = {failed / attempted:.6f} ({failed} of {attempted})")
    metrics = result["metrics"]
    if trace == 0:
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        print(f"   setups: {', '.join(f'{s:.3f}' for s in result['setups_s'])} s (median reported)")
        for key, value in metrics.items():
            print(
                f"   {spec['names'].get(key, key)} = {value:.6g} {units[key]}  [{key}]"
                f"  (as measured: {result['raw_metrics'][key]:.6g})"
            )
        per_layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        for key, value in result["extras"].items():
            print(f"   {key} = {value:.6g} {per_layer_units[key]}")
    else:
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        print(f"   {result['spans']} spans written to {result['trace_file']}")
        top = ", ".join(f"{name} {t:.3f}" for name, t in result["top_kernels"])
        print(f"   replayed kernels by time (s): {top}")
        for key, value in metrics.items():
            print(f"   {key} = {value:.6g} {units[key]}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    manifest = _manifest()
    parser.add_argument("--workload", default="all", help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(manifest), indent=2) + "\n")
        return 0
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    names = list(manifest["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in manifest["workloads"]]
    if unknown or args.seconds <= 0:
        print(f"perfbench: unknown workload {unknown} or bad --seconds", file=sys.stderr)
        return 2
    outputs = {}
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace, root)
        if result["errors"]:
            for error in result["errors"]:
                print(f"perfbench: check failed: {error}", file=sys.stderr)
            return 1
        outputs[name] = report(manifest, result, args.trace)
    if len(names) == 1:
        print(json.dumps(outputs[names[0]]))
    else:
        print(json.dumps(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
