"""``farm``: closed-loop trajectory farms in lockstep waves.

Each farm holds a fixed mix of NVT-MD and FIRE trajectories with a fixed
step budget (FIRE's force tolerance is unreachable, so every trajectory
runs its budget and every wave is full).  The timed phase runs farm after
farm, each on never-seen structures, until the window has passed; a wave
is timed from the previous wave's return to this one's, so it holds the
integrator steps and graph builds as well as the engine round-trip.  A
calibration mark is taken before the first farm and after every farm, and
each farm is scaled to reference time by the marks on its two sides (see
:class:`measure.HostSpeed`).
"""

from __future__ import annotations

import time

import numpy as np

from measure import closed_loop, closed_loop_e2e, closed_loop_raw, jittered_model, rattled, skeletons


def _specs(params: dict, pool: list, rng) -> list:
    from repro.md import FIREConfig, MDSpec, RelaxSpec

    fire = FIREConfig(fmax=1e-9, max_steps=params["steps"])
    specs = []
    for i in range(params["trajectories"]):
        crystal = rattled(pool[i % len(pool)], rng)
        if i % 2 == 0:
            specs.append(
                MDSpec(
                    crystal,
                    params["steps"],
                    temperature_k=300.0,
                    seed=int(rng.integers(1 << 31)),
                    rescale_every=5,
                )
            )
        else:
            specs.append(RelaxSpec(crystal, fire))
    return specs


def make_inputs(params: dict, seed: int, seconds: float) -> dict:
    pool = skeletons(params["pool"], params["max_atoms"], params["skeleton_seed"])
    model = jittered_model(params["dim"], params["num_radial"], params["angular_order"], 1)
    rng = np.random.default_rng(seed)
    return {
        "model": model,
        "warmup": [_specs(params, pool, rng) for _ in range(params["warmup_farms"])],
        "farms": [_specs(params, pool, rng) for _ in range(params["max_farms"])],
    }


def _run_farm(params: dict, engine, specs: list):
    from repro.md import TrajectoryFarm

    farm = TrajectoryFarm(engine, skin=params["skin"], record=True)
    for spec in specs:
        farm.add(spec)
    return farm.run()


def setup(params: dict, inputs: dict) -> dict:
    """Engine construction and warm-up farms."""
    from repro.serve import InferenceEngine

    engine = InferenceEngine(
        inputs["model"],
        n_workers=1,
        compile=True,
        max_batch_structs=params["max_batch_structs"],
        max_programs=params["max_programs"],
    )
    for specs in inputs["warmup"]:
        _run_farm(params, engine, specs)
    return {"engine": engine, "next_farm": 0}


def timed(params: dict, inputs: dict, state: dict, seconds: float, host, recorder=None) -> dict:
    engine = state["engine"]
    stats0 = engine.stats.as_dict()
    cost0 = (engine.stats.raw_cost, engine.stats.padded_cost)
    captures0 = engine.compile_stats()["captures"]
    fallbacks0 = engine.compile_stats()["eager_fallbacks"]
    returns: list[float] = []
    predict_wave = engine.predict_wave

    def timed_wave(items):
        out = predict_wave(items)
        returns.append(time.perf_counter())
        return out

    engine.predict_wave = timed_wave
    parts, steps, last = [], 0, None
    builds = reuses = 0
    angle = np.zeros(3)
    t0 = time.perf_counter()
    marks = [host.mark(recorder)]
    try:
        # Whole farms, until the window has passed and holds the tail's samples.
        while time.perf_counter() - t0 < seconds or sum(len(p[2]) for p in parts) < params["min_samples"]:
            if state["next_farm"] >= len(inputs["farms"]):
                raise RuntimeError("farm: inputs exhausted; raise max_farms")
            specs = inputs["farms"][state["next_farm"]]
            state["next_farm"] += 1
            returns.clear()
            start = time.perf_counter()
            result = _run_farm(params, engine, specs)
            elapsed = time.perf_counter() - start
            marks.append(host.mark(recorder))
            waves = [start] + returns
            stats = result.stats
            parts.append(
                (
                    stats.structure_steps,
                    elapsed,
                    [1e3 * (b - a) for a, b in zip(waves, waves[1:])],
                )
            )
            steps += stats.structure_steps
            builds += stats.neighbor_builds
            reuses += stats.neighbor_reuses
            diff = stats.diff
            angle += (diff.angle_reuses, diff.angle_diffs, diff.angle_rebuilds)
            last = (specs, result)
    finally:
        del engine.predict_wave
    wall = time.perf_counter() - t0
    stats1 = engine.stats.as_dict()
    raw = engine.stats.raw_cost - cost0[0]
    padded = engine.stats.padded_cost - cost0[1]
    waves = stats1["waves"] - stats0["waves"]
    return {
        "wall_s": wall,
        **closed_loop(parts, marks, host),
        "samples": sum(len(p[2]) for p in parts),
        "attempted": steps,
        "failed": 0,
        "captures": engine.compile_stats()["captures"] - captures0,
        "program_hits": stats1["cache_hits"] - stats0["cache_hits"],
        "program_lookups": stats1["cache_hits"] + stats1["cache_misses"]
        - stats0["cache_hits"] - stats0["cache_misses"],
        "padding_overhead": padded / raw - 1.0 if raw else 0.0,
        "neighbor_hit_ratio": reuses / (builds + reuses),
        "angle_incremental_ratio": (angle[0] + angle[1]) / angle.sum(),
        "wave_structs_mean": (stats1["wave_structs"] - stats0["wave_structs"]) / waves,
        "eager_fallbacks": engine.compile_stats()["eager_fallbacks"] - fallbacks0,
        "last_farm": last,
    }


def after(params: dict, state: dict, result: dict) -> dict:
    return {
        "graph.padding_overhead": result["padding_overhead"],
        "structures.neighbor_cache.hit_ratio": result["neighbor_hit_ratio"],
        "graph.angle_incremental_ratio": result["angle_incremental_ratio"],
        "md.wave_structs_mean": result["wave_structs_mean"],
    }


def _frames_equal(a, b) -> bool:
    return (
        a.steps == b.steps
        and len(a.frames) == len(b.frames)
        and all(
            np.array_equal(fa.positions, fb.positions)
            and np.array_equal(fa.forces, fb.forces)
            and fa.energy == fb.energy
            for fa, fb in zip(a.frames, b.frames)
        )
    )


def check(params: dict, inputs: dict, state: dict, result: dict) -> list[str]:
    """A subset of the last farm's trajectories matches ``run_sequential``."""
    from repro.md import ModelCalculator, run_sequential

    specs, farmed = result["last_farm"]
    picks = list(range(params["check_trajectories"]))
    solo = run_sequential(
        [specs[i] for i in picks], ModelCalculator(inputs["model"]), record=True
    )
    errors = []
    for i, reference in zip(picks, solo):
        if not _frames_equal(farmed.results[i], reference):
            errors.append(f"farm: trajectory {i} differs from run_sequential")
    return errors


#: The gated end-to-end figures of this closed-loop window, and as measured.
e2e, e2e_raw = closed_loop_e2e, closed_loop_raw
