"""Helpers shared by the workloads: statistics, inputs, environment."""

from __future__ import annotations

import os
import platform
import resource
import time
from contextlib import nullcontext

import numpy as np

#: Perturbation (angstrom) the run seed applies to every fixed skeleton.
RATTLE_SIGMA = 0.03


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); needs ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


class HostSpeed:
    """A fixed-work calibration chunk, timed between a run's sub-windows.

    The shared 2-vCPU machine this benchmark was built on switches, every
    few seconds and on both vCPUs, between a fast state and one about 1.5x
    slower; a state can also last longer than a whole run.  The chunk does
    the same kind of work as the program (gather, small matmul, SiLU,
    layer norm, scatter-add, concat, a dict loop) on fixed arrays, so the
    program cannot change its cost: its time tracks the host alone.

    The slow state slows the chunk more than the workloads, so a time is
    scaled by ``(ref_ms / chunk_ms) ** elasticity``.  On that machine a
    training epoch slowed 1.44x and a farm 1.45x where the chunk slowed
    1.71x and 1.58x (runs wholly in one state or the other): exponents of
    0.68 and 0.81, so ``elasticity`` is 0.75.  Within a run, epoch or farm
    time and the chunk's time correlated at 0.73-0.86; scaling with an
    exponent of 0.5 cut the farm-to-farm spread from 0.18 to 0.10 and the
    epoch-to-epoch spread from 0.21 to 0.10.

    :meth:`mark` times the chunk ``repeats`` times and keeps the median.
    :meth:`factor` turns a time measured where the chunk read ``chunk_ms``
    into its time on a host whose chunk reads ``ref_ms``.
    """

    def __init__(self, ref_ms: float, elasticity: float, repeats: int = 3) -> None:
        rng = np.random.default_rng(0)
        self.ref_ms = ref_ms
        self.elasticity = elasticity
        self.repeats = repeats
        self._x = rng.normal(size=(256, 32))
        self._w = rng.normal(size=(32, 32)) / 6.0
        self._idx = rng.integers(0, 256, 768)
        self._seg = np.sort(rng.integers(0, 64, 768))
        self.marks_ms: list[float] = []

    def _chunk(self) -> float:
        acc = 0.0
        for _ in range(12):
            h = np.take(self._x, self._idx, axis=0) @ self._w
            h = h / (1.0 + np.exp(-h))
            h = (h - h.mean(axis=1, keepdims=True)) / (h.std(axis=1, keepdims=True) + 1e-5)
            agg = np.zeros((64, 32))
            np.add.at(agg, self._seg, h)
            acc += float(np.concatenate([self._x[:64], agg], axis=1).sum())
        table: dict[int, int] = {}
        for i in range(1500):
            table[i % 61] = table.get(i % 61, 0) + i
        return acc

    def mark(self, recorder=None, repeats: int | None = None) -> float:
        """Time the chunk; record and return the median in milliseconds."""
        times = []
        with recorder.span("bench.calibration") if recorder is not None else nullcontext():
            for _ in range(repeats or self.repeats):
                t0 = time.perf_counter()
                self._chunk()
                times.append(1e3 * (time.perf_counter() - t0))
        self.marks_ms.append(median(times))
        return self.marks_ms[-1]

    def factor(self, chunk_ms: float) -> float:
        """Factor that turns a time measured at ``chunk_ms`` into reference time."""
        return (self.ref_ms / chunk_ms) ** self.elasticity

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor that turns a time between two marks into reference time."""
        return self.factor(0.5 * (before_ms + after_ms))


def closed_loop(parts: list[tuple[float, float, list[float]]], marks: list[float], host: HostSpeed) -> dict:
    """Throughput and latencies of a closed loop's whole window.

    ``parts`` are the window's sub-windows (epochs, farms) as
    ``(work, seconds, latencies_ms)`` and ``marks`` the calibration marks
    around them (one more than ``parts``).  Every sub-window counts; each
    is scaled to reference time by the marks on its two sides.  The raw
    figures are kept beside the scaled ones.
    """
    scales = [host.scale(a, b) for a, b in zip(marks, marks[1:])]
    work = sum(p[0] for p in parts)
    raw_lat = [x for p in parts for x in p[2]]
    ref_lat = [x * f for p, f in zip(parts, scales) for x in p[2]]
    return {
        "throughput_per_s": work / sum(p[1] * f for p, f in zip(parts, scales)),
        "latencies_ms": ref_lat,
        "raw_throughput_per_s": work / sum(p[1] for p in parts),
        "raw_latencies_ms": raw_lat,
        "host_scale": median(scales),
    }


def closed_loop_e2e(result: dict, params: dict) -> dict:
    """Gated end-to-end figures of a closed-loop window, in reference time."""
    lat = result["latencies_ms"]
    return {
        "throughput_per_s": result["throughput_per_s"],
        "latency_ms_p50": median(lat),
        "latency_ms_tail": pct(lat, params["tail_pct"]),
    }


def closed_loop_raw(result: dict, params: dict) -> dict:
    """The same figures as measured, before scaling to reference time."""
    lat = result["raw_latencies_ms"]
    return {
        "throughput_per_s": result["raw_throughput_per_s"],
        "latency_ms_p50": median(lat),
        "latency_ms_tail": pct(lat, params["tail_pct"]),
    }


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def skeletons(n: int, max_atoms: int, seed: int, min_atoms: int = 1):
    """``n`` fixed crystal skeletons of at most ``max_atoms`` atoms.

    The skeleton pool defines a workload's size mix and is the same for
    every run seed; the seed only rattles atoms (:func:`rattled`), so the
    cost of a workload does not change with the seed while its inputs do.
    """
    from repro.data.mptrj import generate_crystals

    out = []
    batch_seed = seed
    while len(out) < n:
        for crystal in generate_crystals(4 * n, seed=batch_seed, max_atoms=max_atoms):
            if crystal.num_atoms >= min_atoms and len(out) < n:
                out.append(crystal)
        batch_seed += 1
    return out


def rattled(skeleton, rng: np.random.Generator):
    """A never-seen copy of ``skeleton`` with every atom moved by the seed."""
    return skeleton.perturbed(rng, RATTLE_SIGMA)


def jittered_model(dim: int, num_radial: int, angular_order: int, seed: int):
    """A DECOMPOSE_FS model whose zero-initialized heads are un-zeroed.

    Non-zero heads make bit-equality checks compare real energies and
    forces, and give FIRE and MD forces to follow.
    """
    from repro.model import CHGNetConfig, CHGNetModel, OptLevel

    config = CHGNetConfig(
        atom_fea_dim=dim,
        bond_fea_dim=dim,
        angle_fea_dim=dim,
        hidden_dim=dim,
        num_radial=num_radial,
        angular_order=angular_order,
        opt_level=OptLevel.DECOMPOSE_FS,
    )
    model = CHGNetModel(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    return model


def environment(seed: int) -> dict:
    """Versions and thread settings that a result depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }
