"""``train``: closed-loop compiled data-parallel training (the paper's path).

Set-up builds the dataset graphs, constructs a compiled two-rank
:class:`~repro.train.DistributedTrainer` and runs the capturing first
epoch.  The timed phase runs whole epochs (each step waits for its shards,
then trains) until the window has passed.  A calibration mark is taken
before the first epoch and after every epoch, and each epoch is scaled to
reference time by the marks on its two sides (see
:class:`measure.HostSpeed`).
"""

from __future__ import annotations

import time

import numpy as np

from measure import closed_loop, closed_loop_e2e, closed_loop_raw, rattled, skeletons


def make_inputs(params: dict, seed: int, seconds: float) -> dict:
    from repro.data.mptrj import LabeledStructure
    from repro.data.oracle import OraclePotential

    pool = skeletons(params["structures"], params["max_atoms"], params["skeleton_seed"])
    rng = np.random.default_rng(seed)
    oracle = OraclePotential()
    entries = []
    for skeleton in pool:
        crystal = rattled(skeleton, rng)
        entries.append(LabeledStructure(crystal, oracle.label(crystal)))
    return {"entries": entries}


def _trainer(params: dict, inputs: dict, dataset, compile: bool):
    from repro.model import CHGNetConfig, CHGNetModel, OptLevel
    from repro.train import DistributedConfig, DistributedTrainer

    dim = params["dim"]
    config = CHGNetConfig(
        atom_fea_dim=dim,
        bond_fea_dim=dim,
        angle_fea_dim=dim,
        hidden_dim=dim,
        opt_level=OptLevel.DECOMPOSE_FS,
    )
    dist = DistributedConfig(
        world_size=params["world_size"],
        global_batch_size=params["global_batch"],
        epochs=params["epochs_horizon"],
        learning_rate=1e-4,
        # The data order is part of the workload, like the skeletons: which
        # steps recapture depends on it, so it does not follow the run seed.
        seed=params["order_seed"],
        compile=compile,
        # The eager reference runs through the identical padded pipeline.
        bucket_sampler=True,
        pad_shards=True,
        memoize_shards=True,
    )
    return DistributedTrainer(
        lambda: CHGNetModel(config, np.random.default_rng(1)), dataset, dist
    )


def setup(params: dict, inputs: dict) -> dict:
    """Graph build, trainer construction and the capturing first epoch.

    The weights after that epoch are kept for the correctness check.
    """
    from repro.data.dataset import StructureDataset

    dataset = StructureDataset(inputs["entries"], memoize_batches=True)
    trainer = _trainer(params, inputs, dataset, compile=True)
    for shards in trainer.loader:
        trainer.train_step(shards)
    return {
        "dataset": dataset,
        "trainer": trainer,
        "prefix_state": trainer.model.state_dict(),
        "prefix_stats": trainer.compile_stats(),
    }


def _real_structs(shards) -> int:
    return sum(
        b.num_structs if b.pad_info is None else b.pad_info.num_structs for b in shards
    )


def timed(params: dict, inputs: dict, state: dict, seconds: float, host, recorder=None) -> dict:
    trainer = state["trainer"]
    cache = trainer.compilers[0].cache
    compile0 = trainer.compile_stats()
    hits0, misses0 = cache.hits, cache.misses
    first_step = len(trainer.steps)
    parts, waits = [], []
    t0 = time.perf_counter()
    marks = [host.mark(recorder)]
    # Whole epochs, until the window has passed and holds the tail's samples.
    while time.perf_counter() - t0 < seconds or len(waits) < params["min_samples"]:
        batches = iter(trainer.loader)
        te, structs, steps_ms = time.perf_counter(), 0, []
        while True:
            ts = time.perf_counter()
            if recorder is None:
                shards = next(batches, None)
            else:
                with recorder.span("data.loader"):
                    shards = next(batches, None)
            tw = time.perf_counter()
            if shards is None:
                break
            trainer.train_step(shards)
            steps_ms.append(1e3 * (time.perf_counter() - ts))
            waits.append(tw - ts)
            structs += _real_structs(shards)
        parts.append((structs, time.perf_counter() - te, steps_ms))
        marks.append(host.mark(recorder))
    wall = time.perf_counter() - t0
    compile1 = trainer.compile_stats()
    steps = trainer.steps[first_step:]
    rank = np.array([s.rank_compute_seconds for s in steps])
    return {
        "wall_s": wall,
        **closed_loop(parts, marks, host),
        "samples": len(waits),
        "attempted": len(waits),
        "failed": 0,
        "captures": compile1["captures"] - compile0["captures"],
        "eager_fallbacks": compile1["eager_fallbacks"] - compile0["eager_fallbacks"],
        "program_hits": cache.hits - hits0,
        "program_lookups": cache.hits - hits0 + cache.misses - misses0,
        "rank_imbalance": float(np.mean(rank.max(axis=1) / rank.mean(axis=1))),
    }


def after(params: dict, state: dict, result: dict) -> dict:
    """Per-layer figures computed after the window, outside any tracing.

    The padding overhead is the ghost share of the priced workload over
    one epoch of shards; the exposed-communication share comes from the
    trainer's alpha-beta overlap model, so it carries a ``.modeled`` name.
    """
    from repro.comm import ClusterSpec
    from repro.graph.batching import workload_cost

    trainer = state["trainer"]
    padded = real = 0
    epoch = trainer.loader.epoch
    for shards in trainer.loader.iter_epoch(0):
        for b in shards:
            dims = (b.num_atoms, b.num_edges, b.num_short_edges, b.num_angles)
            pi = b.pad_info
            padded += workload_cost(*dims)
            real += workload_cost(*dims) if pi is None else workload_cost(
                pi.num_atoms, pi.num_edges, pi.num_short_edges, pi.num_angles
            )
    trainer.loader.epoch = epoch
    overlap = trainer.modeled_overlap(ClusterSpec())
    return {
        "graph.padding_overhead": 1.0 - real / padded,
        "train.rank_imbalance": result["rank_imbalance"],
        "train.exposed_comm_share.modeled": overlap.exposed_comm / overlap.total_time,
    }


def check(params: dict, inputs: dict, state: dict, result: dict) -> list[str]:
    """The compiled first epoch vs an eager run through the identical padded pipeline.

    The prefix is the set-up epoch of the timed trainer; it holds captures
    and replays (ranks share programs, so a tier captured on rank 0 replays
    on rank 1).  Losses and weights must be equal bit for bit, and the
    replicas of both runs must still be in sync.
    """
    errors = []
    trainer = state["trainer"]
    prefix = state["prefix_stats"]
    if not prefix["captures"] or not prefix["replays"]:
        errors.append(f"train: checked prefix lacks captures or replays: {prefix}")
    eager = _trainer(params, inputs, state["dataset"], compile=False)
    for shards in eager.loader:
        eager.train_step(shards)
    k = len(eager.steps)
    if [s.loss for s in trainer.steps[:k]] != [s.loss for s in eager.steps]:
        errors.append("train: compiled losses differ from the eager padded run")
    compiled, reference = state["prefix_state"], eager.model.state_dict()
    if not all(np.array_equal(compiled[name], reference[name]) for name in compiled):
        errors.append("train: compiled weights differ from the eager padded run")
    for label, t in (("timed", trainer), ("eager", eager)):
        if not t.replicas_in_sync():
            errors.append(f"train: {label} replicas out of sync")
    return errors


#: The gated end-to-end figures of this closed-loop window, and as measured.
e2e, e2e_raw = closed_loop_e2e, closed_loop_raw
