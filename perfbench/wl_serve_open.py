"""``serve-open``: open-loop, two-tenant serving on one engine worker.

The timed window has two phases, both on never-seen structures.

*Capacity.*  ``capacity_bursts`` bursts of ``burst_size`` requests, each
due at once, submitted, flushed and polled until all returned.  Their rate
is the engine's saturation rate, the gated ``serve.completed_per_s``.  A
calibration mark is taken around every burst and each burst is scaled to
reference time (see :class:`measure.HostSpeed`).

*Ladder.*  Poisson arrivals at fixed fractions of the reference saturation
rate (``reference_capacity_per_s``, the median saturation rate this
workload measured on the reference host): the nominal rung, a busier rung
and an overload rung past saturation.  The ladder runs on a
:class:`RefClock`: arrivals, rung bounds, publishes, the engine's flush
deadlines and latencies are all in reference seconds, read off the wall
clock at the host speed that the calibration marks taken in idle gaps
show.  The offered load is the same in every run in those seconds, so a
slower engine meets more load per unit of its capacity and its latencies
show it, while a slow spell of the host does not.  A perturbed weight
version is published at a fixed cadence while requests are in flight.
Latency runs from a request's *due* time to the poll that returns it, so a
late generator or a stalled engine charges every request behind it.
Gated: interactive p50 and p95 at the nominal rung.

The traffic mix follows the repository's multi-tenant harness
(``tests/serve_harness.py``): structures from the MPtrj-shaped generator
with ``max_atoms=10``, and 30% of requests ``interactive``, the rest
``bulk``.  The ``interactive`` tenant sends the smaller
half of the structure pool and the ``bulk`` tenant the larger half.  Bulk
requests keep the engine's default ``max_wait``; interactive requests
never wait for a batch to fill, so their latency is the engine's work and
queueing, which scale with the host's speed.

The traffic is a fixed trace: arrival times, the tenant of each request
and the skeleton it sends come from the manifest's ``trace_seed``; the run
seed rattles the atoms (see :class:`Stream`).

The engine's virtual clock is fed the ladder's reference seconds; its own
modeled latencies are reported only under ``.modeled`` names.

Warm-up passes run the same two phases, the ladder on the engine's virtual
clock (no sleeping) and shortened, with another stream each pass, until
the captures per pass stop falling.  It submits with ``tenant=``:
``predict_many`` raises ``ValueError: tenant 'default' is not declared``
on an engine that declares tenants, a defect of the engine that this
benchmark leaves alone.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from measure import jittered_model, median, pct, rattled, skeletons

TENANTS = ("interactive", "bulk")


class Stream:
    """Never-seen requests ``(tenant, crystal)``: a fixed trace, rattled by the run.

    Requests are drawn when taken, so the stream never runs out however
    fast the engine gets; the same seeds and the same sequence of takes
    give the same requests.  The trace (which tenant sends each request,
    and which skeleton) comes from ``trace``, a seed of the manifest, and
    is the same in every run; the run seed ``rattle`` only moves the
    atoms, so every structure is still never seen before while the cost
    of the traffic does not change with the seed.  The tenants are
    stratified: each block of ``class_block`` requests holds exactly
    ``interactive_fraction`` of interactive ones, and each tenant walks
    through its skeleton pool in a fresh order.
    """

    def __init__(self, params: dict, pools: dict, trace: list[int], rattle: list[int]) -> None:
        block = params["class_block"]
        self.pattern = ["interactive"] * round(params["interactive_fraction"] * block)
        self.pattern += ["bulk"] * (block - len(self.pattern))
        self.pools = pools
        self.trace = np.random.default_rng(trace)
        self.rng = np.random.default_rng(rattle)
        self.tenants: list[str] = []
        self.order = {tenant: [] for tenant in pools}

    def _next(self) -> tuple:
        if not self.tenants:
            self.tenants = [self.pattern[k] for k in self.trace.permutation(len(self.pattern))]
        tenant = self.tenants.pop()
        pool, order = self.pools[tenant], self.order[tenant]
        if not order:
            order.extend(self.trace.permutation(len(pool)).tolist())
        return tenant, rattled(pool[order.pop()], self.rng)

    def take(self, count: int) -> list[tuple]:
        return [self._next() for _ in range(count)]


def _pools(params: dict) -> dict:
    """The harness-shaped skeleton pool, split at its median size."""
    pool = sorted(
        skeletons(params["pool"], params["max_atoms"], params["skeleton_seed"]),
        key=lambda c: c.num_atoms,
    )
    half = len(pool) // 2
    return {"interactive": pool[:half], "bulk": pool[half:]}


def _ladder(params: dict, seconds: float, rng) -> list[tuple]:
    """``(due_s, rung)`` sorted by due time.

    Each rung offers ``fraction * reference_capacity_per_s`` requests per
    second for its share of ``seconds``: exactly ``rate * length``
    arrivals at sorted uniform times, a Poisson process conditioned on its
    count.
    """
    arrivals, start = [], 0.0
    for rung, spec in enumerate(params["ladder"]):
        length = spec["share"] * seconds
        count = round(spec["fraction"] * params["reference_capacity_per_s"] * length)
        arrivals += [(float(t), rung) for t in np.sort(rng.uniform(start, start + length, count))]
        start += length
    return arrivals


def make_inputs(params: dict, seed: int, seconds: float) -> dict:
    pools = _pools(params)
    model = jittered_model(params["dim"], params["num_radial"], params["angular_order"], 1)
    base = model.state_dict()
    rng = np.random.default_rng([seed, 0])
    trace = params["trace_seed"]
    versions = [
        {k: v + rng.normal(scale=1e-3, size=v.shape) for k, v in base.items()}
        for _ in range(params["weight_versions"])
    ]
    return {
        "model": model,
        "versions": versions,
        "pools": pools,
        # (trace seed, rattle seed) of each stream; the trace is the manifest's.
        "timed_seeds": [([trace, 1 + phase], [seed, 1 + phase]) for phase in range(2)],
        "arrival_seed": [trace, 3],
        "warmup_seeds": [
            ([trace, 100 + k], [seed, 100 + k]) for k in range(params["warmup_max_passes"])
        ],
    }


def _captures(engine) -> int:
    return engine.compile_stats()["captures"]


def _burst(engine, requests: list[tuple], now: float) -> list[tuple]:
    """Submit ``requests`` due at once, flush, poll each; ``(tenant, crystal, prediction)``."""
    ids = [
        (engine.submit(crystal, now=now, tenant=tenant, request_class=tenant), tenant, crystal)
        for tenant, crystal in requests
    ]
    engine.flush(now=now)
    out = []
    for rid, tenant, crystal in ids:
        pred = engine.poll(rid, now=now)
        if pred is None:
            raise RuntimeError("serve-open: a flushed burst request did not return")
        out.append((tenant, crystal, pred))
    return out


def _capacity(params: dict, engine, stream: Stream, clock: float, host, recorder=None) -> dict:
    """The saturation rate over ``capacity_bursts`` bursts, with a mark around each."""
    marks = [host.mark(recorder)]
    seconds, scaled, served = [], [], []
    for _ in range(params["capacity_bursts"]):
        requests = stream.take(params["burst_size"])
        t0 = time.perf_counter()
        served += _burst(engine, requests, clock)
        seconds.append(time.perf_counter() - t0)
        clock += seconds[-1]
        marks.append(host.mark(recorder))
        scaled.append(seconds[-1] * host.scale(marks[-2], marks[-1]))
    count = len(served)
    return {
        "raw_per_s": count / sum(seconds),
        "per_s": count / sum(scaled),
        "batch_s": sum(scaled) / (count / params["max_batch_structs"]),
        "served": served,
        "marks": marks,
        "clock": clock,
    }


class RefClock:
    """Seconds on the reference host, read off the wall clock.

    Wall time runs into reference time at the rate ``host.factor(m)``,
    where ``m`` is the mean of the last ``window`` calibration marks; each
    new mark (:meth:`observe`) resets the rate from then on.  The ladder's
    arrivals, rung bounds, publishes, the engine's flush deadlines and
    every latency are in these seconds, so while the host runs slow the
    whole open loop runs slow with it and the engine meets the same load
    per unit of the host's speed: queueing does not amplify the host's
    slow spells.  The rates are fixed in reference time, so a slower
    program still meets more load per unit of its own capacity.
    """

    def __init__(self, host, marks_ms: list[float], window: int) -> None:
        self.host = host
        self.window = window
        self.recent = list(marks_ms[-window:])
        self.rate = self._rate()
        self.t0 = time.perf_counter()
        self.wall_at = 0.0  # wall seconds since t0 when the rate last changed
        self.ref_at = 0.0  # reference seconds at that moment

    def _rate(self) -> float:
        return self.host.factor(float(np.mean(self.recent)))

    def wall(self) -> float:
        return time.perf_counter() - self.t0

    def now(self) -> float:
        return self.ref_at + (self.wall() - self.wall_at) * self.rate

    def observe(self, mark_ms: float) -> None:
        wall = self.wall()
        self.ref_at += (wall - self.wall_at) * self.rate
        self.wall_at = wall
        self.recent = (self.recent + [mark_ms])[-self.window :]
        self.rate = self._rate()


def setup(params: dict, inputs: dict) -> dict:
    """Engine construction, then warm-up passes until captures stop falling."""
    from repro.serve import ClassPolicy, InferenceEngine, TenantPolicy

    engine = InferenceEngine(
        inputs["model"],
        n_workers=1,
        compile=True,
        max_batch_structs=params["max_batch_structs"],
        max_programs=params["max_programs"],
        tenants=[TenantPolicy(t) for t in TENANTS],
        classes={
            "interactive": ClassPolicy("interactive", max_wait=params["interactive_max_wait_s"]),
            "bulk": ClassPolicy("bulk"),
        },
    )
    clock = 0.0
    per_pass = []
    for k, seed in enumerate(inputs["warmup_seeds"]):
        stream = Stream(params, inputs["pools"], *seed)
        before = _captures(engine)
        for _ in range(params["warmup_bursts"]):
            _burst(engine, stream.take(params["burst_size"]), clock)
        seconds = params["warmup_ladder_s"]
        arrivals = _ladder(params, seconds, np.random.default_rng(k))
        ids = []
        for (due, _), (tenant, crystal) in zip(arrivals, stream.take(len(arrivals))):
            ids.append(engine.submit(crystal, now=clock + due, tenant=tenant, request_class=tenant))
        clock += seconds
        engine.flush(now=clock)
        for rid in ids:
            engine.poll(rid, now=clock)
        per_pass.append(_captures(engine) - before)
        if len(per_pass) > 1 and per_pass[-1] >= per_pass[-2]:
            break
    return {
        "engine": engine,
        "clock": clock + 1.0,
        "warmup_captures": per_pass,
        "phase": 0,
        "published": {},
    }


def timed(params: dict, inputs: dict, state: dict, seconds: float, host, recorder=None) -> dict:
    """The capacity bursts, then the ladder until every request returned."""
    from repro.serve import EngineOverloaded
    from repro.serve.faults import DeadlineExceeded, WorkerFailure

    engine = state["engine"]
    stream = Stream(params, inputs["pools"], *inputs["timed_seeds"][state["phase"]])
    state["phase"] += 1
    stats0 = engine.stats.as_dict()
    cost0 = (engine.stats.raw_cost, engine.stats.padded_cost)
    captures0 = _captures(engine)
    fallbacks0 = engine.compile_stats()["eager_fallbacks"]
    t_start = time.perf_counter()
    capacity = _capacity(params, engine, stream, state["clock"], host, recorder)
    sample = [(crystal, pred) for _, crystal, pred in capacity["served"][:: params["check_every"]]]

    ladder = params["ladder"]
    length = params["ladder_share"] * seconds
    bounds = np.cumsum([spec["share"] * length for spec in ladder])
    # The ladder's requests are drawn here, before its clock starts, and
    # frozen out of the garbage collector like the rest of the inputs.
    arrivals = _ladder(params, length, np.random.default_rng(inputs["arrival_seed"]))
    schedule = [(due, rung, *req) for (due, rung), req in zip(arrivals, stream.take(len(arrivals)))]
    gc.collect()
    gc.freeze()
    base = capacity["clock"] + 1.0
    publish_every = params["publish_every_s"]
    versions = inputs["versions"]

    outstanding: dict[int, tuple] = {}
    done: list[tuple] = []  # (rung, tenant, latency_s, returned_at, ok)
    late: list[float] = []  # generator lateness at the nominal rung
    backlog: list[int] = []
    published = state["published"]  # version id -> index into inputs["versions"]
    failed = submitted = 0
    next_publish = publish_every
    i, n = 0, len(schedule)
    clock = RefClock(host, capacity["marks"], params["clock_marks"])

    def collect(now: float) -> None:
        # Oldest first.  The first poll also drives the engine's flush
        # deadlines; after it, only ``len(outstanding) - engine.pending``
        # requests (dispatched, result not yet polled) can return anything.
        nonlocal failed
        for k, rid in enumerate(list(outstanding)):
            if k and len(outstanding) <= engine.pending:
                break
            due, rung, tenant, crystal, _, due_wall = outstanding[rid]
            try:
                pred = engine.poll(rid, now=base + now)
            except (DeadlineExceeded, WorkerFailure):
                failed += 1
                done.append((rung, tenant, float("inf"), now, False, float("inf")))
                del outstanding[rid]
                continue
            if pred is not None:
                ret = clock.now()
                done.append((rung, tenant, ret - due, ret, True, clock.wall() - due_wall))
                if rid % params["check_every"] == 0:
                    sample.append((crystal, pred))
                del outstanding[rid]

    nominal = params["nominal_rung"]
    marks: list[tuple[float, float]] = []  # (time, calibration ms) in the ladder's idle gaps
    rung = 0
    while i < n or outstanding or rung < len(ladder):
        now = clock.now()
        while rung < len(ladder) and now >= bounds[rung]:
            backlog.append(len(outstanding) + sum(1 for a in schedule[i:] if a[0] < bounds[rung]))
            rung += 1
        # Submit at most one batch worth of what is due, then poll, so an
        # overloaded engine still returns results while the generator runs late.
        burst = 0
        while i < n and schedule[i][0] <= now and burst < params["max_batch_structs"]:
            burst += 1
            due, r, tenant, crystal = schedule[i]
            if r == nominal:
                late.append(now - due)
            # The wall time at which the request fell due, for the figures as measured.
            due_wall = clock.wall() - (now - due) / clock.rate
            try:
                rid = engine.submit(crystal, now=base + now, tenant=tenant, request_class=tenant)
                outstanding[rid] = (due, r, tenant, crystal, now, due_wall)
            except EngineOverloaded:
                failed += 1
                done.append((r, tenant, float("inf"), now, False, float("inf")))
            submitted += 1
            i += 1
            now = clock.now()
        if now >= next_publish and now < bounds[-1]:
            k = len(published) % len(versions)
            published[engine.publish_weights(versions[k])] = k
            next_publish += publish_every
        collect(now)
        next_event = min(schedule[i][0], next_publish) if i < n else next_publish
        now = clock.now()
        gap = params["mark_gap_s"]
        if (
            next_event - now > gap
            and now - (marks[-1][0] if marks else 0.0) >= params["mark_every_s"]
            and all(o[2] != "bulk" or o[4] + engine.max_wait - now > gap for o in outstanding.values())
        ):
            # An idle gap with no arrival and no flush deadline due: time one
            # calibration chunk, so nobody waits for it, and reset the clock.
            marks.append((now, host.mark(recorder, repeats=1)))
            clock.observe(marks[-1][1])
            continue
        wait = (next_event - now) / clock.rate
        if wait > 0:
            time.sleep(min(wait, params["idle_poll_s"]))
    ladder_s = clock.now()
    state["clock"] = base + ladder_s + 1.0
    stats1 = engine.stats.as_dict()

    def lat(rung_index: int, tenant: str, field: int = 2) -> list[float]:
        return [d[field] * 1e3 for d in done if d[0] == rung_index and d[1] == tenant]

    # The latency limit: the engine's default flush deadline (the longest a
    # bulk request waits for its batch to fill), then one batch ahead of the
    # request's own and its own.
    slo_ms = 1e3 * (engine.max_wait + 2 * capacity["batch_s"])
    rungs = []
    for r, spec in enumerate(ladder):
        inter = lat(r, "interactive")
        lo = bounds[r - 1] if r else 0.0
        rate = spec["fraction"] * params["reference_capacity_per_s"]
        rungs.append(
            {
                "rate": rate,
                "completed_per_s": sum(1 for d in done if d[4] and lo <= d[3] < bounds[r])
                / (bounds[r] - lo),
                "interactive_p50_ms": median(inter),
                "interactive_p95_ms": pct(inter, 95),
                "interactive_samples": len(inter),
                "backlog_end": backlog[r],
            }
        )
    # A rung keeps up if its backlog at the end is no more than Little's law
    # allows for requests that each stay within the limit.
    in_slo = [
        r["rate"]
        for r in rungs
        if r["interactive_p95_ms"] <= slo_ms and r["backlog_end"] <= r["rate"] * slo_ms / 1e3
    ]
    inter = lat(nominal, "interactive")
    raw_inter = lat(nominal, "interactive", field=5)
    batches = stats1["batches"] - stats0["batches"]
    requests = stats1["requests"] - stats0["requests"]
    raw = engine.stats.raw_cost - cost0[0]
    padded = engine.stats.padded_cost - cost0[1]
    return {
        "wall_s": time.perf_counter() - t_start,
        "throughput_per_s": capacity["per_s"],
        "raw_throughput_per_s": capacity["raw_per_s"],
        "latencies_ms": inter,
        "samples": len(inter),
        "attempted": submitted + len(capacity["served"]),
        "failed": failed,
        "interactive_ms_p50": median(inter),
        "interactive_ms_p95": pct(inter, params["tail_pct"]),
        "raw_interactive_ms_p50": median(raw_inter),
        "raw_interactive_ms_p95": pct(raw_inter, params["tail_pct"]),
        "idle_marks": len(marks),
        "bulk_ms_p95": pct(lat(nominal, "bulk"), 95),
        "slo_ms": slo_ms,
        "slo_attainment": sum(1 for x in inter if x <= slo_ms) / len(inter),
        "max_rate_in_slo": max(in_slo, default=0.0),
        "rungs": rungs,
        "generator_late_ms_p95": pct(late, 95) * 1e3,
        "captures": _captures(engine) - captures0,
        "eager_fallbacks": engine.compile_stats()["eager_fallbacks"] - fallbacks0,
        "batches": batches,
        "batch_fill": requests / (batches * params["max_batch_structs"]) if batches else 0.0,
        "shed": stats1["load_shed"] + stats1["quota_shed"] - stats0["load_shed"] - stats0["quota_shed"],
        "deadline_misses": stats1["deadline_misses"] - stats0["deadline_misses"],
        "program_hits": stats1["cache_hits"] - stats0["cache_hits"],
        "program_lookups": stats1["cache_hits"] + stats1["cache_misses"]
        - stats0["cache_hits"] - stats0["cache_misses"],
        "padding_overhead": padded / raw - 1.0 if raw else 0.0,
        "engine_latency_p95_ms_modeled": stats1["latency_p95"] * 1e3,
        "sample": sample,
    }


def after(params: dict, state: dict, result: dict) -> dict:
    out = {
        "graph.padding_overhead": result["padding_overhead"],
        "serve.batches": result["batches"],
        "serve.batch_fill": result["batch_fill"],
        "serve.generator_late_ms_p95": result["generator_late_ms_p95"],
        "serve.shed": result["shed"],
        "serve.deadline_misses": result["deadline_misses"],
        "serve.bulk_ms_p95": result["bulk_ms_p95"],
        "serve.slo_ms": result["slo_ms"],
        "serve.slo_attainment": result["slo_attainment"],
        "serve.max_rate_in_slo": result["max_rate_in_slo"],
        "serve.latency_p95_ms.modeled": result["engine_latency_p95_ms_modeled"],
    }
    for r, rung in enumerate(result["rungs"]):
        out[f"serve.backlog_end.rung{r}"] = rung["backlog_end"]
    return out


def check(params: dict, inputs: dict, state: dict, result: dict) -> list[str]:
    """Sampled predictions equal solo eager inference on their pinned version."""
    from repro.model import CHGNetModel
    from repro.serve import InferenceEngine

    model = inputs["model"]
    states = {0: model.state_dict()}
    states.update({vid: inputs["versions"][k] for vid, k in state["published"].items()})
    solo: dict[int, InferenceEngine] = {}
    errors = []
    if not result["sample"]:
        return ["serve-open: no predictions sampled for the check"]
    for crystal, pred in result["sample"]:
        if pred.version not in solo:
            replica = CHGNetModel(model.config, np.random.default_rng(0))
            replica.load_state_dict(states[pred.version])
            solo[pred.version] = InferenceEngine(
                replica, n_workers=1, compile=False, max_batch_structs=1
            )
        ref = solo[pred.version].predict_many([crystal])[0]
        same = (
            ref.energy_per_atom == pred.energy_per_atom
            and np.array_equal(ref.forces, pred.forces)
            and np.array_equal(ref.stress, pred.stress)
            and np.array_equal(ref.magmom, pred.magmom)
        )
        if not same:
            errors.append(
                f"serve-open: request on version {pred.version} differs from solo eager"
            )
    return errors


def e2e(result: dict, params: dict) -> dict:
    """Saturation rate and nominal-rung interactive latencies, in reference time."""
    return {
        "throughput_per_s": result["throughput_per_s"],
        "latency_ms_p50": result["interactive_ms_p50"],
        "latency_ms_tail": result["interactive_ms_p95"],
    }


def e2e_raw(result: dict, params: dict) -> dict:
    return {
        "throughput_per_s": result["raw_throughput_per_s"],
        "latency_ms_p50": result["raw_interactive_ms_p50"],
        "latency_ms_tail": result["raw_interactive_ms_p95"],
    }
