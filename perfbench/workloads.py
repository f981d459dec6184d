"""The benchmark's three workloads and their correctness gate.

Each workload function takes the workload seed, the measuring budget in
seconds and whether this is the traced run, and returns an
:class:`Outcome`: end-to-end figures (untraced legs only), the gate's
tally, provenance, and, for the traced run, per-layer figures.

* ``expander-spread`` -- COBRA b=2 cover (R=128) and BIPS b=2 infection
  (R=32) from vertex 0 on ``random_regular_graph(16384, 4, rng=1)``, each
  rule run serially (``run_sharded(workers=1)``) and then in the pool,
  same seed, same four-shard plan (two shards per worker).  Passes repeat
  while the budget allows.  The batched ``(R, n)`` round engine does
  almost all the work; no wire is involved.
* ``broker-cover`` -- a closed loop with one client: sequential COBRA
  cover jobs (R=8, ``max_shard=4``, two shards each, at least 16, more
  while the budget allows) on ``random_regular_graph(200000, 4, rng=1)``
  through a localhost broker in a thread of this process and spawned
  ``run_worker`` processes.  Each job runs cold into a fresh result
  cache, then is resubmitted at once and served from the cache (warm).
  Every shard frame re-ships the ~12 MB CSR, so wire, hashing and
  queueing are a large share of a cold job, and hashing dominates a
  warm one.
* ``suite-quick`` -- E1-E17 at ``quick`` scale, serial, all checks.  Small
  graphs and thousands of short engine calls: per-call and per-round
  fixed costs dominate, the opposite of ``expander-spread``.

Inputs derive from the seed only (graphs use fixed generator seeds; runs
use ``SeedSequence([seed, pass, leg])`` or ``[seed, job]``; the suite
runs at ``ExperimentConfig(seed=seed)``), so one seed always yields the
same samples.  Pools and fleets have at most :data:`WORKERS` processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing as mp
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer, install_entry_points, install_parallel_only

#: Worker processes for pools and fleets: the CPUs this process may use,
#: at most two.
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3

#: Telemetry round-sampling stride for traced legs (every 4th round
#: feeds the ``engine.round.seconds`` histogram).
TRACE_SAMPLE_EVERY = 4

#: Seed-sequence tag of warm-up runs, apart from every measured pass.
WARMUP_TAG = 2**32 - 1

SIZES = {
    "expander-spread": {
        "full": {"n": 16384, "degree": 4, "cobra": (128, 32), "bips": (32, 8)},
        "smoke": {"n": 512, "degree": 4, "cobra": (32, 8), "bips": (16, 4)},
    },
    "broker-cover": {
        "full": {"n": 200000, "degree": 4, "runs": 8, "max_shard": 4, "jobs": 16},
        "smoke": {"n": 2000, "degree": 4, "runs": 8, "max_shard": 4, "jobs": 3},
    },
    "suite-quick": {
        "full": {"scale": "quick", "only": None},
        "smoke": {"scale": "smoke", "only": ("E1", "E4")},
    },
}


# ----------------------------------------------------------------------
# Outcome, gate and shared helpers
# ----------------------------------------------------------------------
class Gate:
    """Tally of attempted operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, attempted: int, failed: int) -> None:
        """Count ``attempted`` operations, ``failed`` of them failing."""
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{label}: {failed} of {attempted} failed")

    def runs(self, label: str, result) -> None:
        """Every run of ``result`` is one operation; capped runs fail."""
        self.record(label, len(result.finish_times), int((result.finish_times < 0).sum()))

    def same(self, label: str, got, want) -> None:
        """``got`` must reproduce ``want`` bit for bit; each differing run fails."""
        runs = len(want.finish_times)
        if got.rounds_run != want.rounds_run or got.final_state.shape != want.final_state.shape:
            self.record(label, runs, runs)
            return
        differ = (got.finish_times != want.finish_times) | np.any(
            got.final_state != want.final_state, axis=1
        )
        self.record(label, runs, int(differ.sum()))

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    seed: int
    gate: Gate = field(default_factory=Gate)
    # issue-level end-to-end figures: name -> (value, unit, samples)
    figures: dict = field(default_factory=dict)
    # BENCHMARK.json end-to-end metrics: name -> value
    e2e: dict = field(default_factory=dict)
    # per-layer metrics (traced run): name -> value
    layers: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def figure(self, name: str, value: float, unit: str, samples: int) -> None:
        self.figures[name] = (float(value), unit, int(samples))


def digest(result) -> str:
    """sha256 over a result's finish times, final state and round count."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.finish_times).tobytes())
    h.update(np.packbits(result.final_state).tobytes())
    h.update(str(int(result.rounds_run)).encode())
    return h.hexdigest()


def one_hot(runs: int, n: int, vertex: int = 0) -> np.ndarray:
    state = np.zeros((runs, n), dtype=bool)
    state[:, vertex] = True
    return state


def run_seed(seed: int, *parts: int) -> np.random.SeedSequence:
    """A fresh seed sequence per call: ``run_sharded`` spawns from it."""
    return np.random.SeedSequence([int(seed), *map(int, parts)])


def timed_setup(outcome: Outcome, import_s: float, build, teardown=None):
    """Run ``build`` :data:`SETUP_REPS` times; keep the last result.

    ``setup_s`` is the one-off import time plus the median build time.
    ``teardown`` releases every build but the last.
    """
    times, built = [], None
    for rep in range(SETUP_REPS):
        if built is not None and teardown is not None:
            teardown(built)
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    outcome.e2e["setup_s"] = import_s + statistics.median(times)
    outcome.figure("setup_s", outcome.e2e["setup_s"], "s", SETUP_REPS)
    return built


def passes(seconds: float, minimum: int = 1):
    """Yield pass indices while the next pass still fits in ``seconds``.

    At least ``minimum`` passes run; another starts only if the elapsed
    time plus the last pass's duration stays within the budget.
    """
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if index >= minimum and (now - start) + (now - t0) > seconds:
            return


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap the entry points and route the program's spans to memory."""
    from repro.telemetry import MemorySink, configure

    sink = MemorySink()
    tel = configure(sink, sample_every=TRACE_SAMPLE_EVERY)
    install_entry_points(tracer)
    try:
        yield sink, tel
    finally:
        tracer.restore()
        configure(None)


def span_seconds(sink, name: str) -> list[float]:
    """Wall times of every finished span called ``name`` in ``sink``."""
    return [
        r["wall_s"]
        for r in sink.records
        if r.get("kind") == "span-end" and r.get("name") == name and "wall_s" in r
    ]


def layer_times(outcome: Outcome, tracer: Tracer, wall: float) -> None:
    """Fold the tracer's self times and counts into per-layer metrics."""
    s = tracer.self_s
    lay = outcome.layers
    lay["graphs.sample_neighbors_s"] = s["graphs.sample_neighbors"]
    lay["graphs.neighbors_sampled"] = tracer.counts["graphs.neighbors_sampled"]
    lay["engine.cobra_step_self_s"] = s["engine.cobra_step"]
    lay["engine.bips_step_self_s"] = s["engine.bips_step"]
    lay["engine.loop_self_s"] = s["engine.run"]
    lay["engine.rounds"] = tracer.counts["engine.rounds"]
    lay["engine.cell_rounds"] = tracer.counts["engine.cell_rounds"]
    lay["engine.run_calls"] = tracer.calls["engine.run"]
    lay["engine.run_s"] = tracer.incl_s["engine.run"]
    lay["engine.capped_runs"] = tracer.counts["engine.capped_runs"]
    lay["parallel.plan_s"] = s["parallel.plan"]
    lay["parallel.execute_s"] = s["parallel.execute"]
    lay["parallel.merge_s"] = s["parallel.merge"]
    lay["wire.encode_s"] = s["wire.encode"]
    lay["wire.task_key_s"] = s["wire.task_key"]
    lay["wire.decode_result_s"] = s["wire.decode_result"]
    lay["broker.roundtrip_s"] = s["broker.roundtrip"]
    lay["cache.get_s"] = s["cache.get"]
    lay["cache.put_s"] = s["cache.put"]
    lay["telemetry.unattributed_frac"] = (
        (wall - tracer.attributed_s()) / wall if wall > 0 else 0.0
    )


def fidelity(outcome: Outcome, untraced: dict, traced_: dict) -> None:
    """Traced outputs must equal the untraced ones (same draws, no drift)."""
    keys = sorted(untraced)
    bad = [k for k in keys if traced_.get(k) != untraced[k]]
    outcome.gate.record("traced run reproduces untraced digests", len(keys), len(bad))


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_pids() -> list[int]:
    """Live (non-zombie) children of this process, read from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker helper, if this run started it.

    Shared memory and spawned processes start the helper, which otherwise
    lives until the interpreter exits; stopping (and reaping) it lets the
    hygiene check demand that no child process is left.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def hygiene(outcome: Outcome, shm_before: set[str]) -> None:
    """No child process and no new shared-memory segment may outlive a run."""
    stop_resource_tracker()
    leftover = child_pids()
    outcome.gate.record("child processes left running", 1, 1 if leftover else 0)
    leaked = sorted(shm_segments() - shm_before)
    outcome.gate.record("/dev/shm segments left behind", 1, 1 if leaked else 0)
    outcome.provenance["leftover_children"] = leftover
    outcome.provenance["leaked_shm"] = leaked


# ----------------------------------------------------------------------
# expander-spread
# ----------------------------------------------------------------------
def expander_spread(seed, seconds, trace, *, import_s, size="full", tamper=None):
    """Serial and pool legs of COBRA and BIPS, pass after pass.

    ``tamper``, if given, is applied to each pool-leg result before the
    gate compares it with the serial leg (the self-test corrupts it).
    The traced run makes one untraced pass, with only the parent-side
    sharding entry points wrapped on the pool legs, then repeats the
    serial legs fully traced.
    """
    from repro.core.branching import make_policy
    from repro.engine import BipsRule, CobraRule, SpreadEngine
    from repro.graphs import random_regular_graph
    from repro.parallel import plan_shards

    p = SIZES["expander-spread"][size]
    out = Outcome("expander-spread", seed)

    def build():
        graph = random_regular_graph(p["n"], p["degree"], rng=1)
        legs = {
            "cobra": SpreadEngine(CobraRule(make_policy(2)), graph),
            "bips": SpreadEngine(BipsRule(make_policy(2), 0), graph),
        }
        for name, engine in legs.items():
            engine.run_sharded(
                one_hot(2, graph.n), run_seed(seed, WARMUP_TAG), workers=1, max_shard=p[name][1]
            )
        return graph, legs

    graph, legs = timed_setup(out, import_s, build)
    out.provenance["graph"] = f"random_regular_graph({p['n']}, {p['degree']}, rng=1)"
    out.provenance["shard_plans"] = {
        name: {
            "runs": p[name][0],
            "max_shard": p[name][1],
            "plan": plan_shards(engine.rule, p[name][0], graph.n, max_shard=p[name][1]),
            "workers": WORKERS,
        }
        for name, engine in legs.items()
    }

    def leg(name, pass_index, workers):
        engine = legs[name]
        runs, max_shard = p[name]
        index = list(legs).index(name)
        t0 = time.perf_counter()
        result = engine.run_sharded(
            one_hot(runs, graph.n),
            run_seed(seed, pass_index, index),
            workers=workers,
            max_shard=max_shard,
        )
        return result, time.perf_counter() - t0

    serial_walls, pool_walls = [], []
    rule_pool = {name: [] for name in legs}
    metas = {}
    untraced_digests = {}
    pool_tracer = Tracer()
    for i in passes(0 if trace else seconds):
        serial_wall = pool_wall = 0.0
        for name in legs:
            serial, ts = leg(name, i, 1)
            if trace:
                with pool_tracer:
                    install_parallel_only(pool_tracer)
                    pool, tp = leg(name, i, WORKERS)
            else:
                pool, tp = leg(name, i, WORKERS)
            if tamper is not None:
                pool = tamper(pool)
            out.gate.runs(f"{name} serial pass {i}", serial)
            out.gate.runs(f"{name} pool pass {i}", pool)
            out.gate.same(f"{name} pool == serial pass {i}", pool, serial)
            serial_wall += ts
            pool_wall += tp
            rule_pool[name].append(tp)
            metas[name] = (pool.meta or {}, ts, tp)
            untraced_digests[f"{name}/{i}"] = digest(serial)
        serial_walls.append(serial_wall)
        pool_walls.append(pool_wall)

    n_pass = len(pool_walls)
    out.e2e["primary_s"] = statistics.median(pool_walls)
    out.e2e["secondary_s"] = statistics.median(serial_walls)
    for name in legs:
        out.figure(
            f"{name}_runs_per_s",
            p[name][0] / statistics.median(rule_pool[name]),
            "runs/s",
            n_pass,
        )
    out.figure("serial_s", out.e2e["secondary_s"], "s", n_pass)
    out.figure("pool_s", out.e2e["primary_s"], "s", n_pass)
    out.provenance["passes"] = n_pass

    if trace:
        untraced_serial = sum(ts for _, ts, _ in metas.values())
        tracer = Tracer()
        traced_digests = {}
        with traced(tracer) as (sink, tel):
            t0 = time.perf_counter()
            for name in legs:
                serial, _ = leg(name, 0, 1)
                traced_digests[f"{name}/0"] = digest(serial)
            wall = time.perf_counter() - t0
            rounds = tel.histogram_summary("engine.round.seconds")
        fidelity(out, untraced_digests, traced_digests)
        layer_times(out, tracer, wall)
        lay = out.layers
        lay["parallel.plan_s"] = pool_tracer.self_s["parallel.plan"]
        lay["parallel.execute_s"] = pool_tracer.self_s["parallel.execute"]
        lay["parallel.merge_s"] = pool_tracer.self_s["parallel.merge"]
        lay["engine.round_ms_p50"] = 1000.0 * rounds["p50"] if rounds else 0.0
        shard_walls = [
            s["wall_s"] for meta, _, _ in metas.values() for s in meta.get("shards", [])
        ]
        lay["parallel.shards"] = len(shard_walls)
        lay["parallel.shard_wall_s_max"] = max(shard_walls, default=0.0)
        lay["parallel.skew"] = max(
            (meta.get("skew", 0.0) for meta, _, _ in metas.values()), default=0.0
        )
        lay["parallel.speedup"] = untraced_serial / sum(tp for _, _, tp in metas.values())
        lay["telemetry.trace_overhead_frac"] = wall / untraced_serial - 1.0
        out.provenance["spans"] = {
            name: len(span_seconds(sink, name))
            for name in ("engine.run", "shard.run", "engine.run_sharded")
        }
    return out


# ----------------------------------------------------------------------
# broker-cover
# ----------------------------------------------------------------------
class Fleet:
    """A localhost broker in a thread plus spawned ``run_worker`` processes."""

    def __init__(self, workers: int) -> None:
        from repro.distributed import Broker
        from repro.distributed.worker import run_worker

        self.workers = workers
        self.broker = Broker(lease_timeout=120.0).start_in_thread()
        ctx = mp.get_context("spawn")
        self.procs = [
            ctx.Process(
                target=run_worker,
                args=(self.broker.address,),
                kwargs={"poll_interval": 0.02, "connect_retries": 4},
            )
            for _ in range(workers)
        ]
        try:
            for proc in self.procs:
                proc.start()
            self._warm_up()
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> str:
        return self.broker.address

    def metrics(self) -> dict:
        return self.broker.status_snapshot()["metrics"]

    def _warm_up(self, timeout: float = 120.0) -> None:
        """Run tiny jobs until every worker has completed a shard."""
        from repro.core.branching import make_policy
        from repro.engine import CobraRule, SpreadEngine
        from repro.graphs import random_regular_graph

        engine = SpreadEngine(
            CobraRule(make_policy(2)), random_regular_graph(64, 4, rng=2)
        )
        deadline = time.monotonic() + timeout
        attempt = 0
        while len(self.metrics()["workers"]) < self.workers:
            if time.monotonic() > deadline or not all(p.is_alive() for p in self.procs):
                raise RuntimeError("broker-cover fleet did not come up")
            engine.run_distributed(
                one_hot(self.workers, 64),
                run_seed(0, attempt),
                endpoint=self.address,
                max_shard=1,
                cache=None,
            )
            attempt += 1
            time.sleep(0.05)

    def close(self) -> None:
        """Terminate and join the workers, then stop the broker."""
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            if proc.pid is not None:
                proc.join(timeout=30)
        self.broker.shutdown()


def _bench_dir() -> Path:
    root = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"
    root.mkdir(parents=True, exist_ok=True)
    return root


def broker_cover(seed, seconds, trace, *, import_s, size="full", tamper=None):
    """Cold and warm COBRA cover jobs through a localhost broker fleet.

    ``tamper``, if given, is applied to the first warm result before the
    gate compares it with its cold twin.  The traced run makes one
    untraced pass of the minimum job count, then the same jobs again,
    traced, into a fresh cache.
    """
    from repro.core.branching import make_policy
    from repro.distributed import ResultCache
    from repro.distributed.wire import canonical_bytes, decode_task
    from repro.engine import CobraRule, SpreadEngine
    from repro.graphs import random_regular_graph
    from repro.parallel import plan_shards

    p = SIZES["broker-cover"][size]
    out = Outcome("broker-cover", seed)
    scratch = Path(tempfile.mkdtemp(prefix="cache-", dir=_bench_dir()))
    fleet = None
    try:

        def build():
            graph = random_regular_graph(p["n"], p["degree"], rng=1)
            return SpreadEngine(CobraRule(make_policy(2)), graph), Fleet(WORKERS)

        engine, fleet = timed_setup(
            out, import_s, build, teardown=lambda built: built[1].close()
        )
        plan = plan_shards(engine.rule, p["runs"], engine.topology.n, max_shard=p["max_shard"])
        out.provenance["graph"] = f"random_regular_graph({p['n']}, {p['degree']}, rng=1)"
        out.provenance["shard_plan"] = {
            "runs": p["runs"], "max_shard": p["max_shard"], "plan": plan, "workers": WORKERS,
        }
        topologies = []

        def job(index, cache):
            topologies.append(id(engine.topology))
            t0 = time.perf_counter()
            result = engine.run_distributed(
                one_hot(p["runs"], engine.topology.n),
                run_seed(seed, index),
                endpoint=fleet.address,
                max_shard=p["max_shard"],
                cache=cache,
            )
            return result, time.perf_counter() - t0

        def one_pass(cache_dir: Path, label: str, seconds: float):
            """Each job cold into a fresh cache, then at once again warm.

            At least ``jobs`` jobs run, more while ``seconds`` allow.

            Interleaving spreads the warm jobs over the same stretch of
            time as the cold ones, so a slow spell of the machine weighs
            on both alike.
            """
            cache = ResultCache(cache_dir)
            before = fleet.metrics()
            retries0 = _retry_count()
            cold_s, warm_s, digests, first_job = [], [], {}, None
            t0 = time.perf_counter()
            for j in passes(seconds, minimum=p["jobs"]):
                cold, tc = job(j, cache)
                warm, tw = job(j, cache)
                if tamper is not None and j == 0:
                    warm = tamper(warm)
                out.gate.runs(f"{label} cold job {j}", cold)
                out.gate.same(f"{label} warm job {j} == cold", warm, cold)
                cold_s.append(tc)
                warm_s.append(tw)
                digests[f"job/{j}"] = digest(cold)
                first_job = cold if first_job is None else first_job
            wall = time.perf_counter() - t0
            after = fleet.metrics()
            shards = len(cold_s) * len(plan)
            out.gate.record(f"{label} warm shards served from cache", shards, shards - cache.hits)
            faults = {
                k: after[k] - before[k] for k in ("requeues", "worker_errors", "decode_rejects")
            }
            retried = _retry_count() - retries0
            out.gate.record(
                f"{label} requeued/failed/rejected shards", shards, sum(faults.values())
            )
            out.gate.record(f"{label} retried transport calls", 2 * len(cold_s), retried)
            busy = sum(w["busy_s"] for w in after["workers"].values()) - sum(
                w["busy_s"] for w in before["workers"].values()
            )
            return {
                "cold_s": cold_s, "warm_s": warm_s, "digests": digests,
                "first_job": first_job, "wall": wall, "cache": cache,
                "faults": faults, "busy_frac": busy / (WORKERS * sum(cold_s)),
                "metrics": after,
            }

        first = one_pass(scratch / "untraced", "untraced", 0 if trace else seconds)
        # Input sharing: the share of submitted jobs whose topology is
        # the one most jobs ship (every job here reuses one graph).
        out.provenance["topology_share"] = max(
            topologies.count(t) for t in set(topologies)
        ) / len(topologies)
        cold_walls, warm_walls = first["cold_s"], first["warm_s"]
        out.e2e["primary_s"] = statistics.median(cold_walls)
        out.e2e["secondary_s"] = statistics.median(warm_walls)
        out.figure("job_s_p50", out.e2e["primary_s"], "s", len(cold_walls))
        out.figure("cached_job_s_p50", out.e2e["secondary_s"], "s", len(warm_walls))

        reference = engine.run_sharded(
            one_hot(p["runs"], engine.topology.n),
            run_seed(seed, 0),
            workers=1,
            max_shard=p["max_shard"],
        )
        out.gate.same("cold job 0 == run_sharded(workers=1)", first["first_job"], reference)

        if trace:
            tracer = Tracer()
            frames = []

            def keep_frame(args, kwargs, result):
                if len(frames) < len(plan):
                    frames.append(result)

            with traced(tracer) as (sink, tel):
                # Outermost wrapper of the same name: it times the call and
                # keeps the first job's frames; the inner one passes through.
                client = sys.modules["repro.distributed.client"]
                tracer.wrap(client, "encode_task", "wire.encode", keep_frame)
                second = one_pass(scratch / "traced", "traced", 0)
            fidelity(out, first["digests"], second["digests"])
            layer_times(out, tracer, second["wall"])
            lay = out.layers
            decode_s = []
            for frame in frames:
                t0 = time.perf_counter()
                decode_task(frame)
                decode_s.append(time.perf_counter() - t0)
            shards = len(second["cold_s"]) * len(plan)
            lay["wire.decode_task_s"] = statistics.median(decode_s) * shards
            lay["wire.bytes_per_shard"] = statistics.median(
                len(canonical_bytes(frame)) for frame in frames
            )
            m = second["metrics"]
            lay["broker.wait_s_p50"] = (m["wait_s"] or {}).get("p50", 0.0)
            lay["broker.exec_s_p50"] = (m["exec_s"] or {}).get("p50", 0.0)
            lay["worker.busy_frac"] = second["busy_frac"]
            lay["broker.requeues"] = second["faults"]["requeues"]
            lay["broker.worker_errors"] = second["faults"]["worker_errors"]
            lay["broker.decode_rejects"] = second["faults"]["decode_rejects"]
            cache = second["cache"]
            lay["cache.hits"] = cache.hits
            lay["cache.misses"] = cache.misses
            lay["cache.hit_ratio"] = cache.hits / max(1, cache.hits + cache.misses)
            lay["telemetry.trace_overhead_frac"] = second["wall"] / first["wall"] - 1.0
            jobs_span = span_seconds(sink, "broker.job")
            out.provenance["broker_job_span_s_p50"] = (
                statistics.median(jobs_span) if jobs_span else None
            )
            out.provenance["bytes_per_shard"] = lay["wire.bytes_per_shard"]
    finally:
        if fleet is not None:
            fleet.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return out


#: Client-side counters of transport calls that had to be repeated or
#: abandoned (see :mod:`repro.resilience.retry` and the client).
RETRY_COUNTERS = (
    "retry.retries",
    "retry.giveups",
    "client.decode_rejects",
    "client.fallbacks",
    "client.breaker_fastfails",
)


def _retry_count() -> float:
    from repro.telemetry import get_telemetry

    counters = get_telemetry().counters()
    return sum(counters.get(name, 0) for name in RETRY_COUNTERS)


# ----------------------------------------------------------------------
# suite-quick
# ----------------------------------------------------------------------
def suite_quick(seed, seconds, trace, *, import_s, size="full", tamper=None):
    """One serial pass of E1-E17, whatever the budget; every check gated.

    The traced run adds a second, traced pass.  ``tamper`` is accepted
    for a uniform signature and unused: the suite's outputs are checks.
    """
    p = SIZES["suite-quick"][size]
    out = Outcome("suite-quick", seed)

    def build():
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.registry import EXPERIMENTS

        specs = [
            spec for key, spec in EXPERIMENTS.items() if p["only"] is None or key in p["only"]
        ]
        return specs, ExperimentConfig(scale=p["scale"], seed=int(seed))

    specs, config = timed_setup(out, import_s, build)

    def one_pass(tracer=None):
        walls, digests, results = {}, {}, {}
        t0 = time.perf_counter()
        for spec in specs:
            key = spec.experiment_id
            span = tracer.span(f"experiments.{key}") if tracer else contextlib.nullcontext()
            t1 = time.perf_counter()
            with span:
                result = spec.run(config)
            walls[key] = time.perf_counter() - t1
            digests[key] = hashlib.sha256(result.render().encode()).hexdigest()
            results[key] = result
        return time.perf_counter() - t0, walls, digests, results

    wall, walls, digests, results = one_pass()
    for key, result in results.items():
        failed = [c.name for c in result.checks if not c.passed]
        out.gate.record(f"{key} checks ({', '.join(failed)})", len(result.checks), len(failed))
    out.e2e["primary_s"] = wall
    out.e2e["secondary_s"] = statistics.median(walls.values())
    out.figure("suite_s", wall, "s", 1)
    out.figure("experiment_s_p50", out.e2e["secondary_s"], "s", len(walls))
    out.provenance["scale"] = p["scale"]
    out.provenance["experiments"] = len(specs)
    out.provenance["checks"] = sum(len(r.checks) for r in results.values())

    if trace:
        tracer = Tracer()
        with traced(tracer) as (sink, tel):
            traced_wall, traced_walls, traced_digests, traced_results = one_pass(tracer)
            rounds = tel.histogram_summary("engine.round.seconds")
        fidelity(out, digests, traced_digests)
        layer_times(out, tracer, traced_wall)
        lay = out.layers
        lay["engine.round_ms_p50"] = 1000.0 * rounds["p50"] if rounds else 0.0
        for key, value in traced_walls.items():
            lay[f"experiments.E{int(key[1:]):02d}_s"] = value
        lay["experiments.checks_failed"] = sum(
            not c.passed for r in traced_results.values() for c in r.checks
        )
        lay["telemetry.trace_overhead_frac"] = traced_wall / wall - 1.0
        out.provenance["engine_run_share"] = lay["engine.run_s"] / traced_wall
        out.provenance["spans"] = {"engine.run": len(span_seconds(sink, "engine.run"))}
    return out


WORKLOADS = {
    "expander-spread": expander_spread,
    "broker-cover": broker_cover,
    "suite-quick": suite_quick,
}
