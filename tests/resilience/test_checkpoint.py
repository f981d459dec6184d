"""JobCheckpoint and checkpointed local execution unit tests.

The manifest contract: atomic saves, plan-keyed resume (a manifest for
a different shard plan must start fresh, never resume wrong), and
``execute_shards_checkpointed`` serving completed shards from the
content-addressed cache bit-identically.
"""

import json

import numpy as np
import pytest

from repro import resilience
from repro.core.branching import make_policy
from repro.distributed import ResultCache
from repro.dynamics import RewiringSequence, dynamic_cover_time_batch
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import hypercube_graph, random_regular_graph
from repro.parallel import ShardTask
from repro.resilience import JobCheckpoint, execute_shards_checkpointed
from repro.stats import spawn_seeds
from repro.telemetry import get_telemetry


class TestManifest:
    def test_save_and_reopen_resumes(self, tmp_path):
        path = tmp_path / "job.json"
        manifest = JobCheckpoint(path, ["k0", "k1", "k2"])
        manifest.mark_done(1)
        manifest.save()
        reopened = JobCheckpoint.open(path, ["k0", "k1", "k2"])
        assert reopened.done_indices() == [1]
        assert reopened.pending() == [0, 2]
        assert not reopened.complete

    def test_mismatched_plan_starts_fresh(self, tmp_path):
        path = tmp_path / "job.json"
        manifest = JobCheckpoint(path, ["k0", "k1"])
        manifest.mark_done(0)
        manifest.save()
        other = JobCheckpoint.open(path, ["different", "plan"])
        assert other.done_indices() == []

    def test_torn_manifest_starts_fresh(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"v": 1, "kind": "checkpoint", "keys": [')
        manifest = JobCheckpoint.open(path, ["k0"])
        assert manifest.done_indices() == []

    def test_out_of_range_done_indices_dropped(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "v": 1, "kind": "checkpoint", "keys": ["k0", "k1"],
            "done": [0, 5, -1, "junk"],
        }))
        manifest = JobCheckpoint.open(path, ["k0", "k1"])
        assert manifest.done_indices() == [0]

    def test_save_is_atomic_no_temp_left(self, tmp_path):
        path = tmp_path / "deep" / "job.json"
        manifest = JobCheckpoint(path, ["k0"])
        manifest.mark_done(0)
        manifest.save()
        assert manifest.complete
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []
        assert json.loads(path.read_text())["done"] == [0]

    def test_resume_counter(self, tmp_path):
        tel = get_telemetry()
        path = tmp_path / "job.json"
        JobCheckpoint(path, ["k0"]).save()
        before = tel.counters().get("checkpoint.resumes", 0)
        JobCheckpoint.open(path, ["k0"])
        assert tel.counters().get("checkpoint.resumes", 0) == before + 1


def _tasks(runs=12, max_shard=4):
    graph = hypercube_graph(4)
    rule = CobraRule(make_policy(2))
    engine = SpreadEngine(rule, graph)
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, 0] = True
    sizes = [max_shard] * (runs // max_shard)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [
        ShardTask(
            rule=rule,
            topology=graph,
            completion=engine.completion,
            state=state[lo:hi],
            seed=s,
            track_hits=True,
        )
        for lo, hi, s in zip(
            bounds[:-1], bounds[1:], spawn_seeds(99, len(sizes))
        )
    ]


class TestExecuteCheckpointed:
    def test_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="needs a result cache"):
            execute_shards_checkpointed(
                _tasks(), cache=None, checkpoint=tmp_path / "m.json"
            )

    def test_matches_plain_execution_and_resumes(self, tmp_path):
        from repro.parallel import execute_shards

        tel = get_telemetry()
        tasks = _tasks()
        reference = execute_shards(list(tasks), workers=1)
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        manifest_path = tmp_path / "m.json"
        first = execute_shards_checkpointed(
            list(tasks), cache=store, checkpoint=manifest_path
        )
        for got, want in zip(first, reference):
            assert np.array_equal(got.finish_times, want.finish_times)
            assert np.array_equal(got.final_state, want.final_state)
        # Second invocation: everything from cache, nothing recomputed.
        hits_before = tel.counters().get("client.cache.hits", 0)
        second = execute_shards_checkpointed(
            list(tasks), cache=store, checkpoint=manifest_path
        )
        assert tel.counters().get("client.cache.hits", 0) == hits_before + len(
            tasks
        )
        for got, want in zip(second, reference):
            assert np.array_equal(got.finish_times, want.finish_times)
            assert np.array_equal(got.final_state, want.final_state)

    def test_partial_manifest_recomputes_only_pending(self, tmp_path):
        from repro.distributed.wire import encode_result, encode_task, task_key
        from repro.parallel import execute_shards, run_shard

        tel = get_telemetry()
        tasks = list(_tasks())
        reference = execute_shards(list(tasks), workers=1)
        keys = [task_key(encode_task(t)) for t in tasks]
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        # Pre-seed shard 0 as if a previous run completed it.
        store.put(keys[0], encode_result(run_shard(tasks[0])))
        manifest = JobCheckpoint(tmp_path / "m.json", keys)
        manifest.mark_done(0)
        manifest.save()
        hits_before = tel.counters().get("client.cache.hits", 0)
        got = execute_shards_checkpointed(
            list(tasks), cache=store, checkpoint=tmp_path / "m.json"
        )
        assert tel.counters().get("client.cache.hits", 0) == hits_before + 1
        for result, want in zip(got, reference):
            assert np.array_equal(result.finish_times, want.finish_times)
            assert np.array_equal(result.final_state, want.final_state)

    def test_evicted_cache_entry_recomputes(self, tmp_path):
        # A done-marked shard whose cache entry vanished must recompute
        # rather than crash or return None.
        from repro.distributed.wire import encode_task, task_key

        tasks = list(_tasks())
        keys = [task_key(encode_task(t)) for t in tasks]
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        manifest = JobCheckpoint(tmp_path / "m.json", keys)
        manifest.mark_done(0)  # marked done, but nothing in the cache
        manifest.save()
        got = execute_shards_checkpointed(
            list(tasks), cache=store, checkpoint=tmp_path / "m.json"
        )
        assert all(r is not None for r in got)

    def test_pool_path_matches_serial(self, tmp_path):
        tasks = list(_tasks())
        store_a = ResultCache(tmp_path / "a", max_bytes=None)
        store_b = ResultCache(tmp_path / "b", max_bytes=None)
        serial = execute_shards_checkpointed(
            list(tasks), workers=1, cache=store_a,
            checkpoint=tmp_path / "ma.json",
        )
        pooled = execute_shards_checkpointed(
            list(tasks), workers=3, cache=store_b,
            checkpoint=tmp_path / "mb.json",
        )
        for got, want in zip(pooled, serial):
            assert np.array_equal(got.finish_times, want.finish_times)
            assert np.array_equal(got.final_state, want.final_state)


class TestRunShardedCheckpoint:
    def test_run_sharded_checkpoint_resume_identical(self, tmp_path):
        # The engine-level path: an interrupted run_sharded resumed at
        # the same manifest must be bit-identical to the uninterrupted
        # one — and the resumed run must come from cache.
        graph = hypercube_graph(4)
        rule = CobraRule(make_policy(2))
        engine = SpreadEngine(rule, graph)
        state = np.zeros((10, graph.n), dtype=bool)
        state[:, 0] = True
        reference = engine.run_sharded(
            state, 5, workers=1, max_shard=4, track_hits=True
        )
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        kwargs = dict(
            workers=1, max_shard=4, track_hits=True, cache=store,
            checkpoint=str(tmp_path / "m.json"),
        )
        first = engine.run_sharded(state, 5, **kwargs)
        tel = get_telemetry()
        hits_before = tel.counters().get("client.cache.hits", 0)
        second = engine.run_sharded(state, 5, **kwargs)
        assert tel.counters().get("client.cache.hits", 0) > hits_before
        for got in (first, second):
            assert got.rounds_run == reference.rounds_run
            assert np.array_equal(got.finish_times, reference.finish_times)
            assert np.array_equal(got.hit_times, reference.hit_times)
            assert np.array_equal(got.final_state, reference.final_state)

    def test_dynamic_batch_honours_configured_checkpoint(self, tmp_path):
        # The sharded dynamic samplers run through run_sharded, so the
        # process-wide checkpoint (repro CLI --checkpoint) applies to
        # them too: the rerun is served from cache, bit-identically.
        base = random_regular_graph(16, 4, rng=5)

        def factory(topology_seed):
            return RewiringSequence(base, 2, seed=topology_seed)

        manifest = tmp_path / "dyn.json"
        store = ResultCache(tmp_path / "cache", max_bytes=None)
        reference = dynamic_cover_time_batch(factory, 300, seed=3, workers=2)
        tel = get_telemetry()
        resilience.configure(checkpoint=str(manifest))
        try:
            first = dynamic_cover_time_batch(
                factory, 300, seed=3, workers=2, cache=store
            )
            assert json.loads(manifest.read_text())["done"] == [0, 1]
            assert len(store) == 2
            hits_before = tel.counters().get("client.cache.hits", 0)
            second = dynamic_cover_time_batch(
                factory, 300, seed=3, workers=2, cache=store
            )
        finally:
            resilience.configure(checkpoint=None)
        assert tel.counters().get("client.cache.hits", 0) == hits_before + 2
        assert np.array_equal(first, reference)
        assert np.array_equal(second, reference)
