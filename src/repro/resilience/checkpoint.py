"""Job checkpoints: resumable manifests over the content-addressed cache.

A :class:`JobCheckpoint` records, for one shard plan, which shard
indices have completed.  The completed *results* themselves live in the
existing content-addressed :class:`~repro.distributed.cache.ResultCache`
(keyed by canonical task digest), so the manifest only needs the task
key list and a set of done indices — a few hundred bytes, written
atomically after every completion.  An interrupted
``run_sharded`` (local or ``endpoint=``) pointed at the same manifest
path resumes bit-identically: completed shards are served from the cache
(observable via its hit counters) and only the remainder is recomputed
or re-submitted.

Manifests are keyed to the shard plan: reopening a manifest whose
stored task keys do not match the current plan starts fresh rather
than resuming the wrong job.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.telemetry import get_telemetry

__all__ = ["JobCheckpoint", "execute_shards_checkpointed"]

_MANIFEST_VERSION = 1


class JobCheckpoint:
    """An atomic, resumable manifest of completed shard indices.

    Construct via :meth:`open`, which resumes a compatible existing
    manifest or starts a fresh one.  :meth:`mark_done` + :meth:`save`
    after each completion keeps the on-disk state at most one shard
    behind reality; a crash between the two merely recomputes (or
    re-fetches from cache) that one shard.
    """

    def __init__(self, path, keys: list[str], done=()):
        self.path = Path(path)
        self.keys = list(keys)
        self._done: set[int] = {int(i) for i in done}
        self._lock = threading.Lock()

    @classmethod
    def open(cls, path, keys: list[str]) -> "JobCheckpoint":
        """Open (resuming) or create the manifest at *path* for *keys*.

        A readable manifest whose key list matches resumes; anything
        else — missing file, torn JSON, mismatched plan — starts a
        fresh manifest (resume of a *different* job would be silently
        wrong, so plan identity is checked, not assumed).
        """
        tel = get_telemetry()
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = None
        if (
            isinstance(payload, dict)
            and payload.get("v") == _MANIFEST_VERSION
            and payload.get("kind") == "checkpoint"
            and payload.get("keys") == list(keys)
        ):
            done = [
                i
                for i in payload.get("done", ())
                if isinstance(i, int) and 0 <= i < len(keys)
            ]
            manifest = cls(path, keys, done)
            tel.count("checkpoint.resumes")
            if tel.enabled:
                tel.event(
                    "checkpoint.resume", path=str(path), done=len(done),
                    total=len(keys),
                )
            return manifest
        return cls(path, keys)

    def mark_done(self, index: int) -> None:
        """Record shard *index* as completed (in memory; call save())."""
        with self._lock:
            self._done.add(int(index))

    def done_indices(self) -> list[int]:
        """Sorted list of completed shard indices."""
        with self._lock:
            return sorted(self._done)

    def pending(self) -> list[int]:
        """Sorted list of shard indices still to run."""
        with self._lock:
            return [i for i in range(len(self.keys)) if i not in self._done]

    @property
    def complete(self) -> bool:
        """True once every shard index is marked done."""
        with self._lock:
            return len(self._done) == len(self.keys)

    def save(self) -> None:
        """Atomically write the manifest (temp file + ``os.replace``)."""
        with self._lock:
            payload = {
                "v": _MANIFEST_VERSION,
                "kind": "checkpoint",
                "keys": self.keys,
                "done": sorted(self._done),
            }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / (
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.path)
        get_telemetry().count("checkpoint.saves")


def execute_shards_checkpointed(
    tasks,
    *,
    workers: int = 1,
    cache="auto",
    checkpoint=None,
):
    """Run shard tasks locally with checkpoint/resume over the cache.

    The local-tier analogue of the checkpointed remote path: completed
    shards recorded in the manifest are served from the content-addressed
    cache (counted as ``client.cache.hits``), only the remainder is
    executed, and each fresh completion is stored + checkpointed before
    the next one starts.  The pending shards run through the same pool
    loop as :func:`repro.parallel.execute_shards`, and results come back
    in task order, bit-identical to it on the same plan.
    """
    # Lazy: keep repro.resilience importable without dragging in the
    # distributed package (which imports this module via the client).
    from repro.distributed.cache import resolve_cache
    from repro.distributed.wire import encode_result, encode_task, task_key
    from repro.parallel.sharding import _completed_shards

    tel = get_telemetry()
    tasks = list(tasks)
    store = resolve_cache(cache)
    if store is None:
        raise ValueError(
            "checkpointed execution needs a result cache; pass cache='auto' "
            "or a cache path (the manifest stores digests, the cache stores "
            "results)"
        )
    keys = [task_key(encode_task(t)) for t in tasks]
    manifest = (
        checkpoint
        if isinstance(checkpoint, JobCheckpoint)
        else JobCheckpoint.open(checkpoint, keys)
    )
    if manifest.keys != keys:
        manifest = JobCheckpoint(manifest.path, keys)

    results: list = [None] * len(tasks)
    for i in manifest.done_indices():
        cached = store.get(keys[i])
        if cached is not None:
            tel.count("client.cache.hits")
            results[i] = cached
        # A checkpointed shard whose cache entry was evicted or
        # quarantined just recomputes: correctness over bookkeeping.
    pending = [i for i in range(len(tasks)) if results[i] is None]
    # Each fresh completion is stored and checkpointed as it lands.
    for i, result in _completed_shards([(i, tasks[i]) for i in pending], workers):
        results[i] = result
        store.put(keys[i], encode_result(result))
        manifest.mark_done(i)
        manifest.save()
    if tel.enabled:
        tel.event(
            "checkpoint.complete",
            path=str(manifest.path),
            shards=len(tasks),
            resumed=len(tasks) - len(pending),
        )
    return results
