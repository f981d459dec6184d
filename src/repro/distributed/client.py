"""Client side of the shard queue: submit, wait, merge, cache — resiliently.

:func:`execute_shards_remote` is the distributed mirror of
:func:`repro.parallel.execute_shards` — same input (a list of
:class:`~repro.parallel.ShardTask`), same output (per-task results in
input order) — so :func:`repro.parallel.run_sharded` can swap one for
the other and keep its planning, seeding and merging untouched.  That
is the determinism argument in one line: the shard plan and the
spawned seeds are computed *before* the transport is chosen, so
``run_sharded(endpoint=...)`` over any broker, any worker count and
any arrival order is bit-for-bit identical to
``run_sharded(workers=1)``.

Topologies reach the broker by reference: a submit lists the digests
of the graphs its tasks refer to, and only when the broker answers
``need`` does the client send it again with those blobs attached (see
:mod:`repro.distributed.wire`), so a job on a topology the broker
already holds ships no CSR at all.

Before contacting the broker the client consults the content-addressed
:class:`~repro.distributed.cache.ResultCache`; fully-cached jobs never
open a socket at all.  Freshly computed shard results are written back
on arrival, so sweeps that revisit parameter points pay for each shard
once, machine-wide.

Resilience (PR 8): transport failures — refused dials, dropped or
undecodable frames, a broker dying mid-job — are retried under a
:class:`~repro.resilience.RetryPolicy` (each attempt resubmits only
the still-missing shards, under a fresh job id), and a per-endpoint
:class:`~repro.resilience.CircuitBreaker` converts repeated refusals
into an immediate :class:`BrokerUnavailable`, which
:func:`execute_shards_resilient` can degrade into local sharded
execution (``fallback="local"``) with bit-identical results.  With
``checkpoint=`` set, the client polls the broker's incremental
``collect`` protocol and persists every completed shard (result into
the cache, index into an atomic
:class:`~repro.resilience.JobCheckpoint` manifest) the moment it
lands, so a client killed mid-job resumes without recomputing —
completed shards come back as cache hits.
"""

from __future__ import annotations

import socket
import time
import uuid

from ..resilience import (
    JobCheckpoint,
    RetryError,
    breaker_for,
    resolve_checkpoint,
    resolve_fallback,
    resolve_retry,
)
from ..resilience.faults import InjectedCrash, InjectedFault, active_fault_plan
from ..telemetry import get_telemetry
from .cache import resolve_cache
from .wire import (
    TOPOLOGIES,
    WireDecodeError,
    attach_trace,
    decode_result,
    encode_task,
    parse_endpoint,
    recv_frame,
    send_frame,
    task_digests,
    task_key,
)

__all__ = [
    "DistributedError",
    "BrokerUnavailable",
    "execute_shards_remote",
    "execute_shards_resilient",
    "broker_status",
    "transport_snapshot",
]


class DistributedError(RuntimeError):
    """A distributed job could not be completed (broker/worker failure)."""


class BrokerUnavailable(DistributedError):
    """The broker cannot be reached (retries exhausted or breaker open).

    The transport-level subset of :class:`DistributedError`: the job
    itself is fine, the queue is not.  This is the signal
    ``fallback="local"`` acts on — a *logical* job failure (poison
    shard, rejected submission) is never masked by falling back.
    """


def _request(sock: socket.socket, message: dict) -> dict:
    try:
        send_frame(sock, message)
        reply = recv_frame(sock)
    except TimeoutError as exc:
        raise DistributedError(f"timed out waiting for the broker: {exc}") from exc
    except OSError as exc:
        raise DistributedError(f"broker connection failed: {exc}") from exc
    if reply is None:
        raise DistributedError("broker closed the connection")
    return reply


def _exchange(sock: socket.socket, message: dict) -> dict:
    """Send one frame, read one reply; raw transport errors propagate.

    The retried sibling of :func:`_request`: callers inside the retry
    loop want ``ConnectionError``/``TimeoutError``/``OSError`` to stay
    themselves (they select the retry path), not to be wrapped.
    """
    send_frame(sock, message, site="client.send")
    reply = recv_frame(sock)
    if reply is None:
        raise ConnectionError("broker closed the connection")
    if reply.get("type") == "failed" and "malformed message" in str(
        reply.get("error", "")
    ):
        # The broker could not parse the frame we just sent: the
        # transport (or an injected corruption) mangled it in flight.
        # That is a connection-level event, not a job rejection — let
        # the retry policy resubmit on a fresh connection.
        raise ConnectionError(
            f"broker could not parse our frame: {reply.get('error')}"
        )
    return reply


def _open_socket(endpoint, connect_timeout: float, timeout) -> socket.socket:
    """Dial the broker; injected refusals surface as ``ConnectionError``."""
    host, port = parse_endpoint(endpoint)
    plan = active_fault_plan()
    if plan is not None and plan.refuse_connection("client.connect"):
        tel = get_telemetry()
        tel.count("faults.injected")
        if tel.enabled:
            tel.event("faults.refuse", site="client.connect")
        raise InjectedFault("refuse", "client.connect")
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(timeout)
    return sock


def execute_shards_remote(
    tasks,
    endpoint,
    *,
    cache="auto",
    timeout: float | None = None,
    connect_timeout: float = 10.0,
    retry="default",
    checkpoint="default",
    poll_interval: float = 0.05,
) -> list:
    """Run shard tasks through a broker; results in input order.

    The remote counterpart of :func:`repro.parallel.execute_shards`:
    every task is encoded through :mod:`repro.distributed.wire`,
    content-addressed against ``cache`` (``"auto"`` honours
    ``REPRO_CACHE_DIR``; ``None`` disables), and only the misses are
    submitted as one job.  The call blocks until the broker reports
    the job done (``timeout`` bounds each broker exchange; None waits
    forever) and raises :class:`DistributedError` if the job failed.

    ``retry`` (a :class:`~repro.resilience.RetryPolicy`, ``"default"``
    for the configured process default, or None for single-shot)
    governs transport failures: each attempt resubmits only the shards
    still missing, under a fresh job id, and exhausting the policy
    raises :class:`BrokerUnavailable`.  ``checkpoint`` (a manifest
    path; ``"default"`` consults :func:`repro.resilience.configure`)
    switches collection to the broker's incremental ``collect``
    protocol and persists every completed shard as it lands, so an
    interrupted call resumes from the manifest — completed shards are
    served from the cache, observable via ``client.cache.hits``.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    tel = get_telemetry()
    policy = resolve_retry(retry)
    checkpoint = resolve_checkpoint(checkpoint)
    store = resolve_cache(cache)
    if checkpoint is not None and store is None:
        raise ValueError(
            "checkpointed execution needs a result cache (the manifest "
            "stores shard digests, the cache stores the results); pass "
            "cache='auto' or a cache path"
        )
    encoded = [encode_task(task) for task in tasks]
    results: list = [None] * len(tasks)
    manifest: JobCheckpoint | None = None
    if store is None:
        # No store, no content addresses: hashing the full canonical
        # encoding per shard would be pure overhead.
        keys: list[str | None] = [None] * len(tasks)
    else:
        keys = [task_key(obj) for obj in encoded]
        if checkpoint is not None:
            manifest = JobCheckpoint.open(checkpoint, keys)
        hits = 0
        for i, key in enumerate(keys):
            hit = store.get(key)
            if hit is not None:
                results[i] = hit
                hits += 1
                if manifest is not None:
                    manifest.mark_done(i)
        misses = len(tasks) - hits
        if hits:
            tel.count("client.cache.hits", hits)
        if misses:
            tel.count("client.cache.misses", misses)
        if tel.enabled:
            tel.event(
                "client.cache", hits=hits, misses=misses, shards=len(tasks)
            )
        if manifest is not None:
            manifest.save()
    if all(result is not None for result in results):
        return results

    breaker = breaker_for(str(endpoint))
    if not breaker.allow():
        tel.count("client.breaker_fastfails")
        raise BrokerUnavailable(
            f"cannot reach broker at {endpoint}: circuit breaker open, "
            "failing fast"
        )

    def accept(index: int, payload: dict) -> bool:
        """Decode + persist one shard result; False if undecodable."""
        try:
            result = decode_result(payload)
        except WireDecodeError as exc:
            tel.count("client.decode_rejects")
            if tel.enabled:
                tel.event("client.decode_reject", index=index, error=str(exc))
            return False
        results[index] = result
        if store is not None:
            store.put(keys[index], payload)
        if manifest is not None:
            manifest.mark_done(index)
        return True

    def run_attempt() -> None:
        pending = [i for i in range(len(tasks)) if results[i] is None]
        if not pending:
            return
        job_id = uuid.uuid4().hex
        sock = _open_socket(endpoint, connect_timeout, timeout)
        with sock:
            digests = sorted(
                {d for i in pending for d in task_digests(encoded[i])}
            )
            submit = {
                "type": "submit",
                "job_id": job_id,
                "tasks": [
                    {"index": i, "task": encoded[i]} for i in pending
                ],
                "digests": digests,
            }
            # The optional trace-context wire key: present only when the
            # client itself is tracing, so untraced submissions stay
            # byte-identical to the pre-trace format.
            if tel.enabled:
                attach_trace(submit, tel.current_context())
            reply = _exchange(sock, submit)
            if reply.get("type") == "need":
                # The broker lacks some topologies (first job on them,
                # a broker restart, or an eviction): push just those.
                needed = set(reply.get("digests", ()))
                submit["blobs"] = {
                    d: TOPOLOGIES.blob(d) for d in digests if d in needed
                }
                reply = _exchange(sock, submit)
            if reply.get("type") != "accepted":
                raise DistributedError(
                    f"broker rejected job: {reply.get('error', reply)}"
                )
            if manifest is None:
                reply = _exchange(sock, {"type": "wait", "job_id": job_id})
                if reply.get("type") == "failed":
                    raise DistributedError(
                        f"distributed job failed: {reply.get('error')}"
                    )
                if reply.get("type") != "done":
                    raise DistributedError(
                        f"unexpected broker reply {reply.get('type')!r}"
                    )
                for item in reply["results"]:
                    accept(int(item["index"]), item["result"])
            else:
                _collect_loop(sock, job_id, pending)
        still = [i for i in pending if results[i] is None]
        if still:
            # Some result frames survived transport but not decoding
            # (e.g. injected payload corruption): resubmit just those
            # under the retry policy.
            raise ConnectionError(
                f"{len(still)} shard result(s) undecodable; resubmitting"
            )

    def _collect_loop(sock, job_id: str, pending: list[int]) -> None:
        plan = active_fault_plan()
        have: set[int] = set()
        while True:
            reply = _exchange(
                sock,
                {"type": "collect", "job_id": job_id, "have": sorted(have)},
            )
            if reply.get("type") != "partial":
                raise DistributedError(
                    f"unexpected broker reply {reply.get('type')!r}"
                )
            fresh = reply.get("results", ())
            for item in fresh:
                index = int(item["index"])
                have.add(index)
                if not accept(index, item["result"]):
                    # The broker holds a stored-but-undecodable result;
                    # polling again returns the same bytes forever, so
                    # abort the attempt and resubmit under a new job.
                    raise ConnectionError(
                        f"undecodable result for shard {index}; resubmitting"
                    )
            if fresh:
                manifest.save()
                tel.count("client.checkpointed", len(fresh))
                if plan is not None and plan.crash_client(
                    len(manifest.done_indices())
                ):
                    raise InjectedCrash(
                        "client.collect", len(manifest.done_indices())
                    )
            state = reply.get("state")
            if state == "failed":
                raise DistributedError(
                    f"distributed job failed: {reply.get('error')}"
                )
            if state == "done" and all(
                results[i] is not None for i in pending
            ):
                _exchange(sock, {"type": "drop", "job_id": job_id})
                return
            time.sleep(poll_interval)

    def attempt() -> None:
        try:
            run_attempt()
        except (DistributedError, InjectedCrash):
            raise  # logical failure / deliberate crash: never a breaker event
        except (ConnectionError, TimeoutError, OSError):
            breaker.record_failure()
            raise
        breaker.record_success()

    try:
        policy.run(attempt, what=f"distributed job via {endpoint}")
    except RetryError as exc:
        raise BrokerUnavailable(
            f"cannot reach broker at {endpoint}: {exc.last!r} "
            f"(after {exc.attempts} attempt(s))"
        ) from exc
    return results


def execute_shards_resilient(
    tasks,
    endpoint,
    *,
    workers: int | None = None,
    cache="auto",
    retry="default",
    checkpoint="default",
    fallback="default",
    timeout: float | None = None,
    connect_timeout: float = 10.0,
) -> list:
    """Remote execution with graceful degradation to the local tier.

    Runs :func:`execute_shards_remote`; if (and only if) that fails
    with :class:`BrokerUnavailable` — retries exhausted or the
    endpoint's circuit breaker open — and the resolved fallback mode is
    ``"local"``, the same tasks complete on this host through the local
    tier :func:`repro.parallel.run_sharded` uses (checkpointed when a
    manifest is configured), bit-identical by the per-shard seed
    contract.  Logical job failures always propagate.
    """
    fallback_mode = resolve_fallback(fallback)
    try:
        return execute_shards_remote(
            tasks,
            endpoint,
            cache=cache,
            retry=retry,
            checkpoint=checkpoint,
            timeout=timeout,
            connect_timeout=connect_timeout,
        )
    except BrokerUnavailable as exc:
        if fallback_mode != "local":
            raise
        tel = get_telemetry()
        tel.count("client.fallbacks")
        if tel.enabled:
            tel.event(
                "client.fallback",
                endpoint=str(endpoint),
                mode="local",
                cause=str(exc),
            )
        from ..parallel.sharding import _execute_local

        return _execute_local(
            tasks, workers, cache=cache, checkpoint=resolve_checkpoint(checkpoint)
        )


def transport_snapshot() -> dict:
    """This process's transport-side health: cache, breakers, counters.

    The shared status fragment ``/statusz`` and the CLI panels splice
    into their frames: the result-cache footprint (entries/bytes at
    the resolved ``REPRO_CACHE_DIR`` root), every registered
    circuit-breaker's state, and the ``client.*``/``retry.*``
    lifecycle counters.  Read-only and cheap — safe to call from any
    thread.
    """
    from ..resilience.retry import breaker_states
    from .cache import ResultCache

    root = ResultCache.default_root()
    if root is None:
        cache = {"enabled": False}
    elif root.is_dir():
        store = ResultCache(root)
        cache = {
            "enabled": True,
            "path": str(root),
            "entries": len(store),
            "bytes": store.total_bytes(),
        }
    else:
        cache = {"enabled": True, "path": str(root), "entries": 0, "bytes": 0}
    counters = {
        name: value
        for name, value in get_telemetry().counters().items()
        if name.startswith(("client.", "retry."))
    }
    return {"cache": cache, "breakers": breaker_states(), "counters": counters}


def broker_status(endpoint, *, timeout: float = 5.0) -> dict:
    """Fetch a broker's queue counters (pending/leased/done/failed/jobs)."""
    host, port = parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise DistributedError(
            f"cannot reach broker at {host}:{port}: {exc}"
        ) from exc
    with sock:
        sock.settimeout(timeout)
        reply = _request(sock, {"type": "status"})
    if reply.get("type") != "status":
        raise DistributedError(f"unexpected broker reply {reply.get('type')!r}")
    return {k: v for k, v in reply.items() if k != "type"}
