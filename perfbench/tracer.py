"""Outside-in layer timing: wrap public entry points, measure self time.

The benchmark attributes wall time to the layers of ``repro`` without
touching the program: :class:`Tracer` replaces a public function or
method with a timing wrapper for the duration of a traced leg and puts
the original back afterwards.  Each wrapper keeps a per-thread stack of
open calls, so a layer's *self* time is its inclusive time minus the
time spent in wrapped calls nested inside it (``CobraRule.step`` minus
``Graph.sample_neighbors``, ``ResultCache.get`` minus
``decode_result``).  A name already open on the stack is not counted
again (the depth guard), so re-entrant or doubly-bound entry points are
timed once.

Wrappers only read clocks and the arguments or results they are handed;
they draw no randomness, so a traced leg reproduces its untraced twin
bit for bit (the benchmark checks this by digest).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Self/inclusive time and call counts per wrapped entry point."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one call of ``name``."""
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            yield
            return
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.incl_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to a work counter."""
        with self._lock:
            self.counts[name] += int(value)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`restore`.

        ``on_call(args, kwargs, result)``, if given, runs after the timed
        call to record work counts from its arguments or result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def attributed_s(self) -> float:
        """Sum of self times: the wall time some wrapped layer accounts for."""
        return sum(self.self_s.values())


def install_entry_points(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark attributes.

    Names are ``layer.entry``; the benchmark folds them into per-layer
    metrics.  Functions imported by name into another module are wrapped
    in each namespace that calls them.
    """
    from repro.distributed import cache as cache_mod
    from repro.distributed import client as client_mod
    from repro.engine.engine import SpreadEngine
    from repro.engine.rules import BipsRule, CobraRule
    from repro.graphs.graph import Graph

    def sampled(args, kwargs, result):
        tracer.count("graphs.neighbors_sampled", len(result))

    def stepped(args, kwargs, result):
        graph, alive = args[1], args[3]
        tracer.count("engine.rounds")
        tracer.count("engine.cell_rounds", int(alive.sum()) * graph.n)

    def ran(args, kwargs, result):
        tracer.count("engine.capped_runs", int((result.finish_times < 0).sum()))

    tracer.wrap(Graph, "sample_neighbors", "graphs.sample_neighbors", sampled)
    tracer.wrap(CobraRule, "step", "engine.cobra_step", stepped)
    tracer.wrap(BipsRule, "step", "engine.bips_step", stepped)
    tracer.wrap(SpreadEngine, "run", "engine.run", ran)
    install_parallel_only(tracer)
    tracer.wrap(client_mod, "execute_shards_resilient", "broker.roundtrip")
    tracer.wrap(client_mod, "encode_task", "wire.encode")
    tracer.wrap(client_mod, "task_key", "wire.task_key")
    tracer.wrap(client_mod, "decode_result", "wire.decode_result")
    tracer.wrap(cache_mod, "decode_result", "wire.decode_result")
    tracer.wrap(cache_mod.ResultCache, "get", "cache.get")
    tracer.wrap(cache_mod.ResultCache, "put", "cache.put")


def install_parallel_only(tracer: Tracer) -> None:
    """Wrap only the parent-side sharding entry points (plan/execute/merge).

    Used on the pool leg, whose engine work runs in forked workers: the
    parent-side wrappers cost three calls per invocation and leave the
    workers untouched.
    """
    from repro.parallel import sharding

    tracer.wrap(sharding, "plan_shards", "parallel.plan")
    tracer.wrap(sharding, "execute_shards", "parallel.execute")
    tracer.wrap(sharding, "merge_shard_results", "parallel.merge")
