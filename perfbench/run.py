"""The repository benchmark: one command, three workloads, one gate.

Run from the repository root::

    python3 perfbench/run.py --workload expander-spread --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload broker-cover --seed 1 --seconds 45 --trace 1
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs the three workloads in turn and prints one
table per workload; its last line carries the last workload's metrics
and the gate of all three.  ``python3 perfbench/selftest.py`` checks the
benchmark itself at smoke size.

Untraced (``--trace 0``) runs measure the end-to-end metrics; the traced
run (``--trace 1``) wraps the public entry points of each layer of
``src/repro`` from outside (see ``tracer.py``), routes the program's own
spans to memory, and reports per-layer self times and work counts, plus
the tracing overhead and the share of wall time no layer accounts for.
End-to-end metrics never come from traced legs.

Each workload prints its own figures by name, with unit and sample
count (``cobra_runs_per_s``, ``bips_runs_per_s``, ``serial_s``,
``job_s_p50``, ``cached_job_s_p50``, ``suite_s``, ``setup_s``,
``peak_rss_mb`` and ``error_rate`` = failed / attempted operations),
then provenance: CPUs, Python, NumPy and SciPy versions, seed, shard
plans, bytes per shard and input-sharing share.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` when untraced, its per-layer metrics when
traced (a layer the workload does not exercise reads 0).  The
end-to-end metrics are shared by the workloads:

* ``primary_s`` -- expander-spread: wall time of the pool legs (COBRA +
  BIPS) of one pass, median over passes; broker-cover: median cold-job
  latency, submit to merged result; suite-quick: E1-E17 wall time.
* ``secondary_s`` -- expander-spread: wall time of the serial legs,
  median over passes; broker-cover: median warm-job latency, every
  shard a cache hit; suite-quick: median wall time of one experiment.
* ``setup_s`` -- imports plus the median of three set-ups (graph build,
  engines or fleet start, warm-up).
* ``peak_rss_mb`` -- peak RSS of this process or of its largest child.

``suite-quick`` is not among the workloads of ``BENCHMARK.json``: at
``quick`` scale the E3 check "expander cover time is polylog" fails on
about half of all seeds (its fitted exponent lands just above the
threshold), so it is not a workload on which no operation fails.  It
stays in this command, with its gate, for the researcher's end-to-end
task; its traced run also prints ``experiments.E01_s`` ... ``E17_s``
and ``experiments.checks_failed``.

Every failed operation -- a capped run, a pool, broker or cached output
that differs from its reference, a requeued, failed or retried shard, a
failed suite check, a leftover child process or shared-memory segment --
counts in ``failed`` and makes the command exit 1.  A checkout without
``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> float:
    """Import the program's layers from ``src``; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro.distributed  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.experiments.registry  # noqa: F401
    import repro.parallel  # noqa: F401

    return time.perf_counter() - t0


def provenance(outcome, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "seconds": seconds,
        "trace": trace,
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **outcome.provenance,
    }


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The driver-facing JSON object (the last line of standard output)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = outcome.layers if trace else outcome.e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": outcome.gate.correct,
        "attempted": outcome.gate.attempted,
        "failed": outcome.gate.failed,
        "metrics": metrics,
    }


def print_report(outcome, spec: dict, trace: bool) -> None:
    gate = outcome.gate
    print(f"== {outcome.workload} (seed {outcome.seed}, {'traced' if trace else 'untraced'})")
    print(f"{'metric':34} {'value':>14} {'unit':10} {'n':>4}")
    for name, (value, unit, samples) in outcome.figures.items():
        print(f"{name:34} {value:14.6g} {unit:10} {samples:>4}")
    error_rate = gate.failed / max(1, gate.attempted)
    print(f"{'error_rate':34} {error_rate:14.6g} {'fraction':10} {gate.attempted:>4}")
    for m in spec["end_to_end"]:
        if m["name"] in outcome.e2e:
            print(f"{m['name']:34} {outcome.e2e[m['name']]:14.6g} {m['unit']:10}")
    if trace:
        print("-- per layer (traced run; 0 = layer not exercised)")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        names = list(units) + sorted(set(outcome.layers) - set(units))
        for name in names:
            value = outcome.layers.get(name, 0.0)
            unit = units.get(name, "count" if name.endswith("checks_failed") else "s")
            print(f"{name:34} {value:14.6g} {unit:10}")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    print("correctness: " + ("ok" if gate.correct else "FAILED"))


def run_one(name, seed, seconds, trace, import_s, spec, *, size="full", tamper=None):
    """Run one workload, apply the hygiene checks and print its report."""
    from workloads import WORKLOADS, hygiene, peak_rss_mb, shm_segments

    shm_before = shm_segments()
    outcome = WORKLOADS[name](
        seed, seconds, trace, import_s=import_s, size=size, tamper=tamper
    )
    hygiene(outcome, shm_before)
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()
    outcome.figure("peak_rss_mb", outcome.e2e["peak_rss_mb"], "MB", 1)
    print_report(outcome, spec, trace)
    print("provenance " + json.dumps(provenance(outcome, seconds, trace), sort_keys=True))
    sys.stdout.flush()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["expander-spread", "broker-cover", "suite-quick", "all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        import_s = import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    names = (
        ["expander-spread", "broker-cover", "suite-quick"]
        if args.workload == "all"
        else [args.workload]
    )
    trace = bool(args.trace)
    outcomes = [run_one(n, args.seed, args.seconds, trace, import_s, spec) for n in names]
    last = outcomes[-1]
    if len(outcomes) > 1:
        # One summary line for the whole set: every gate must hold.
        from workloads import Gate

        total = Gate()
        for o in outcomes:
            total.record(o.workload, o.gate.attempted, o.gate.failed)
        last.gate = total
    print(json.dumps(result_line(last, spec, trace)))
    return 0 if last.gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
