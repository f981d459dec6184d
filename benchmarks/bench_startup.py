"""Start-up cost: cold imports, peak RSS after import, graph build time.

Every short sampler job, CLI command and spawned broker worker starts
cold, so what it pays before its first round matters as much as the
rounds themselves.  This bench times, each in a fresh interpreter:

* ``import repro`` and ``import repro.distributed.worker`` (the import
  a spawned broker worker does) — median and quartiles over several
  runs, plus the median peak RSS of the process right after the import;
* ``random_regular_graph(n, 4, rng=1)`` at ``n = 16384`` (the
  ``expander-spread`` topology) and ``n = 200000`` (the
  ``broker-cover`` one), after a warm-up build in the same process.

One untimed import runs first so that byte-code compilation is not
counted.  ``--src`` points the children at another source tree (for
example a checkout of the previous commit) and ``--label`` names that
tree in the entry's ``meta``, so a before/after pair lands as two
entries that ``repro bench compare`` pairs row by row.  Every
invocation appends its rows to ``BENCH_startup.json`` at the repo root
via :mod:`benchmarks.record`.

Run with::

    PYTHONPATH=src python benchmarks/bench_startup.py            # full
    PYTHONPATH=src python benchmarks/bench_startup.py --smoke    # seconds
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from record import REPO_ROOT, machine_context, record_bench

MODULES = ("repro", "repro.distributed.worker")
GRAPH_SIZES = (16384, 200000)
DEGREE = 4

IMPORT_SCRIPT = """
import json, resource, sys, time
t0 = time.perf_counter()
import {module}
seconds = time.perf_counter() - t0
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump({{"seconds": seconds, "rss_kb": rss_kb}}, sys.stdout)
"""

BUILD_SCRIPT = """
import json, sys, time
from repro.graphs import random_regular_graph
random_regular_graph(64, {degree}, rng=2)
times = []
for _ in range({runs}):
    t0 = time.perf_counter()
    random_regular_graph({n}, {degree}, rng=1)
    times.append(time.perf_counter() - t0)
json.dump(times, sys.stdout)
"""


def run_child(script: str, src: Path) -> object:
    """Run ``script`` in a fresh interpreter on ``src``; its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(proc.stdout)


def quartiles(values) -> dict:
    """Median and quartiles, in the row's measured columns."""
    q1, med, q3 = np.quantile(np.asarray(values, dtype=np.float64), [0.25, 0.5, 0.75])
    return {
        "seconds": round(float(med), 4),
        "seconds_q1": round(float(q1), 4),
        "seconds_q3": round(float(q3), 4),
    }


def measure(src: Path, *, import_runs: int, build_runs: int, sizes) -> list[dict]:
    """All rows: one per module import, one per graph size."""
    cpus = machine_context()["cpus"]
    rows = []
    for module in MODULES:
        script = IMPORT_SCRIPT.format(module=module)
        run_child(script, src)  # byte-code compile, page cache
        samples = [run_child(script, src) for _ in range(import_runs)]
        rows.append(
            {
                "measure": "import",
                "module": module,
                "runs": import_runs,
                **quartiles([s["seconds"] for s in samples]),
                "peak_rss_mb": round(
                    float(np.median([s["rss_kb"] for s in samples])) / 1024.0, 1
                ),
                "cpus": cpus,
            }
        )
    for n in sizes:
        script = BUILD_SCRIPT.format(n=n, degree=DEGREE, runs=build_runs)
        rows.append(
            {
                "measure": "random_regular_graph",
                "n": n,
                "degree": DEGREE,
                "runs": build_runs,
                **quartiles(run_child(script, src)),
                "cpus": cpus,
            }
        )
    return rows


def main(argv=None) -> int:
    """Measure, print the table, and append to BENCH_startup.json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=REPO_ROOT / "src",
        help="source tree the children import (default: this checkout's src)",
    )
    parser.add_argument(
        "--label", default="", help="name of the source tree, kept in the entry's meta"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="3 runs per import and the n=16384 build only, for CI smoke runs",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        import_runs, build_runs, sizes = 3, 3, GRAPH_SIZES[:1]
    else:
        import_runs, build_runs, sizes = 9, 5, GRAPH_SIZES

    rows = measure(
        args.src.resolve(), import_runs=import_runs, build_runs=build_runs, sizes=sizes
    )
    ctx = machine_context()
    print(f"start-up cost ({ctx['cpus']} CPUs, python {ctx['python']})")
    header = f"{'what':34} {'runs':>5} {'median s':>9} {'q1 s':>8} {'q3 s':>8} {'rss MB':>7}"
    print(header)
    print("-" * len(header))
    for row in rows:
        what = (
            f"import {row['module']}"
            if row["measure"] == "import"
            else f"random_regular_graph({row['n']}, {row['degree']})"
        )
        rss = f"{row['peak_rss_mb']:>7.1f}" if "peak_rss_mb" in row else f"{'':>7}"
        print(
            f"{what:34} {row['runs']:>5} {row['seconds']:>9.4f} "
            f"{row['seconds_q1']:>8.4f} {row['seconds_q3']:>8.4f} {rss}"
        )
    path = record_bench(
        "startup", rows, meta={"smoke": bool(args.smoke), "label": args.label}
    )
    print(f"recorded -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
