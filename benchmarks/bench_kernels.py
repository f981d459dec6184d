"""Kernel-backend throughput: per-round seconds, numpy vs compiled.

Times one engine round (wall seconds / rounds executed) for each rule
that has a compiled twin in :mod:`repro.kernels`, at n ∈ {10^4, 10^5}:

* **COBRA** and batch **BIPS** — numpy vs the fused ``numba`` CSR
  kernels (bit-identical, so the comparison is pure wall-clock);
* **push** — numpy vs the word-packed ``bitplane`` rule
  (distribution-equivalent: same per-run law, 64 runs per draw).

Each cell runs on two graphs at the same n, one per side of the CSR
lookup's path selection: the random 8-regular expander (the stride
lookup) and a fixed-seed irregular graph with mean degree about 8 and
no isolated vertex (the ``indptr``/``degrees`` gathers).  Irregular
rows carry ``"graph": "irregular"``; the regular rows keep the columns
they always had, so ``repro bench compare`` still pairs them with the
earlier entries.

Every invocation appends its rows to ``BENCH_kernels.json`` at the
repo root via :mod:`benchmarks.record`.  The pytest gate asserts the
≥ 10× per-round win of the numba kernel over numpy for COBRA at
n = 10^5 — on machines that actually have numba (it auto-skips on the
numpy-only container, mirroring the sharding gate's CPU guard);
backends that are unavailable are skipped with a note, never recorded
as fake rows.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # seconds
    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -v
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

import numpy as np
import pytest
from record import machine_context, record_bench

from repro.core.branching import make_policy
from repro.engine import BipsRule, CobraRule, PushRule, SpreadEngine
from repro.graphs import Graph, random_regular_graph
from repro.kernels import backend_available
from repro.telemetry.compare import KERNEL_GATE_N, KERNEL_SPEEDUP_FLOOR

SIZES = (10_000, 100_000)
RUNS = 32
DEGREE = 8
SEED = 20170724
MAX_ROUNDS = 12
# The gate itself lives in repro.telemetry.compare (evaluate_gates), so
# the bench script, `repro bench compare`, and CI share one floor.
SPEEDUP_FLOOR = KERNEL_SPEEDUP_FLOOR
GATE_N = KERNEL_GATE_N

#: rule key -> (rule factory, compiled backend to compare against numpy)
CELLS = {
    "cobra": (lambda: CobraRule(make_policy(2)), "numba"),
    "bips": (lambda: BipsRule(make_policy(2), 0), "numba"),
    "push": (lambda: PushRule(), "bitplane"),
}


def irregular_graph(n: int) -> Graph:
    """A random 4-regular graph plus ``2n`` uniform random chords.

    Degrees are 4 plus about Poisson(4): mean about 8, minimum 4, so
    every vertex can move but the graph is not regular.
    """
    chords = np.random.default_rng(SEED).integers(0, n, size=(2 * n, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    base = random_regular_graph(n, DEGREE // 2, rng=1).edge_array()
    return Graph(n, np.concatenate([base, chords]), name=f"irregular-{n}")


#: graph kind -> (builder, extra row columns); regular rows add none
GRAPHS = {
    "regular": (lambda n: random_regular_graph(n, DEGREE, rng=1), {}),
    "irregular": (irregular_graph, {"graph": "irregular"}),
}


def build_cell(rule_key: str, n: int, runs: int = RUNS, graph_kind="regular"):
    """The cell's graph, the rule's engine, and one-hot starts."""
    graph = GRAPHS[graph_kind][0](n)
    engine = SpreadEngine(CELLS[rule_key][0](), graph)
    state = np.zeros((runs, n), dtype=bool)
    state[:, 0] = True
    return engine, state


def time_backend(
    engine, state, backend: str, *, max_rounds: int = MAX_ROUNDS
) -> tuple[float, int]:
    """Seconds per executed round for one backend (fresh rng per call).

    The round cap keeps the cell in the growth phase where the kernels
    do real work; both backends run the identical cap, so the ratio is
    a fair per-round comparison even when neither reaches completion.
    """
    t0 = time.perf_counter()
    res = engine.run(
        state, np.random.default_rng(SEED), max_rounds=max_rounds, backend=backend
    )
    seconds = time.perf_counter() - t0
    rounds = max(1, int(res.rounds_run))
    return seconds / rounds, rounds


def measure(
    sizes=SIZES, runs: int = RUNS, max_rounds: int = MAX_ROUNDS
) -> tuple[list[dict], list[str]]:
    """Time every rule × size × available backend; one row per cell.

    Returns ``(rows, skipped)`` where ``skipped`` names the backends
    that were unavailable (so callers can print the caveat instead of
    silently shrinking the grid).  Compiled backends get one untimed
    warm-up call per cell before the clock starts, so numba's JIT
    compilation is never billed to the per-round figure.
    """
    rows: list[dict] = []
    skipped: list[str] = []
    for (rule_key, (_, compiled)), (kind, (_, extra)) in itertools.product(
        CELLS.items(), GRAPHS.items()
    ):
        compiled_ok = backend_available(compiled)
        if not compiled_ok and compiled not in skipped:
            skipped.append(compiled)
        for n in sizes:
            engine, state = build_cell(rule_key, n, runs, kind)
            base_spr, base_rounds = time_backend(
                engine, state, "numpy", max_rounds=max_rounds
            )
            rows.append(
                {
                    "rule": rule_key,
                    "backend": "numpy",
                    "n": n,
                    "runs": runs,
                    "rounds": base_rounds,
                    "seconds_per_round": round(base_spr, 6),
                    "speedup_vs_numpy": 1.0,
                    **extra,
                }
            )
            if not compiled_ok:
                continue
            # Warm-up: compile (numba) / allocate (bitplane) off the clock.
            time_backend(engine, state, compiled, max_rounds=2)
            spr, rounds = time_backend(
                engine, state, compiled, max_rounds=max_rounds
            )
            rows.append(
                {
                    "rule": rule_key,
                    "backend": compiled,
                    "n": n,
                    "runs": runs,
                    "rounds": rounds,
                    "seconds_per_round": round(spr, 6),
                    "speedup_vs_numpy": round(base_spr / spr, 3),
                    **extra,
                }
            )
    return rows, skipped


def gate_speedup(rows: list[dict], rule: str, backend: str, n: int) -> float:
    """The recorded speedup for one (rule, backend, n) cell."""
    for row in rows:
        if row["rule"] == rule and row["backend"] == backend and row["n"] == n:
            return row["speedup_vs_numpy"]
    raise KeyError(f"no recorded row for {rule}/{backend} at n={n}")


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_backend_rows_cover_numpy_baseline():
    """Cheap shape gate: every cell records a numpy baseline row."""
    rows, _ = measure(sizes=(2048,), runs=8, max_rounds=4)
    numpy_cells = {
        (r["rule"], r.get("graph", "regular")) for r in rows if r["backend"] == "numpy"
    }
    assert numpy_cells == set(itertools.product(CELLS, GRAPHS))


def test_irregular_graph_takes_the_general_lookup():
    graph = irregular_graph(2048)
    assert graph.dmin >= 1 and not graph.is_regular()
    assert 7.5 < 2 * graph.m / graph.n < 8.5


@pytest.mark.skipif(
    not backend_available("numba"),
    reason="compiled-kernel gate needs numba installed",
)
def test_kernel_speedup_gate():
    """Acceptance gate: >= 10x per-round for COBRA under numba at n=1e5.

    Recorded first, then asserted through the comparator's
    ``evaluate_gates`` — the same code path ``repro bench compare``
    runs on every committed entry.
    """
    from repro.telemetry import evaluate_gates, load_bench

    rows, _ = measure(sizes=(GATE_N,))
    path = record_bench(
        "kernels", rows, meta={"gate": f">={SPEEDUP_FLOOR}x", "seed": SEED}
    )
    gates = evaluate_gates(load_bench(path))
    assert gates, "kernel gate did not evaluate on the recorded entry"
    failed = [g for g in gates if g.regressed]
    assert not failed, f"kernel gate failed: {failed}; rows: {rows}"


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure, print the table, and append to BENCH_kernels.json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(SIZES),
        help="graph sizes to time (default: 10000 100000)",
    )
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid (n=4096, R=8, 4 rounds) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    sizes, runs, max_rounds = (
        ((4096,), 8, 4) if args.smoke else (tuple(args.sizes), args.runs, MAX_ROUNDS)
    )

    rows, skipped = measure(sizes, runs, max_rounds)
    ctx = machine_context()
    print(
        f"kernel backends on rreg-{DEGREE}-n and irregular-n, R={runs}, "
        f"{max_rounds}-round cells ({ctx['cpus']} CPUs)"
    )
    header = (
        f"{'graph':9} {'rule':7} {'backend':9} {'n':>7} "
        f"{'s/round':>10} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row.get('graph', 'regular'):9} "
            f"{row['rule']:7} {row['backend']:9} {row['n']:>7} "
            f"{row['seconds_per_round']:>10.6f} "
            f"{row['speedup_vs_numpy']:>7.2f}x"
        )
    path = record_bench(
        "kernels",
        rows,
        meta={
            "smoke": bool(args.smoke),
            "seed": SEED,
            "gate": f">={SPEEDUP_FLOOR}x cobra/numba at n>={GATE_N}",
            "skipped_backends": skipped,
        },
    )
    print(f"recorded -> {path}")
    if skipped:
        print(
            f"note: backend(s) {skipped} unavailable here — their rows "
            f"were skipped and the >= {SPEEDUP_FLOOR:g}x gate does not run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
