"""Smoke-size self-test of the benchmark; runs in seconds.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced on one seed and untraced on a
  second, passes its correctness gate and emits every metric ``BENCHMARK.json`` declares,
  with its unit, plus the workload's own figures with unit and sample
  count;
* a deliberately corrupted output (one flipped finish time in the pool
  leg of ``expander-spread``, in a cached result of ``broker-cover``)
  trips the gate.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from run import import_program, load_spec, result_line, run_one

#: The end-to-end figures each workload must print by name.
FIGURES = {
    "expander-spread": {"cobra_runs_per_s", "bips_runs_per_s", "serial_s"},
    "broker-cover": {"job_s_p50", "cached_job_s_p50"},
    "suite-quick": {"suite_s"},
}
COMMON_FIGURES = {"setup_s", "peak_rss_mb"}


def flip_first_finish_time(result):
    times = result.finish_times.copy()
    times[0] += 1
    return replace(result, finish_times=times)


def main() -> int:
    spec = load_spec()
    import_s = import_program()
    problems = []

    for seed, traces in ((1, (False, True)), (2, (False,))):
        for name, figures in FIGURES.items():
            for trace in traces:
                label = f"{name} seed {seed} trace {int(trace)}"
                outcome = run_one(name, seed, 1, trace, import_s, spec, size="smoke")
                line = result_line(outcome, spec, trace)
                declared = spec["per_layer"] if trace else spec["end_to_end"]
                if not line["correct"] or line["failed"] or line["attempted"] < 1:
                    problems.append(f"{label}: gate failed {outcome.gate.failures}")
                for m in declared:
                    got = line["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                        problems.append(f"{label}: metric {m['name']} missing or malformed")
                source = outcome.layers if trace else outcome.e2e
                missing = {m["name"] for m in declared} - set(source)
                if trace:
                    # Per-layer metrics of layers a workload does not run read 0.
                    missing = set()
                if missing:
                    problems.append(f"{label}: not measured: {sorted(missing)}")
                for fig in figures | COMMON_FIGURES:
                    value = outcome.figures.get(fig)
                    if value is None or not value[1] or value[2] < 1:
                        problems.append(f"{label}: figure {fig} lacks value, unit or count")

    for name in ("expander-spread", "broker-cover"):
        outcome = run_one(
            name, 3, 1, False, import_s, spec, size="smoke", tamper=flip_first_finish_time
        )
        if outcome.gate.correct:
            problems.append(f"{name}: a flipped finish time passed the gate")

    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
