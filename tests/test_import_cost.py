"""Start-up cost guard: importing the program loads no scipy.

scipy (most of a cold ``import repro`` when loaded eagerly, and paid
again by every spawned broker worker) is imported inside the few
functions that use it: the KS test, the Student-t interval, the spectral solvers and the
sparse adjacency matrix.  This test runs in a fresh interpreter so that
modules other tests imported cannot hide a module-level import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
import repro.cli
import repro.distributed.worker
import repro.experiments.registry

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:10]

import numpy as np

from repro.graphs import hypercube_graph
from repro.graphs.spectral import second_eigenvalue
from repro.stats import ks_compare, mean_ci

res = ks_compare([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5])
assert 0.0 <= res.statistic <= 1.0 and 0.0 < res.p_value <= 1.0, res
est = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
assert est.lower < est.value == 2.5 < est.upper, est
# hypercube-10 (1024 vertices) takes the sparse eigsh path; lazy λ = 1 - 1/10.
lam = second_eigenvalue(hypercube_graph(10), lazy=True)
assert abs(lam - 0.9) < 1e-8, lam
assert "scipy.stats" in sys.modules and "scipy.sparse.linalg" in sys.modules
print("ok")
"""


def test_import_loads_no_scipy_and_first_use_still_works():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
