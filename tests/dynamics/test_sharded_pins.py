"""Golden pins for the sharded dynamic samplers.

``dynamic_cover_time_batch`` / ``dynamic_infection_time_batch`` with
``workers`` set run through :func:`repro.parallel.run_sharded`, which
realises one sequence per shard from the topology half of the shard's
spawned seed.  These digests were recorded from the earlier, separate
dynamic shard loop and pin that the shared pipeline reproduces it bit
for bit: for a factory, a shared ``GraphSequence`` and an adversarial
factory, under an int seed and under a ``SeedSequence`` object (whose
probe realisation spawns from the master before the shards do).

300 runs on a 16-vertex graph plan two shards (256 + 44), so the
per-shard seeding is exercised, not just a single block.
"""

import hashlib

import numpy as np
import pytest

from repro.adversary import AdversarialSequence, make_adversary
from repro.dynamics import (
    RewiringSequence,
    dynamic_cover_time_batch,
    dynamic_infection_time_batch,
)
from repro.graphs import random_regular_graph

RUNS = 300

#: (sampler, topology, seed kind) -> (sha256 prefix of the int64
#: finish times, their sum).
PINS = {
    ("cover", "factory", "int"): ("aea0039635040427", 2094),
    ("cover", "factory", "seedseq"): ("6f364dc686ad6e34", 2115),
    ("cover", "shared", "int"): ("fecd0f37ce914bdb", 2100),
    ("cover", "shared", "seedseq"): ("f5c046b78e681a16", 2070),
    ("cover", "adversarial", "int"): ("3443252f3da5d09a", 2243),
    ("cover", "adversarial", "seedseq"): ("e0a8ba50dc9d5cbc", 2372),
    ("infection", "factory", "int"): ("04dba2f383259282", 2073),
    ("infection", "factory", "seedseq"): ("a9bc805f337de780", 2109),
    ("infection", "shared", "int"): ("40ed1a66ca35aa84", 2004),
    ("infection", "shared", "seedseq"): ("acea953b398e2f05", 2016),
    ("infection", "adversarial", "int"): ("088228cab723f1c6", 2220),
    ("infection", "adversarial", "seedseq"): ("6dbc13f456421ce2", 2392),
}

SAMPLERS = {
    "cover": dynamic_cover_time_batch,
    "infection": dynamic_infection_time_batch,
}


def _topology(kind):
    base = random_regular_graph(16, 4, rng=5)
    if kind == "factory":
        return lambda seed: RewiringSequence(base, 2, seed=seed)
    if kind == "shared":
        return RewiringSequence(base, 2, seed=41)
    return lambda seed: AdversarialSequence(
        base, make_adversary("greedy-cut", 2), seed, swaps_per_round=1
    )


def _seed(kind):
    return 9 if kind == "int" else np.random.SeedSequence(2024)


def _fingerprint(times):
    digest = hashlib.sha256(
        np.ascontiguousarray(times, dtype=np.int64).tobytes()
    ).hexdigest()
    return digest[:16], int(times.sum())


@pytest.mark.parametrize("key", sorted(PINS), ids="-".join)
def test_sharded_dynamic_samples_pinned(key):
    sampler, topology, seed = key
    times = SAMPLERS[sampler](_topology(topology), RUNS, seed=_seed(seed), workers=1)
    assert times.shape == (RUNS,)
    assert _fingerprint(times) == PINS[key]
