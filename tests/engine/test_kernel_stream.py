"""Draw-stream identity of the COBRA and BIPS round kernels.

``CobraRule.step`` and ``BipsRule``'s batch step gather each vertex's
CSR row once and look draws up through ``Graph.neighbors_at``, instead
of repeating actors per draw and scanning the dense ``(R, n)`` mask in
2-D.  Their contract is the draw stream — which uniforms, how many, in
what order — not the code.  These tests pin it by comparing against
inline copies of the earlier kernels (per-draw ``np.repeat`` and
``np.nonzero`` / ``np.tile`` and ``take_along_axis``), built on the
allocating sampler of ``tests/graphs/test_sampling_scratch.py``: same
``Generator`` state in, same masks and same ``Generator`` state out.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.core.branching import BernoulliBranching, FixedBranching
from repro.dynamics import ChurnSequence
from repro.engine.rules import BipsRule, CobraRule
from repro.graphs import path_graph, random_regular_graph, star_graph, torus_graph
from repro.graphs.graph import Graph


def legacy_sample(graph, vertices, rng):
    vertices = np.asarray(vertices, dtype=np.int64)
    degs = graph.degrees[vertices]
    offsets = (rng.random(vertices.shape[0]) * degs).astype(np.int64)
    return graph.indices[graph.indptr[vertices] + offsets]


def legacy_select(graph, actors, rng, lazy):
    targets = legacy_sample(graph, actors, rng)
    if lazy:
        stay = rng.random(actors.shape[0]) < 0.5
        targets = np.where(stay, actors, targets)
    return targets


def legacy_cobra_step(policy, lazy, graph, state, alive, rng):
    work = state & alive[:, None]
    if graph.dmin == 0:
        can_move = graph.degrees > 0
        movers = work & can_move[None, :]
        stranded = work & ~can_move[None, :]
    else:
        movers, stranded = work, None
    rows, verts = np.nonzero(movers)
    counts = policy.draw_counts(verts.shape[0], rng)
    rows_rep = np.repeat(rows, counts)
    actors = np.repeat(verts, counts)
    targets = legacy_select(graph, actors, rng, lazy)
    nxt = np.zeros_like(state)
    nxt[rows_rep, targets] = True
    if stranded is not None:
        nxt |= stranded
    return nxt


def legacy_bips_batch(policy, source, lazy, graph, infected, rng):
    runs, n = infected.shape
    fixed_b = policy.fixed_selection_count()

    def select(actors):
        return legacy_select(graph, actors, rng, lazy)

    if graph.dmin >= 1:
        verts_tile = np.tile(np.arange(n, dtype=np.int64), runs)
        pick = select(verts_tile).reshape(runs, n)
        nxt = np.take_along_axis(infected, pick, axis=1)
        if fixed_b is not None:
            for _ in range(fixed_b - 1):
                pick = select(verts_tile).reshape(runs, n)
                nxt |= np.take_along_axis(infected, pick, axis=1)
        else:
            p2 = policy.second_selection_probability()
            if p2 > 0.0:
                pick = select(verts_tile).reshape(runs, n)
                second = rng.random((runs, n)) < p2
                nxt |= np.take_along_axis(infected, pick, axis=1) & second
    else:
        live = np.nonzero(graph.degrees > 0)[0]
        nxt = np.zeros_like(infected)
        if live.size:
            k = live.shape[0]
            live_tile = np.tile(live, runs)
            pick = select(live_tile).reshape(runs, k)
            nxt[:, live] = np.take_along_axis(infected, pick, axis=1)
            if fixed_b is not None:
                for _ in range(fixed_b - 1):
                    pick = select(live_tile).reshape(runs, k)
                    nxt[:, live] |= np.take_along_axis(infected, pick, axis=1)
            else:
                p2 = policy.second_selection_probability()
                if p2 > 0.0:
                    pick = select(live_tile).reshape(runs, k)
                    second = rng.random((runs, k)) < p2
                    sel = np.take_along_axis(infected, pick, axis=1) & second
                    nxt[:, live] |= sel
    nxt[:, source] = True
    return nxt


def legacy_bips_step(policy, source, lazy, graph, state, alive, rng):
    nxt = legacy_bips_batch(policy, source, lazy, graph, state, rng)
    return np.where(alive[:, None], nxt, state)


def _churned():
    base = random_regular_graph(40, 3, rng=np.random.default_rng(4))
    seq = ChurnSequence(base, 0.3, 0.2, seed=8)
    for t in range(1, 50):
        snap = seq.graph_at(t)
        if snap.dmin == 0 and snap.m > 0:
            return snap
    raise AssertionError("churn never produced a degree-zero vertex")


GRAPHS = {
    "regular": lambda: random_regular_graph(30, 4, rng=np.random.default_rng(1)),
    "torus": lambda: torus_graph((5, 6)),
    # rebuilt through _from_csr, as a pool worker receives it
    "pickled": lambda: pickle.loads(pickle.dumps(torus_graph((3, 4, 3)))),
    "star": lambda: star_graph(12),
    "path": lambda: path_graph(9),
    "churned": _churned,
}
POLICIES = {
    "b1": FixedBranching(1),
    "b2": FixedBranching(2),
    "b3": FixedBranching(3),
    "rho0.5": BernoulliBranching(0.5),
}
MATRIX = list(itertools.product(GRAPHS, POLICIES, [False, True], [1, 7]))


def _start(graph, runs, seed, density):
    """A random start mask and partially alive rows (row 0 stays alive)."""
    rng = np.random.default_rng(seed)
    state = rng.random((runs, graph.n)) < density
    alive = rng.random(runs) < 0.6
    alive[0] = True
    return state, alive


def _assert_lockstep(graph, new_step, old_step, runs, seed, density, rounds=6):
    state, alive = _start(graph, runs, seed, density)
    ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for t in range(rounds):
        expected = old_step(graph, state, alive, ref_rng)
        got = new_step(graph, state, alive, new_rng)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(expected, got), f"round {t}"
        assert ref_rng.bit_generator.state == new_rng.bit_generator.state, (
            f"round {t}: streams diverged"
        )
        state = got


@pytest.mark.parametrize("graph_name,policy_name,lazy,runs", MATRIX)
def test_cobra_step_matches_legacy_stream(graph_name, policy_name, lazy, runs):
    graph, policy = GRAPHS[graph_name](), POLICIES[policy_name]
    rule = CobraRule(policy, lazy=lazy)
    _assert_lockstep(
        graph,
        rule.step,
        lambda g, s, a, r: legacy_cobra_step(policy, lazy, g, s, a, r),
        runs,
        seed=11 + runs,
        density=0.3,
    )


@pytest.mark.parametrize("graph_name,policy_name,lazy,runs", MATRIX)
def test_bips_batch_step_matches_legacy_stream(graph_name, policy_name, lazy, runs):
    graph, policy = GRAPHS[graph_name](), POLICIES[policy_name]
    source = int(np.flatnonzero(graph.degrees > 0)[0])
    rule = BipsRule(policy, source, lazy=lazy)
    _assert_lockstep(
        graph,
        rule.step,
        lambda g, s, a, r: legacy_bips_step(policy, source, lazy, g, s, a, r),
        runs,
        seed=23 + runs,
        density=0.4,
    )


@pytest.mark.parametrize("policy_name", list(POLICIES))
def test_edgeless_graph_matches_legacy_stream(policy_name):
    """Every vertex isolated: COBRA holds, BIPS keeps only the source."""
    graph, policy = Graph(5, []), POLICIES[policy_name]
    for new_step, old_step in [
        (
            CobraRule(policy).step,
            lambda g, s, a, r: legacy_cobra_step(policy, False, g, s, a, r),
        ),
        (
            BipsRule(policy, 0).step,
            lambda g, s, a, r: legacy_bips_step(policy, 0, False, g, s, a, r),
        ),
    ]:
        _assert_lockstep(graph, new_step, old_step, 3, seed=2, density=0.5)


def test_neighbors_at_matches_legacy_sample():
    graph = star_graph(40)  # hub degree 39, leaves degree 1
    verts = np.random.default_rng(0).integers(0, graph.n, size=500)
    u = np.random.default_rng(1).random(500)
    expected = legacy_sample(graph, verts, np.random.default_rng(1))
    assert np.array_equal(graph.neighbors_at(verts, u), expected)


def test_neighbors_at_broadcasts_vertices_over_runs():
    graph = random_regular_graph(64, 5, rng=np.random.default_rng(2))
    live = np.arange(graph.n, dtype=np.int64)
    u = np.random.default_rng(3).random((4, graph.n))
    got = graph.neighbors_at(live, u)
    expected = legacy_sample(
        graph, np.tile(live, 4), np.random.default_rng(3)
    ).reshape(4, graph.n)
    assert np.array_equal(got, expected)
    for r in range(4):
        assert all(graph.has_edge(v, int(w)) for v, w in zip(live, got[r]))


def test_neighbors_at_isolated_vertex_raises():
    graph = Graph(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(ValueError, match="isolated"):
        graph.neighbors_at(np.array([0, 2]), np.array([0.1, 0.2]))
