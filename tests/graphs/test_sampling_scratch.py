"""Scratch-buffer hot path: bit-identity of the reusable-buffer rewrite.

``Graph.sample_neighbors`` and ``_ragged_arange`` now run on grow-only
module-level scratch instead of per-call allocations.  These tests pin
the numpy facts the rewrite rests on — ``Generator.random(out=buf)``
consumes the stream exactly like ``random(k)``, and a float64 product
cast to an int64 ``out=`` truncates exactly like ``astype`` — by
comparing against inline re-implementations of the old allocating
code, across interleaved call sizes so buffer reuse (shrinking views
over a dirty buffer) is genuinely exercised.

The lookup takes one of two paths, chosen from the graph's own degree
sequence: d-regular graphs (d >= 1) compute the row offset as
``v * d``, every other graph gathers ``indptr`` and ``degrees``.  Both
must equal the legacy formula on every family below.
"""

import pickle

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    hypercube_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.graph import _ragged_arange


def legacy_sample(graph, vertices, rng):
    """The pre-scratch implementation, verbatim."""
    vertices = np.asarray(vertices, dtype=np.int64)
    degs = graph.degrees[vertices]
    offsets = (rng.random(vertices.shape[0]) * degs).astype(np.int64)
    return graph.indices[graph.indptr[vertices] + offsets]


def legacy_lookup(graph, vertices, u):
    """The legacy CSR pick for caller-supplied uniforms."""
    degs = graph.degrees[vertices]
    return graph.indices[graph.indptr[vertices] + (u * degs).astype(np.int64)]


def legacy_ragged(counts):
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(starts, counts)
    return out


def test_sample_neighbors_bit_identical_across_interleaved_sizes():
    graph = random_regular_graph(256, 6, rng=np.random.default_rng(0))
    ref_rng, new_rng = np.random.default_rng(77), np.random.default_rng(77)
    sizes = [300, 1, 0, 512, 17, 512, 3, 100]  # grow, shrink, regrow
    for i, k in enumerate(sizes):
        verts = np.random.default_rng(i).integers(0, graph.n, size=k)
        expected = legacy_sample(graph, verts, ref_rng)
        got = graph.sample_neighbors(verts, new_rng)
        assert np.array_equal(expected, got), f"call {i} (k={k})"
    # the streams advanced in lockstep: same draws were consumed
    assert ref_rng.bit_generator.state == new_rng.bit_generator.state


def test_sample_neighbors_ragged_degrees():
    graph = star_graph(40)  # hub degree 39, leaves degree 1
    ref_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    verts = np.array([0, 1, 0, 39, 0], dtype=np.int64)
    for _ in range(20):
        assert np.array_equal(
            legacy_sample(graph, verts, ref_rng),
            graph.sample_neighbors(verts, new_rng),
        )


def test_sample_neighbors_results_survive_next_call():
    """Returned arrays are owned copies, not views of the scratch."""
    graph = random_regular_graph(64, 4, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    verts = np.arange(30, dtype=np.int64)
    first = graph.sample_neighbors(verts, rng)
    snapshot = first.copy()
    graph.sample_neighbors(verts, rng)  # would clobber a view
    assert np.array_equal(first, snapshot)


def test_sample_neighbors_isolated_vertex_still_raises():
    """The guard fires before any draw: the stream must not advance."""
    from repro.graphs.graph import Graph

    g = Graph(3, [(0, 1)])  # vertex 2 isolated
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    with pytest.raises(ValueError, match="isolated"):
        g.sample_neighbors(np.array([2]), rng)
    assert rng.bit_generator.state == state_before


def test_ragged_arange_bit_identical():
    for trial in range(25):
        counts = np.random.default_rng(trial).integers(0, 9, size=120)
        assert np.array_equal(legacy_ragged(counts), _ragged_arange(counts))


def test_ragged_arange_zero_total():
    assert _ragged_arange(np.zeros(7, dtype=np.int64)).size == 0


def test_ragged_arange_output_is_mutable_copy():
    counts = np.array([4, 2, 5], dtype=np.int64)
    out = _ragged_arange(counts)
    out += 1  # must not poison the cached template
    again = _ragged_arange(counts)
    assert np.array_equal(again, legacy_ragged(counts))


# -- the lookup contract on both sides of the stride selection ----------
REGULAR = {
    "cycle": lambda: cycle_graph(17),
    "torus": lambda: torus_graph((4, 5)),
    "hypercube": lambda: hypercube_graph(5),
    "complete": lambda: complete_graph(9),
    "random-regular": lambda: random_regular_graph(64, 5, rng=3),
}
IRREGULAR = {
    "path": lambda: path_graph(12),
    "star": lambda: star_graph(15),
    "barbell": lambda: barbell_graph(5),
    # connected=False keeps the isolated vertices of this seed
    "er-isolated": lambda: erdos_renyi_graph(40, 0.06, rng=7, connected=False),
}
FAMILIES = {**REGULAR, **IRREGULAR}


def _movers(graph):
    """The degree-positive vertices (every vertex on a regular graph)."""
    return np.flatnonzero(graph.degrees > 0)


def test_stride_selection_follows_degree_sequence():
    for name, build in REGULAR.items():
        g = build()
        assert g.dmin == g.dmax >= 1 and g._stride == g.dmax, name
    for name, build in IRREGULAR.items():
        g = build()
        assert g.dmin < g.dmax and g._stride == 0, name
    assert IRREGULAR["er-isolated"]().dmin == 0


@pytest.mark.parametrize("family", list(FAMILIES))
def test_neighbors_at_matches_legacy_formula(family):
    graph = FAMILIES[family]()
    movers = _movers(graph)
    rng = np.random.default_rng(31)
    verts = rng.choice(movers, size=500)
    u = rng.random(500)
    assert np.array_equal(
        graph.neighbors_at(verts, u), legacy_lookup(graph, verts, u)
    )
    # a strided column view of a draw block, as COBRA passes it
    block = rng.random(3 * movers.shape[0])
    for j in range(3):
        assert np.array_equal(
            graph.neighbors_at(movers, block[j::3]),
            legacy_lookup(graph, movers, block[j::3]),
        )


@pytest.mark.parametrize("family", list(FAMILIES))
def test_neighbors_at_broadcasts_a_run_block(family):
    """An ``(R, k)`` uniform block against ``k`` vertices, as BIPS does."""
    graph = FAMILIES[family]()
    movers = _movers(graph)
    u = np.random.default_rng(4).random((6, movers.shape[0]))
    got = graph.neighbors_at(movers, u)
    assert got.shape == u.shape
    expected = np.stack([legacy_lookup(graph, movers, row) for row in u])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_sample_neighbors_lockstep_with_legacy(family):
    graph = FAMILIES[family]()
    movers = _movers(graph)
    ref_rng, new_rng = np.random.default_rng(8), np.random.default_rng(8)
    for k in (200, 3, 0, 257):
        verts = np.random.default_rng(k).choice(movers, size=k)
        assert np.array_equal(
            legacy_sample(graph, verts, ref_rng),
            graph.sample_neighbors(verts, new_rng),
        )
    assert ref_rng.bit_generator.state == new_rng.bit_generator.state


@pytest.mark.parametrize("family", list(FAMILIES))
def test_largest_uniform_picks_last_neighbour(family):
    graph = FAMILIES[family]()
    movers = _movers(graph)
    u = np.full(movers.shape[0], np.nextafter(1.0, 0.0))
    last = graph.indices[graph.indptr[movers + 1] - 1]
    assert np.array_equal(graph.neighbors_at(movers, u), last)
    first = graph.indices[graph.indptr[movers]]
    assert np.array_equal(graph.neighbors_at(movers, np.zeros_like(u)), first)


@pytest.mark.parametrize(
    "graph,vertex",
    [
        (Graph(4, []), 1),  # edgeless: 0-regular, so no stride
        (erdos_renyi_graph(40, 0.06, rng=7, connected=False), None),
    ],
    ids=["edgeless", "er-isolated"],
)
def test_isolated_vertex_refused_before_any_draw(graph, vertex):
    assert graph._stride == 0
    if vertex is None:
        vertex = int(np.flatnonzero(graph.degrees == 0)[0])
    verts = np.array([vertex], dtype=np.int64)
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    with pytest.raises(ValueError, match="isolated"):
        graph.sample_neighbors(verts, rng)
    assert rng.bit_generator.state == state_before
    with pytest.raises(ValueError, match="isolated"):
        graph.neighbors_at(verts, np.array([0.5]))


def _degree_facts(graph):
    return graph.dmin, graph.dmax, graph._stride, graph.is_regular()


@pytest.mark.parametrize("family", ["torus", "random-regular", "star", "er-isolated"])
def test_degree_facts_survive_pickle_and_shared_memory(family):
    graph = FAMILIES[family]()
    facts = _degree_facts(graph)
    assert _degree_facts(pickle.loads(pickle.dumps(graph))) == facts
    with graph.to_shared() as handle:
        clone = pickle.loads(pickle.dumps(handle))  # as a pool worker gets it
        attached = Graph.from_shared(clone)
        assert _degree_facts(attached) == facts
        movers = _movers(graph)
        u = np.random.default_rng(2).random(movers.shape[0])
        assert np.array_equal(
            attached.neighbors_at(movers, u), graph.neighbors_at(movers, u)
        )
        clone.close()


@pytest.mark.parametrize("family", ["torus", "star"])
def test_degree_facts_survive_the_wire(family, monkeypatch):
    """A worker rebuilds the graph from its blob with the same facts."""
    from repro.core.branching import make_policy
    from repro.distributed import wire
    from repro.engine import CobraRule
    from repro.engine.completion import AllVertices
    from repro.parallel import ShardTask

    graph = FAMILIES[family]()
    state = np.zeros((2, graph.n), dtype=bool)
    state[:, 0] = True
    task = ShardTask(
        rule=CobraRule(make_policy(2)),
        topology=graph,
        completion=AllVertices(),
        state=state,
        seed=np.random.SeedSequence(5),
    )
    obj = wire.encode_task(task)
    (digest,) = wire.task_digests(obj)
    worker_store = wire.TopologyStore()
    worker_store.install(digest, wire.TOPOLOGIES.blob(digest))
    monkeypatch.setattr(wire, "TOPOLOGIES", worker_store)
    decoded = wire.decode_task(obj).topology
    assert decoded is not graph and decoded == graph
    assert _degree_facts(decoded) == _degree_facts(graph)
