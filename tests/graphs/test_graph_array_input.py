"""``Graph(n, edges)`` with an ``(m, 2)`` ndarray: same graph as the list form.

The array path skips the round trip through Python tuples; these tests
hold it to the list path's output (CSR arrays, degrees, edge count and
wire digest) and to its errors, and pin the CSR of the topologies the
benchmark and the experiments build, so the samples drawn on them do
not move.
"""

import hashlib

import numpy as np
import pytest

from repro.distributed.wire import graph_digest
from repro.graphs import Graph, erdos_renyi_graph, random_regular_graph


def assert_same_graph(a: Graph, b: Graph) -> None:
    assert a.m == b.m
    for name in ("indptr", "indices", "degrees"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == np.int64
        np.testing.assert_array_equal(x, y)
    assert graph_digest(a) == graph_digest(b)


def csr_sha256(g: Graph) -> str:
    h = hashlib.sha256()
    h.update(g.indptr.tobytes())
    h.update(g.indices.tobytes())
    return h.hexdigest()


PAIRS = [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2), (4, 0), (1, 4), (2, 1)]


class TestArrayMatchesList:
    def test_duplicates_and_reversed_pairs(self):
        assert_same_graph(Graph(5, np.array(PAIRS)), Graph(5, PAIRS))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.int16])
    def test_integer_dtypes(self, dtype):
        assert_same_graph(Graph(5, np.array(PAIRS, dtype=dtype)), Graph(5, PAIRS))

    def test_empty_array(self):
        g = Graph(4, np.empty((0, 2), dtype=np.int64))
        assert_same_graph(g, Graph(4, []))
        assert g.m == 0 and g.dmax == 0

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 300, size=(2000, 2))
        arr = arr[arr[:, 0] != arr[:, 1]]
        g = Graph(300, arr)
        assert_same_graph(g, Graph(300, [tuple(r) for r in arr.tolist()]))
        # The CSR order of the two-key lexsort the single argsort replaced.
        lo, hi = np.unique(np.sort(arr, axis=1), axis=0).T
        src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        np.testing.assert_array_equal(g.indices, dst[np.lexsort((dst, src))])

    def test_array_not_modified(self):
        arr = np.array(PAIRS)
        before = arr.copy()
        Graph(5, arr)
        np.testing.assert_array_equal(arr, before)


class TestArrayErrors:
    @pytest.mark.parametrize(
        "pairs, match",
        [
            ([(0, 1), (2, 2)], "self-loop"),
            ([(0, 1), (1, 5)], "out of range"),
            ([(-1, 1)], "out of range"),
            ([(0, 1, 2), (1, 2, 3)], "pairs"),
        ],
    )
    def test_same_error_as_list(self, pairs, match):
        with pytest.raises(ValueError, match=match) as from_list:
            Graph(5, pairs)
        with pytest.raises(ValueError, match=match) as from_array:
            Graph(5, np.array(pairs))
        assert str(from_array.value) == str(from_list.value)

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(5, np.array([0, 1]))


class TestCsrPins:
    # Recorded with the tuple-list build, before the array path existed.
    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: random_regular_graph(16384, 4, rng=1),
                "f92f279b3ea9dcd646b58b7ef31cbeedcf7a9c7617103a0268471266cae9dfea",
            ),
            (
                lambda: random_regular_graph(200000, 4, rng=1),
                "e428dcb94adf0fdf44ecb7f5b460c34ce731ff90b344bc7f4e21c14b8329fa46",
            ),
            (
                lambda: erdos_renyi_graph(256, rng=2),
                "655ae3ab1402f27206395208a0a66ec511699fe99979a178e07fcadb5fe795f6",
            ),
        ],
        ids=["rreg-4-16384", "rreg-4-200000", "gnp-256"],
    )
    def test_generator_csr_pinned(self, build, digest):
        assert csr_sha256(build()) == digest
