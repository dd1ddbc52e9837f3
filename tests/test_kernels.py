from __future__ import annotations

import numpy as np

from privebc import Graph, _kernels

from .conftest import random_graph


def _lookup(indptr, indices):
    """Plain set-lookup reference for both dense kernels."""
    nbr = [set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in range(indptr.size - 1)]

    def lookup(rows, cols):
        return np.array([[1 if v in nbr[u] else 0 for v in cols] for u in rows],
                        dtype=np.uint8).reshape(len(rows), len(cols))

    return nbr, lookup


def test_induced_dense_matches_direct_lookup():
    # both kernels against plain set lookups, on a graph with an isolated
    # node, and over empty, single-node and last-node-id selections
    g = random_graph(np.random.default_rng(4), 40, 0.2)
    lonely = g.index_of("17")
    g = Graph(g.labels, [(g.label_of(i), g.label_of(j)) for i, j in g.edges_iter()
                         if lonely not in (i, j)])
    indptr, indices = g.csr()
    nbr, lookup = _lookup(indptr, indices)
    assert not nbr[lonely]
    last = g.n - 1
    selections = [[], [lonely], [last], [0, last], [3, 7, 11, 20, 33],
                  [3, 7, 11, lonely, 20, 33, last], list(range(g.n))]

    for sel in selections:
        nodes = np.array(sorted(sel), dtype=np.int64)
        m = _kernels.induced_dense(indptr, indices, nodes)
        assert m.dtype == np.uint8
        assert np.array_equal(m, lookup(nodes.tolist(), nodes.tolist()))
    for rsel in selections:
        for csel in selections:
            rows = np.array(sorted(rsel), dtype=np.int64)
            cols = np.array(csel[::-1], dtype=np.int64)  # cols need not be sorted
            b = _kernels.bipartite_dense(indptr, indices, rows, cols)
            assert b.dtype == np.uint8
            assert np.array_equal(b, lookup(rows.tolist(), cols.tolist()))


def test_induced_dense_backends_agree():
    # the kernel agrees with the set-lookup reference on random selections
    indptr, indices = random_graph(np.random.default_rng(0), 40, 0.2).csr()
    _, lookup = _lookup(indptr, indices)
    rng = np.random.default_rng(1)
    for size in (0, 1, 5, 17, 40):
        nodes = np.sort(rng.choice(40, size=size, replace=False)).astype(np.int64)
        got = _kernels.induced_dense(indptr, indices, nodes)
        assert got.dtype == np.uint8
        assert np.array_equal(got, lookup(nodes.tolist(), nodes.tolist()))
        assert np.array_equal(got, got.T)  # undirected
        assert not got.diagonal().any()


def test_bipartite_dense_backends_agree():
    # the kernel agrees with the set-lookup reference on random disjoint blocks
    indptr, indices = random_graph(np.random.default_rng(2), 40, 0.2).csr()
    _, lookup = _lookup(indptr, indices)
    rng = np.random.default_rng(3)
    for nr, nc in ((0, 4), (3, 0), (6, 9), (15, 15)):
        pool = rng.permutation(40)
        rows = np.sort(pool[:nr]).astype(np.int64)
        cols = np.sort(pool[nr:nr + nc]).astype(np.int64)
        got = _kernels.bipartite_dense(indptr, indices, rows, cols)
        assert np.array_equal(got, lookup(rows.tolist(), cols.tolist()))
        assert got.shape == (nr, nc)


def test_locate_in_an_empty_array_finds_nothing():
    # no id lies in an empty node list, whatever the ids
    for ids in (np.array([3, 5]), np.array([0]), np.empty(0, dtype=np.int64)):
        hit, pos = _kernels._locate(np.empty(0, dtype=np.int64), ids)
        assert hit.dtype == bool and hit.shape == ids.shape and not hit.any()
        assert pos.size == 0
    hit, pos = _kernels._locate(np.array([2, 5, 9]), np.array([5, 3, 9, 10]))
    assert hit.tolist() == [True, False, True, False] and pos.tolist() == [1, 2]


def test_partial_shuffle_backends_agree():
    rng = np.random.default_rng(5)
    base = np.arange(100, dtype=np.int64)
    for k in (0, 1, 13, 100):
        offsets = rng.integers(0, np.arange(100, 100 - k, -1, dtype=np.int64)) if k else np.empty(0, dtype=np.int64)
        a = base.copy()
        _kernels.partial_shuffle(a, offsets.astype(np.int64))
        assert sorted(a.tolist()) == list(range(100))  # permutation
        ref = base.copy()  # the plain swap loop
        for s, r in enumerate(offsets.tolist()):
            ref[r], ref[99 - s] = ref[99 - s], ref[r]
        assert np.array_equal(a, ref)


def test_partial_shuffle_tail_holds_selection():
    # selecting k of n: the tail after the shuffle is the sample
    rng = np.random.default_rng(6)
    base = np.arange(10, dtype=np.int64)
    k = 4
    offsets = rng.integers(0, np.arange(10, 10 - k, -1, dtype=np.int64))
    arr = base.copy()
    _kernels.partial_shuffle(arr, offsets.astype(np.int64))
    tail = arr[10 - k:]
    assert len(set(tail.tolist())) == k

