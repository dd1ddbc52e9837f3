from __future__ import annotations

import mpmath
import numpy as np
import pytest

from privebc import Graph, PartitionedGraph
from privebc.graphs import _ego_sums


def make_pg(edges, x_labels, isolated=()):
    """Partitioned graph from an edge list and an explicit X label set."""
    g = Graph.from_edges(edges, isolated=isolated)
    mask = np.array([lab in set(x_labels) for lab in g.labels])
    return PartitionedGraph(g, mask)


def noiseless_cores(pg, r_sorted, y_ego):
    """Y's noiseless reply to R: the |R| x d_Y 2-path counts, as floats,
    and the partial sum, from the ego-sum core the session's reply uses."""
    m1, yr, s_y = _ego_sums(pg.graph, y_ego, r_sorted)
    return yr.T @ m1, s_y


def p_scaled_floor(t: float, bits: int) -> int:
    """floor(p * 2^bits) for the set release's flip probability p =
    1/(1 + e^t), from a plain mpmath value at 400 bits beyond `bits`."""
    with mpmath.workprec(bits + 400):
        return int(mpmath.floor(mpmath.mpf(2) ** bits / (1 + mpmath.exp(mpmath.mpf(t)))))


def random_graph(rng, n, p):
    """Erdos-Renyi graph with string labels 0..n-1; may be disconnected."""
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph([str(i) for i in range(n)], edges)


def random_partition(rng, g, x_fraction=0.5):
    mask = rng.random(g.n) < x_fraction
    return PartitionedGraph(g, mask)


@pytest.fixture
def mixed_pg():
    """7-node graph where ego 'a' has both X and Y neighbours and the
    backward stage actually runs (|N_a intersect V_Y| = 3)."""
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"),
             ("c", "d"), ("d", "f"), ("e", "f"), ("f", "g"), ("b", "g")]
    return make_pg(edges, x_labels={"a", "e", "f", "g"})
