"""Hot array kernels in numpy: dense blocks of a CSR adjacency and a
partial shuffle.

The dense-block kernel is loop-free. None of the kernels consume
randomness: the caller draws the shuffle offsets, so the kernels never
touch a seeded stream.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# bipartite_dense: 0/1 membership matrix rows x cols, and its square case
# ---------------------------------------------------------------------------

def _gather(indptr: np.ndarray, indices: np.ndarray,
            nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbour lists of `nodes`, with each entry's
    position in `nodes`: (owner positions, neighbour ids)."""
    starts = indptr[nodes]
    counts = indptr[1:][nodes] - starts
    owner = np.arange(nodes.size).repeat(counts)
    # entry e of owner o sits at starts[o] + (e - first entry of o)
    flat = np.arange(owner.size) + (starts + counts - counts.cumsum()).repeat(counts)
    return owner, indices[flat]


def _locate(sorted_nodes: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in `sorted_nodes` of those `ids` it contains:
    (mask over ids, their positions)."""
    pos = sorted_nodes.searchsorted(ids)
    if not sorted_nodes.size:  # take() has nothing to clip to
        return np.zeros(ids.shape, dtype=bool), pos[:0]
    hit = sorted_nodes.take(pos, mode="clip") == ids
    return hit, pos[hit]


def bipartite_dense(indptr: np.ndarray, indices: np.ndarray,
                    rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Edge-membership matrix between sorted `rows` and node list `cols`."""
    out = np.zeros((rows.size, cols.size), dtype=np.uint8)
    if rows.size and cols.size:
        owner, neigh = _gather(indptr, indices, cols)
        hit, pos = _locate(rows, neigh)
        out[pos, owner[hit]] = 1
    return out


def induced_dense(indptr: np.ndarray, indices: np.ndarray,
                  nodes: np.ndarray) -> np.ndarray:
    """Dense adjacency (uint8) of the subgraph induced on sorted `nodes`;
    rows and columns follow that order. The adjacency is symmetric, so
    this is the membership matrix of `nodes` against themselves."""
    return bipartite_dense(indptr, indices, nodes, nodes)


# ---------------------------------------------------------------------------
# partial_shuffle: Fisher-Yates tail selection driven by pre-drawn offsets
# ---------------------------------------------------------------------------

def partial_shuffle(scratch: np.ndarray, offsets: np.ndarray) -> None:
    """In-place partial Fisher-Yates: after the call the last len(offsets)
    entries of `scratch` are a uniform without-replacement sample.

    offsets[s] must lie in [0, n - s); the caller draws them in one
    vectorized call.
    """
    # the swaps are sequential; a memoryview swaps raw integers in place
    vals = memoryview(scratch)
    n = len(vals)
    for s, r in enumerate(offsets.tolist()):
        j = n - 1 - s
        vals[r], vals[j] = vals[j], vals[r]

