"""Hot array kernels in numpy: dense blocks of a CSR adjacency.

The kernels are loop-free and consume no randomness, so they never
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
    ends = indptr[1:][nodes]
    counts = ends - starts
    owner = np.arange(nodes.size).repeat(counts)
    # entry e of owner o sits at starts[o] + (e - first entry of o)
    flat = np.arange(owner.size) + (ends - counts.cumsum()).repeat(counts)
    return owner, indices[flat]


def _locate(sorted_nodes: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in `sorted_nodes` of those `ids` it contains:
    (mask over ids, their positions)."""
    pos = sorted_nodes.searchsorted(ids)
    if not sorted_nodes.size:  # take() has nothing to clip to
        return np.zeros(ids.shape, dtype=bool), pos[:0]
    hit = sorted_nodes.take(pos, mode="clip") == ids
    return hit, pos[hit]


def _block(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray,
           cols: np.ndarray, dtype: type) -> np.ndarray:
    """The 0/1 edge-membership matrix between sorted `rows` and node
    list `cols`, of the given dtype: one pass over cols' neighbour lists
    and one lookup in rows."""
    out = np.zeros((rows.size, cols.size), dtype=dtype)
    if rows.size and cols.size:
        owner, neigh = _gather(indptr, indices, cols)
        hit, pos = _locate(rows, neigh)
        out[pos, owner[hit]] = 1
    return out


def bipartite_dense(indptr: np.ndarray, indices: np.ndarray,
                    rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Edge-membership matrix (uint8) between sorted `rows` and node list `cols`."""
    return _block(indptr, indices, rows, cols, np.uint8)


def induced_dense(indptr: np.ndarray, indices: np.ndarray,
                  nodes: np.ndarray) -> np.ndarray:
    """Dense adjacency (uint8) of the subgraph induced on sorted `nodes`;
    rows and columns follow that order. The adjacency is symmetric, so
    this is the membership matrix of `nodes` against themselves."""
    return bipartite_dense(indptr, indices, nodes, nodes)

