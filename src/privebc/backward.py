"""Party Y's private reply: noisy spanning-path counts and partial sum.

Given the set R received from X, Y releases (1) for every pair of
i in R and j in its side of the ego network, a Laplace-noised count of
2-paths i-k-j with intermediate k on Y's side, and (2) a Laplace-noised
partial EBC sum over non-adjacent pairs inside its side of the ego
network. Each half runs with budget eps/2; sensitivities are 2|R| for
the count vector and |N_a n V_Y| - 1 for the partial sum, so the noise
scales are 2*(2|R|)/eps and 2*(|N_a n V_Y| - 1)/eps. Noisy values are
released raw (possibly negative); any clamping is X-side
post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dpnum import PrivacyParams, sample_laplace
from .graphs import PartitionedGraph, PartyView, _neighbor_array, _pair_sum


@dataclass(frozen=True, eq=False)
class BackwardMsg:
    """Y's reply. T is the |R| x d_Y matrix of noisy counts: row r holds
    the r-th node of R and column c the c-th node of N_a n V_Y, both in
    ascending index order, so the ids themselves are never sent. S_Y is
    the noisy partial sum."""

    T: np.ndarray
    S_Y: float


class DegenerateEgoError(ValueError):
    """Y's side of the ego network is too small for a backward message."""


def _y_ego_sorted(pg: PartitionedGraph | PartyView, a_idx: int) -> np.ndarray:
    """N_a n V_Y as a sorted index array, from edges the caller knows."""
    nbrs = _neighbor_array(pg.graph, a_idx)
    return nbrs[~pg._is_x[nbrs]]


def _core_blocks(pg: PartitionedGraph | PartyView, r_sorted: np.ndarray,
                 y_ego: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float 0/1 blocks: b[r, k] = r~k for k in y_ego, m1 = adjacency
    inside y_ego. Both noiseless releases are products of these."""
    indptr, indices = pg.graph.csr()
    b = _kernels.bipartite_dense(indptr, indices, r_sorted, y_ego)
    m1 = _kernels.induced_dense(indptr, indices, y_ego)
    return b.astype(np.float64), m1.astype(np.float64)


def _partial_sum_from_blocks(b: np.ndarray, m1: np.ndarray) -> float:
    return _pair_sum(m1, 1.0 + b.T @ b + m1 @ m1)


def _spanning_core_matrix(pg: PartitionedGraph | PartyView, r_sorted: np.ndarray,
                          y_ego: np.ndarray) -> np.ndarray:
    """Noiseless counts: core[r, j] = #{k in y_ego : r~k and k~j}."""
    b, m1 = _core_blocks(pg, r_sorted, y_ego)
    return b @ m1


def _partial_sum_core(pg: PartitionedGraph | PartyView, r_sorted: np.ndarray,
                      y_ego: np.ndarray) -> float:
    """Noiseless partial sum over non-adjacent pairs inside y_ego.

    Intermediates are restricted to R u {a} u y_ego; a itself always
    joins both endpoints, so every denominator is at least 1.
    """
    return _partial_sum_from_blocks(*_core_blocks(pg, r_sorted, y_ego))


def _noisy_counts(core: np.ndarray, params: PrivacyParams,
                  rng: np.random.Generator | None) -> np.ndarray:
    """The |R| x d_Y count matrix; with rng None (or nothing to noise)
    the counts are exact. Noise is one Laplace draw of scale
    2*(2|R|)/eps per entry, drawn in row-major order."""
    if rng is None or core.size == 0:
        return core
    scale = 2.0 * (2.0 * core.shape[0]) / params.epsilon
    return core + rng.laplace(0.0, scale, core.shape)


def _noisy_partial_sum(s_y: float, y_ego: np.ndarray, params: PrivacyParams,
                       rng: np.random.Generator | None) -> float:
    """s_y plus Laplace noise at sensitivity |y_ego| - 1 (none if rng is None)."""
    if rng is not None:
        s_y += sample_laplace(2.0 * float(y_ego.size - 1) / params.epsilon, rng)
    return s_y


def _sorted_ids(R: frozenset[int]) -> np.ndarray:
    return np.array(sorted(R), dtype=np.int64)


def _reply(pg: PartitionedGraph | PartyView, y_ego: np.ndarray, r_sorted: np.ndarray,
           params: PrivacyParams, rng_t: np.random.Generator | None,
           rng_s: np.random.Generator | None) -> BackwardMsg:
    """Y's reply from one pair of blocks: the count matrix (noised from
    rng_t) and then the partial sum (noised from rng_s)."""
    b, m1 = _core_blocks(pg, r_sorted, y_ego)
    t = _noisy_counts(b @ m1, params, rng_t)
    s_y = _noisy_partial_sum(_partial_sum_from_blocks(b, m1), y_ego, params, rng_s)
    return BackwardMsg(T=t, S_Y=s_y)


def spanning_counts(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                    params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2-path counts for every (i, j) in R x (N_a n V_Y), as the
    |R| x d_Y matrix BackwardMsg.T carries (rows in ascending order of
    R, columns in ascending order of N_a n V_Y).

    All pairs are released, adjacent ones included; filtering happens
    on X's side. Fresh Laplace noise of scale 2*(2|R|)/eps per entry,
    drawn in row-major order. Empty R yields a 0 x d_Y matrix with no
    noise drawn.
    """
    y_ego = _y_ego_sorted(pg, pg.graph.index_of(a))
    core = _spanning_core_matrix(pg, _sorted_ids(R), y_ego)
    return _noisy_counts(core, params, rng)


def partial_ebc_y(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                  params: PrivacyParams, rng: np.random.Generator) -> float:
    """Noisy partial EBC sum over Y's side of the ego network."""
    y_ego = _y_ego_sorted(pg, pg.graph.index_of(a))
    if y_ego.size < 2:
        raise DegenerateEgoError("need at least two Y-side ego neighbours")
    s_y = _partial_sum_core(pg, _sorted_ids(R), y_ego)
    return _noisy_partial_sum(s_y, y_ego, params, rng)

