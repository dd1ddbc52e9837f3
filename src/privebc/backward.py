"""Party Y's private reply: noisy spanning-path counts and partial sum.

Given the set R received from X, Y releases (1) for every pair of
i in R and j in its side of the ego network, a noisy count of 2-paths
i-k-j with intermediate k on Y's side, and (2) a noisy partial EBC sum
over non-adjacent pairs inside its side of the ego network. Both use
the two-sided geometric mechanism, sampled exactly (dpnum), so the
reply holds integers only. Each half runs with budget eps/2: the counts
have sensitivity 2|R| and get scale 4|R|/eps; the partial sum, of
sensitivity |N_a n V_Y| - 1 = d_Y - 1, is first rounded to the 2^-20
grid, which moves it by at most half a grid step, and is noised in grid
units at sensitivity (d_Y - 1) * 2^20 + 1, scale twice that over eps.
Every scale is rounded up, never down. Noisy values are released raw
(possibly negative); any clamping is X-side post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dpnum import PrivacyParams, geometric_scale, two_sided_geometric
from .graphs import PartitionedGraph, PartyView, _pair_sum, ego_context


@dataclass(frozen=True, eq=False)
class BackwardMsg:
    """Y's reply. T is the |R| x d_Y integer matrix of noisy counts: row
    r holds the r-th node of R and column c the c-th node of N_a n V_Y,
    both in ascending index order, so the ids themselves are never sent.
    S_Y is the noisy partial sum, a multiple of 2^-SUM_GRID_BITS (a
    noiseless one is exact)."""

    T: np.ndarray
    S_Y: float


SUM_GRID_BITS = 20  # S_Y is released in units of 2^-20


class DegenerateEgoError(ValueError):
    """Y's side of the ego network is too small for a backward message."""


def _core_blocks(pg: PartitionedGraph | PartyView, r_sorted: np.ndarray,
                 y_ego: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float 0/1 blocks: b[r, k] = r~k for k in y_ego, m1 = adjacency
    inside y_ego. Both noiseless releases are products of these.

    One pass over y_ego's neighbour lists fills both, as the two row
    slices of one (|R| + d_Y) x d_Y array."""
    indptr, indices = pg.graph.csr()
    out = np.zeros((r_sorted.size + y_ego.size, y_ego.size))
    owner, neigh = _kernels._gather(indptr, indices, y_ego)
    for first, rows in ((0, r_sorted), (r_sorted.size, y_ego)):
        hit, pos = _kernels._locate(rows, neigh)
        out[first + pos, owner[hit]] = 1.0
    return out[:r_sorted.size], out[r_sorted.size:]


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


def _release(core: np.ndarray, s_y: float, params: PrivacyParams,
             rng: np.random.Generator | None, noisy_t: bool, noisy_s: bool) -> BackwardMsg:
    """Y's reply from its noiseless counts `core` (|R| x d_Y) and partial
    sum `s_y`. One draw noises every value flagged noisy: the counts in
    row-major order, then S_Y's grid count. A value left noiseless is
    exact: the counts as integers, S_Y as the float it is."""
    t = core.astype(np.int64)
    rows, d_y = t.shape
    n_t = t.size if noisy_t else 0
    scale = np.empty(n_t + noisy_s)
    if n_t:
        scale[:n_t] = geometric_scale(4 * rows, params.epsilon)
    if noisy_s:
        scale[-1] = geometric_scale(2 * (((d_y - 1) << SUM_GRID_BITS) + 1), params.epsilon)
    if scale.size:
        z = two_sided_geometric(scale, rng)
        if n_t:
            t += z[:n_t].reshape(t.shape)
        if noisy_s:
            grid = round(s_y * 2.0**SUM_GRID_BITS) + int(z[-1])
            s_y = grid * 2.0**-SUM_GRID_BITS
    return BackwardMsg(T=t, S_Y=s_y)


def _sorted_ids(R: frozenset[int]) -> np.ndarray:
    return np.array(sorted(R), dtype=np.int64)


def _reply(pg: PartitionedGraph | PartyView, y_ego: np.ndarray, r_sorted: np.ndarray,
           params: PrivacyParams, rng: np.random.Generator | None,
           noisy_t: bool, noisy_s: bool) -> BackwardMsg:
    """Y's reply from one pair of blocks, noised from rng as flagged."""
    b, m1 = _core_blocks(pg, r_sorted, y_ego)
    return _release(b @ m1, _partial_sum_from_blocks(b, m1), params, rng, noisy_t, noisy_s)


def spanning_counts(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                    params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2-path counts for every (i, j) in R x (N_a n V_Y), as the
    |R| x d_Y matrix BackwardMsg.T carries (rows in ascending order of
    R, columns in ascending order of N_a n V_Y).

    All pairs are released, adjacent ones included; filtering happens
    on X's side. Fresh two-sided geometric noise of scale 4|R|/eps
    (rounded up) per entry, drawn in row-major order. Empty R yields a
    0 x d_Y matrix with no noise drawn.
    """
    y_ego = ego_context(pg, a).y_ego_sorted
    core = _spanning_core_matrix(pg, _sorted_ids(R), y_ego)
    return _release(core, 0.0, params, rng, True, False).T


def partial_ebc_y(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                  params: PrivacyParams, rng: np.random.Generator) -> float:
    """Noisy partial EBC sum over Y's side of the ego network, on the
    2^-20 grid."""
    ectx = ego_context(pg, a)
    if ectx.flow:
        raise DegenerateEgoError("need at least two Y-side ego neighbours")
    y_ego = ectx.y_ego_sorted
    s_y = _partial_sum_core(pg, _sorted_ids(R), y_ego)
    return _release(np.zeros((0, y_ego.size)), s_y, params, rng, False, True).S_Y

