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

A session computes the whole reply with one `_reply` call, which draws
all of its noise at once. spanning_counts and partial_ebc_y name its
two halves for the benchmark's trace, and compute nothing of their own.
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
                 y_ego: np.ndarray) -> np.ndarray:
    """The float 0/1 (|R| + d_Y) x d_Y block over y_ego's columns: its
    first |R| rows are b, b[r, k] = r~k, and its last d_Y rows are m1,
    the adjacency inside y_ego. Both noiseless releases are products of
    it. One pass over y_ego's neighbour lists fills it."""
    indptr, indices = pg.graph.csr()
    out = np.zeros((r_sorted.size + y_ego.size, y_ego.size))
    owner, neigh = _kernels._gather(indptr, indices, y_ego)
    for first, rows in ((0, r_sorted), (r_sorted.size, y_ego)):
        hit, pos = _kernels._locate(rows, neigh)
        out[first + pos, owner[hit]] = 1.0
    return out


def _partial_sum_from_blocks(block: np.ndarray, r_size: int) -> float:
    """Noiseless partial sum over non-adjacent pairs inside y_ego, from
    the block of _core_blocks over an R of r_size nodes.

    Intermediates are restricted to R u {a} u y_ego; a itself always
    joins both endpoints, so every denominator is at least 1. The other
    paths number b.T b + m1 m1, which is block.T @ block because m1 is
    symmetric; every entry is a small integer, so the product is exact.
    """
    return _pair_sum(block[r_size:], 1.0 + block.T @ block)


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


def _reply(pg: PartitionedGraph | PartyView, y_ego: np.ndarray, r_sorted: np.ndarray,
           params: PrivacyParams, rng: np.random.Generator | None,
           noisy_t: bool, noisy_s: bool) -> BackwardMsg:
    """Y's reply from one block, in two dense products, noised from rng
    as flagged."""
    block = _core_blocks(pg, r_sorted, y_ego)
    b, m1 = block[:r_sorted.size], block[r_sorted.size:]
    return _release(b @ m1, _partial_sum_from_blocks(block, r_sorted.size),
                    params, rng, noisy_t, noisy_s)


def spanning_counts(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                    params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2-path counts for every (i, j) in R x (N_a n V_Y): the T of
    Y's reply with only the counts noised.

    No session calls it: it names the counts' half of `_reply` because
    perfbench's trace calls it by name (ROADMAP item 2).
    """
    y_ego = ego_context(pg, a).y_ego_sorted
    return _reply(pg, y_ego, np.array(sorted(R), dtype=np.int64), params, rng, True, False).T


def partial_ebc_y(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                  params: PrivacyParams, rng: np.random.Generator) -> float:
    """Noisy partial EBC sum over Y's side of the ego network, on the
    2^-20 grid: the S_Y of Y's reply with only the sum noised.

    No session calls it: it names the sum's half of `_reply` because
    perfbench's trace calls it by name (ROADMAP item 2).
    """
    ectx = ego_context(pg, a)
    if ectx.flow:
        raise DegenerateEgoError("need at least two Y-side ego neighbours")
    r_sorted = np.array(sorted(R), dtype=np.int64)
    return _reply(pg, ectx.y_ego_sorted, r_sorted, params, rng, False, True).S_Y
