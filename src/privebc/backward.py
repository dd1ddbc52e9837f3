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

A session computes the whole reply with one `_reply` call: one block
of Y's view, built by the ego-sum core that X's assembly and exact_ebc
share (graphs._ego_sums), gives both noiseless values, and one draw
noises them. spanning_counts and partial_ebc_y name its two halves
for the benchmark's trace, and compute nothing of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpnum import PrivacyParams, geometric_runs, geometric_scale
from .graphs import PartitionedGraph, PartyView, _ego_sums, ego_context


@dataclass(eq=False)
class BackwardMsg:
    """Y's reply. T is the |R| x d_Y integer matrix of noisy counts: row
    r holds the r-th node of R and column c the c-th node of N_a n V_Y,
    both in ascending index order, so the ids themselves are never sent.
    S_Y is the noisy partial sum, a multiple of 2^-SUM_GRID_BITS (a
    noiseless one is exact). Nothing writes to a message once it is
    built; like graphs.EgoContext, it is not frozen for speed."""

    T: np.ndarray
    S_Y: float


SUM_GRID_BITS = 20  # S_Y is released in units of 2^-20


class DegenerateEgoError(ValueError):
    """Y's side of the ego network is too small for a backward message."""


def _release(core: np.ndarray, s_y: float, epsilon: float,
             rng: np.random.Generator | None, noisy_t: bool, noisy_s: bool) -> BackwardMsg:
    """Y's reply from its noiseless counts `core` (|R| x d_Y) and partial
    sum `s_y`, at budget epsilon. One draw noises every value flagged
    noisy: the counts in row-major order, one run at their scale, then
    S_Y's grid count at its own. A value left noiseless is exact: the
    counts as integers, S_Y as the float it is."""
    t = core.astype(np.int64)
    rows, d_y = t.shape
    runs = []
    if noisy_t and t.size:
        runs.append((t.size, geometric_scale(4 * rows, epsilon)))
    if noisy_s:
        runs.append((1, geometric_scale(2 * (((d_y - 1) << SUM_GRID_BITS) + 1), epsilon)))
    if runs:
        z = geometric_runs(runs, rng)
        if noisy_t:
            t += z[:t.size].reshape(t.shape)
        if noisy_s:
            grid = round(s_y * 2.0**SUM_GRID_BITS) + int(z[-1])
            s_y = grid * 2.0**-SUM_GRID_BITS
    return BackwardMsg(T=t, S_Y=s_y)


def _reply(pg: PartitionedGraph | PartyView, y_ego: np.ndarray, r_sorted: np.ndarray,
           epsilon: float, rng: np.random.Generator | None,
           noisy_t: bool, noisy_s: bool) -> BackwardMsg:
    """Y's reply to R, noised from rng as flagged. The ego-sum core over
    y_ego against R gives m1 (the adjacency inside y_ego), the block
    y_ego x R and the partial sum, whose intermediates are R u {a} u
    y_ego; the counts are T = (y_ego x R).T @ m1."""
    m1, yr, s_y = _ego_sums(pg.graph, y_ego, r_sorted)
    return _release(yr.T @ m1, s_y, epsilon, rng, noisy_t, noisy_s)


def spanning_counts(pg: PartitionedGraph | PartyView, a: object, R: frozenset[int],
                    params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Noisy 2-path counts for every (i, j) in R x (N_a n V_Y): the T of
    Y's reply with only the counts noised.

    No session calls it: it names the counts' half of `_reply` because
    perfbench's trace calls it by name (ROADMAP item 2).
    """
    y_ego = ego_context(pg, a).y_ego_sorted
    return _reply(pg, y_ego, np.array(sorted(R), dtype=np.int64), params.epsilon, rng,
                  True, False).T


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
    return _reply(pg, ectx.y_ego_sorted, r_sorted, params.epsilon, rng, False, True).S_Y
