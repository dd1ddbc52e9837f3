"""Party X's private release of its side of the ego network.

The exponential mechanism over all subsets R of X^- (= V_X minus the
ego) with quality q(R) = |R n R*| + |X^- \\ (R u R*)| is sampled exactly
in two stages: first the quality stratum index I (whose law reduces to
Binomial(|X^-|, sigma(t)) with t = eps/(2 delta)), then a uniform
member of that stratum via pick-and-flip. Stage one runs in log space
in mpmath at extended precision; stage two is a partial Fisher-Yates
over X^-.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import _kernels
from .dpnum import DEFAULT_CONTEXT, PrecisionContext, PrivacyParams, log_add, sample_neg_exp1
from .graphs import EgoContext, PartitionedGraph, PartyView, ego_context


@dataclass(frozen=True)
class StratumDistribution:
    """Log-space pmf of the stratum index I over {0, ..., n}.

    log_pmf[i] = log C(n, i) + i*t - n*log(1 + e^t) where t is the
    quality exponent eps/(2*delta0). Masses sum to one at context
    precision; exp(log_pmf) equals the Binomial(n, e^t/(1+e^t)) pmf.

    The log-CDF prefix that draws have needed so far is kept alongside
    (see inverse_transform_sample); it is derived data and takes no
    part in equality.
    """

    n: int
    t: float
    log_pmf: tuple
    ctx: PrecisionContext
    _log_cdf: tuple = field(default=(), init=False, repr=False, compare=False)

    def pmf_floats(self) -> np.ndarray:
        mp = self.ctx.mp
        return np.array([float(mp.exp(p)) for p in self.log_pmf])


@dataclass(frozen=True)
class ForwardMsg:
    """The set release: R, a subset of X^- as dense node indices."""

    R: frozenset[int]


@lru_cache(maxsize=8)
def _log_int_table(n: int, ctx: PrecisionContext) -> tuple:
    """log(1), ..., log(n) at extended precision; pure constants."""
    mp = ctx.mp
    return tuple(mp.log(mp.mpf(i)) for i in range(1, n + 1))


def quality(R: Iterable[int], R_star: Iterable[int], X_minus: Iterable[int]) -> int:
    """q(R) = |R n R*| + |X^- \\ (R u R*)|, i.e. |X^-| - |R delta R*|."""
    r = frozenset(R)
    rs = frozenset(R_star)
    xm = frozenset(X_minus)
    if not r <= xm or not rs <= xm:
        raise ValueError("R and R_star must be subsets of X_minus")
    return len(r & rs) + len(xm - (r | rs))


def stratum_distribution(n: int, params: PrivacyParams,
                         ctx: PrecisionContext = DEFAULT_CONTEXT) -> StratumDistribution:
    """Exact stratum pmf for |X^-| = n at the context's precision.

    The eight most recently used distributions are kept, keyed by
    (n, epsilon, delta0, ctx), so repeated releases at one size
    compute the pmf once. The key holds nothing of the graph.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _stratum_distribution(n, float(params.epsilon), float(params.delta0), ctx)


@lru_cache(maxsize=8)
def _stratum_distribution(n: int, epsilon: float, delta0: float,
                          ctx: PrecisionContext) -> StratumDistribution:
    mp = ctx.mp
    t = mp.fdiv(mp.mpf(epsilon), mp.mpf(2.0 * delta0))
    norm = mp.fmul(mp.mpf(n), mp.log1p(mp.exp(t)))
    logs = _log_int_table(n, ctx)
    pmf = [mp.fsub(mp.mpf(0), norm)]
    log_choose = mp.mpf(0)
    acc_t = mp.mpf(0)
    for i in range(1, n + 1):
        # log C(n,i) accumulates as log(n-i+1) - log(i); the i*t term
        # accumulates alongside so each step is the previous plus
        # log(n-i+1) - log(i) + t
        log_choose = mp.fsub(mp.fadd(log_choose, logs[n - i]), logs[i - 1])
        acc_t = mp.fadd(acc_t, t)
        pmf.append(mp.fsub(mp.fadd(log_choose, acc_t), norm))
    return StratumDistribution(n=n, t=float(t), log_pmf=tuple(pmf), ctx=ctx)


def inverse_transform_sample(dist: StratumDistribution, rng: np.random.Generator) -> int:
    """Sample the stratum index by log-space inverse transform.

    Draws psi = -Exp(1) and returns the scan's answer: with the
    streaming log-CDF c_0 = log_pmf[0], c_i = log_add(c_{i-1},
    log_pmf[i]), the least I in 0..n-1 with c_I >= psi, or n if there
    is none. The c_i are kept on `dist` as far as some draw has needed
    them, so a draw within that prefix is a bisection; a draw beyond it
    extends the prefix exactly as far as the scan would have gone.
    log_add never decreases its first argument, so bisection and scan
    return the same index.
    """
    psi = dist.ctx.mp.mpf(sample_neg_exp1(rng))
    cdf = dist._log_cdf
    if cdf and cdf[-1] >= psi:
        return bisect_left(cdf, psi)
    return _extend_log_cdf(dist, psi)


def _extend_log_cdf(dist: StratumDistribution, psi) -> int:
    """Continue the log-CDF scan past the stored prefix, all of which
    lies below psi; store the longer prefix and return the index."""
    n = dist.n
    if n == 0:
        return 0
    cdf = list(dist._log_cdf) or [dist.log_pmf[0]]
    while cdf[-1] < psi and len(cdf) < n:
        cdf.append(log_add(cdf[-1], dist.log_pmf[len(cdf)], dist.ctx))
    # concurrent draws may race here; every writer stores a prefix of
    # the same deterministic sequence, so any of them is correct
    if len(cdf) > len(dist._log_cdf):
        object.__setattr__(dist, "_log_cdf", tuple(cdf))
    return len(cdf) - 1 if cdf[-1] >= psi else n


def pick_and_flip(X_minus: Iterable[int] | np.ndarray, R_star: Iterable[int] | np.ndarray,
                  I: int, rng: np.random.Generator) -> frozenset[int]:
    """Uniform member of the quality-I stratum.

    Samples |X^-| - I distinct nodes uniformly from X^- (partial
    Fisher-Yates) and toggles each one's membership starting from R*.
    Every toggle grows the symmetric difference by one, so the result
    has quality exactly I. An array X^- must be sorted; R* must be a
    subset of X^-.
    """
    if isinstance(X_minus, np.ndarray):
        arr = X_minus
    else:
        arr = np.array(sorted(X_minus), dtype=np.int64)
    n = arr.size
    if not 0 <= I <= n:
        raise ValueError(f"stratum index {I} out of range 0..{n}")
    if not isinstance(R_star, np.ndarray):
        R_star = np.fromiter(R_star, dtype=np.int64)
    member = np.zeros(n, dtype=bool)
    if R_star.size:
        at = arr.searchsorted(R_star)
        if at.max() >= n or not np.array_equal(arr[at], R_star):
            raise ValueError("R_star must be a subset of X_minus")
        member[at] = True
    k = n - I
    offsets = rng.integers(0, np.arange(n, n - k, -1, dtype=np.int64))
    # shuffle positions into X^-; the tail picks the same nodes as
    # shuffling X^- itself would
    picks = np.arange(n, dtype=np.int64)
    _kernels.partial_shuffle(picks, offsets.astype(np.int64))
    member[picks[n - k:]] ^= True
    return frozenset(arr[member].tolist())


def forward_message(pg: PartitionedGraph | PartyView, a: object, params: PrivacyParams,
                    ctx: PrecisionContext = DEFAULT_CONTEXT,
                    rng: np.random.Generator | None = None) -> ForwardMsg:
    """X's private set release for ego a: the full two-stage sampler."""
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    ectx = ego_context(pg, a)
    return forward_message_from_context(ectx, params, ctx, rng)


def forward_message_from_context(ectx: EgoContext, params: PrivacyParams,
                                 ctx: PrecisionContext,
                                 rng: np.random.Generator) -> ForwardMsg:
    if params.delta0 != 1.0:
        raise ValueError("the set release runs with quality sensitivity 1")
    dist = stratum_distribution(ectx.x_minus_sorted.size, params, ctx)
    idx = inverse_transform_sample(dist, rng)
    r = pick_and_flip(ectx.x_minus_sorted, ectx.r_star_sorted, idx, rng)
    return ForwardMsg(R=r)
