"""Party X's private release of its side of the ego network.

The exponential mechanism over all subsets R of X^- (= V_X minus the
ego) with quality q(R) = |R n R*| + |X^- \\ (R u R*)| = |X^-| - |R delta
R*| has a product law, because q is separable: each node of X^- flips
its R* membership on its own with p = 1/(1 + e^t), t = eps/(2 delta).
That is randomized response (Warner, 1965), and the release draws it
directly: one raw 64-bit word per node, whose top 53 bits are set
against the exact cut floor(p * 2^53), and interval arithmetic only on
a tie (`dpnum.flip_trials`). So a release costs O(|X^-|) integer work
and no extended-precision arithmetic.

The paper samples the same law in two stages: the quality stratum index
I ~ Binomial(|X^-|, 1 - p), then a uniform member of that stratum. The
stratum law's pmf is `oracle.stratum_pmf`, which only the checks read.
StratumDistribution, inverse_transform_sample and pick_and_flip draw
the two stages for the benchmark's trace only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dpnum import PrivacyParams, flip_trials
from .graphs import EgoContext, PartitionedGraph, PartyView, ego_context


@dataclass(frozen=True)
class StratumDistribution:
    """The law of the stratum index I over {0, ..., n}: Binomial(n,
    sigma) with sigma = 1/(1 + e^-t), where t is the quality exponent
    eps/(2*delta0). Its pmf is `oracle.stratum_pmf(n, t)`.
    """

    n: int
    t: float


@dataclass(eq=False)
class ForwardMsg:
    """The set release: R as membership bits over X^- = V_X minus the
    ego, in ascending index order, which is all the wire carries.

    x_minus is X^- itself, which the sender's message holds; a decoded
    frame has none, and its receiver reads the bits against its own X^-.
    Nothing writes to a message once it is built; like
    graphs.EgoContext, it is not frozen for speed.
    """

    member: np.ndarray
    x_minus: np.ndarray | None = None

    @property
    def R(self) -> frozenset[int]:
        """R as dense node indices; only the sender's message has them."""
        if self.x_minus is None:
            raise ValueError("a decoded forward message holds R's bits only; "
                             "read them against the receiver's X^-")
        return frozenset(self.x_minus[self.member].tolist())


def _exponent(params: PrivacyParams) -> float:
    """The quality exponent t = eps/(2*delta0)."""
    return float(params.epsilon) / (2.0 * float(params.delta0))


def stratum_distribution(n: int, params: PrivacyParams, ctx=None) -> StratumDistribution:
    """The stratum law for |X^-| = n.

    ctx is ignored: perfbench's trace still passes a context (ROADMAP
    item 2).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return StratumDistribution(n=n, t=_exponent(params))


def inverse_transform_sample(dist: StratumDistribution, rng: np.random.Generator) -> int:
    """Sample the stratum index as dist.n minus the number of nodes whose
    trial flips (see _flip_mask): the unflipped count of n independent
    Bernoulli(sigma) trials is Binomial(n, sigma), the law of I.

    No session calls it: it stands in for stage one of the two-stage
    sampler because perfbench's trace calls it by name (ROADMAP item 2).
    """
    return dist.n - int(np.count_nonzero(_flip_mask(dist.n, dist.t, rng)))


def _flip_mask(n: int, t: float, rng: np.random.Generator) -> np.ndarray:
    """One exact Bernoulli(p) trial per node of X^-, p = 1/(1 + e^t):
    True where the node's R* membership flips. Trial i reads the top 53
    bits of the i-th raw 64-bit word, and further words only on a tie
    (`dpnum.flip_trials`)."""
    raw = rng.bit_generator.random_raw
    return flip_trials(raw(n) >> 11, t, iter(raw, None))


def pick_and_flip(X_minus: Iterable[int] | np.ndarray, R_star: Iterable[int] | np.ndarray,
                  I: int, rng: np.random.Generator) -> frozenset[int]:
    """Uniform member of the quality-I stratum: toggle the membership of
    |X^-| - I distinct uniform nodes of X^-, starting from R*. Every
    toggle grows the symmetric difference by one, so the result has
    quality exactly I. An array X^- must be sorted; R* must be a subset
    of X^-.

    No session calls it: it stands in for stage two of the two-stage
    sampler because perfbench's trace calls it by name (ROADMAP item 2).
    """
    if isinstance(X_minus, np.ndarray):
        arr = X_minus
    else:
        arr = np.array(sorted(X_minus), dtype=np.int64)
    if not isinstance(R_star, np.ndarray):
        R_star = np.fromiter(R_star, dtype=np.int64)
    member = _membership(arr, R_star)
    n = member.size
    if not 0 <= I <= n:
        raise ValueError(f"stratum index {I} out of range 0..{n}")
    member[rng.choice(n, n - I, replace=False)] ^= True
    return frozenset(arr[member].tolist())


def _membership(x_minus: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """The membership bits over sorted x_minus of its sorted subset."""
    member = np.zeros(x_minus.size, dtype=bool)
    if subset.size:
        at = x_minus.searchsorted(subset)
        if at.max() >= x_minus.size or not np.array_equal(x_minus[at], subset):
            raise ValueError("R_star must be a subset of X_minus")
        member[at] = True
    return member


def forward_message(pg: PartitionedGraph | PartyView, a: object, params: PrivacyParams,
                    ctx=None, rng: np.random.Generator | None = None) -> ForwardMsg:
    """X's private set release for ego a (see forward_message_from_context).

    ctx is ignored: perfbench's trace still passes a context (ROADMAP
    item 2).
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    return forward_message_from_context(ego_context(pg, a), params, rng)


def forward_message_from_context(ectx: EgoContext, params: PrivacyParams,
                                 rng: np.random.Generator) -> ForwardMsg:
    """Release R* with each node's membership flipped by its own trial."""
    if params.delta0 != 1.0:
        raise ValueError("the set release runs with quality sensitivity 1")
    return _release_set(ectx, _exponent(params), rng)


def _release_set(ectx: EgoContext, t: float, rng: np.random.Generator) -> ForwardMsg:
    """R*'s membership bits over X^-, each flipped by its own trial at
    quality exponent t."""
    member = _flip_mask(ectx.x_minus_sorted.size, t, rng)
    at = ectx.r_star_at
    member[at] = ~member[at]
    return ForwardMsg(member=member, x_minus=ectx.x_minus_sorted)
