"""Party X's private release of its side of the ego network.

The exponential mechanism over all subsets R of X^- (= V_X minus the
ego) with quality q(R) = |R n R*| + |X^- \\ (R u R*)| is sampled in two
stages: first the quality stratum index I (whose law reduces to
Binomial(|X^-|, sigma(t)) with t = eps/(2 delta)), then a uniform
member of that stratum via pick-and-flip. Stage one is binomial
inversion (Devroye 1986, ch. X; Kachitvichyanukul and Schmeiser's BINV,
1988) in mpmath at extended precision. It starts from P(I = n) =
(1 + e^-t)^-n, where the binomial's mass lies, steps down by one
linear pmf recurrence, and sums the upper tail P(I >= j) as it goes, so
a fresh draw of I costs n - I + 1 terms and scan steps. Stage one
compares that sum with one 53-bit uniform U, so it is exact only to
U's grid (see inverse_transform_sample); stage two is an exact partial
Fisher-Yates over X^-. Per-node randomized response (ROADMAP item 3)
would make the release exact outright.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import mpmath
import numpy as np

from . import _kernels
from .dpnum import DEFAULT_CONTEXT, PrivacyParams
from .graphs import EgoContext, PartitionedGraph, PartyView, ego_context


@dataclass
class StratumDistribution:
    """The law of the stratum index I over {0, ..., n}: Binomial(n,
    sigma) with sigma = 1/(1 + e^-t), where t is the quality exponent
    eps/(2*delta0).

    Its scan state is one (tail, term) pair: tail[k] = P(I >= n - k)
    over the prefix some draw has needed (see inverse_transform_sample),
    and term = P(I = n - k) for the prefix's last k. A draw replaces the
    pair in one assignment, so a racing writer always stores a
    consistent pair. The state takes no part in equality.
    """

    n: int
    t: float
    ctx: mpmath.MPContext
    _scan: tuple = field(default=((), None), init=False, repr=False, compare=False)

    def pmf(self) -> list:
        """All n + 1 terms, P(I = 0) first, at context precision, computed
        fresh by the scan's recurrence."""
        top = _top_term(self)
        return [top, *_terms_below(self, self.n, top)][::-1]

    def pmf_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.pmf()])


@dataclass(frozen=True, eq=False)
class ForwardMsg:
    """The set release: R as membership bits over X^- = V_X minus the
    ego, in ascending index order, which is all the wire carries.

    x_minus is X^- itself, which the sender's message holds; a decoded
    frame has none, and its receiver reads the bits against its own X^-.
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


@lru_cache(maxsize=8)
def _exp_neg(t: float, ctx: mpmath.MPContext) -> tuple:
    """e^-t and sigma = 1/(1 + e^-t) at the context's precision: every
    distribution at one epsilon shares them."""
    e = ctx.exp(ctx.fneg(ctx.mpf(t)))
    return e, ctx.fdiv(1, ctx.fadd(1, e))


def _top_term(dist: StratumDistribution):
    """P(I = n) = sigma^n."""
    return _exp_neg(dist.t, dist.ctx)[1] ** dist.n


def _terms_below(dist: StratumDistribution, i: int, term):
    """Yield P(I = i - 1), ..., P(I = 0) from term = P(I = i), each as
    P(I = j - 1) = P(I = j) * j / ((n - j + 1) e^t)."""
    e, n = _exp_neg(dist.t, dist.ctx)[0], dist.n
    for j in range(i, 0, -1):
        term = term * e * j / (n - j + 1)
        yield term


def stratum_distribution(n: int, params: PrivacyParams,
                         ctx: mpmath.MPContext = DEFAULT_CONTEXT) -> StratumDistribution:
    """Exact stratum law for |X^-| = n at the context's precision.

    The distribution computes its terms as draws reach them, so
    building one is O(1). The eight most recently used are kept, keyed
    by (n, epsilon, delta0, ctx), so repeated releases at one size
    compute each term once. The key holds nothing of the graph.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _stratum_distribution(n, float(params.epsilon), float(params.delta0), ctx)


@lru_cache(maxsize=8)
def _stratum_distribution(n: int, epsilon: float, delta0: float,
                          ctx: mpmath.MPContext) -> StratumDistribution:
    return StratumDistribution(n=n, t=epsilon / (2.0 * delta0), ctx=ctx)


def inverse_transform_sample(dist: StratumDistribution, rng: np.random.Generator) -> int:
    """Sample the stratum index by binomial inversion, scanning the
    upper tail in linear scale from the heavy end down.

    Draws one uniform U and returns the scan's answer: with the
    streaming upper-tail sum T_0 = P(I = n), T_k = T_{k-1} + P(I = n-k)
    = P(I >= n-k), the index n-k for the least k in 0..n-1 with
    T_k >= U, or 0 if there is none. Since I >= j exactly when
    P(I >= j) >= U, the law is that of the pmf. The pmf is Binomial(n,
    sigma) with sigma > 1/2, so its mass lies at the top. The scan
    starts from P(I = n) = sigma^n and takes each later term from the
    one before by the pmf's ratio (see _terms_below); mpmath's exponent
    range is unbounded, so no term underflows. A draw of I on a fresh
    `dist` thus computes n - I + 1 terms and scan steps and never the
    full pmf. T_k is kept on `dist` as far as some draw has needed it,
    with the last term, so a draw within that prefix is a bisection; a
    draw beyond it extends the prefix exactly as far as the scan would
    have gone. Adding a nonnegative term never decreases the sum, so
    bisection and scan return the same index.

    The draw is exact only to the grid of its uniform: U is one 53-bit
    double in [2^-53, 1 - 2^-53] (an exact 0 is drawn again), and each
    stratum's mass is rounded to that grid. A stratum at either end of
    the scan order whose mass lies below 2^-53 is never drawn: I = n
    needs U <= P(I = n), and I = 0 needs U > 1 - P(I = 0) (I = 0 at
    |X^-| = 100 and eps = 1 has log-probability -97.4).
    """
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    u = dist.ctx.mpf(u)  # exact: a double is a context real
    tail = dist._scan[0]
    if tail and tail[-1] >= u:
        return dist.n - bisect_left(tail, u)
    return _extend_tail(dist, u)


def _extend_tail(dist: StratumDistribution, u) -> int:
    """Continue the upper-tail scan past the stored prefix, all of which
    lies below u; store the longer prefix and return the index."""
    n = dist.n
    if n == 0:
        return 0
    tail, term = dist._scan
    if tail:
        tail = list(tail)
    else:
        term = _top_term(dist)
        tail = [term]
    terms = _terms_below(dist, n + 1 - len(tail), term)
    while tail[-1] < u and len(tail) < n:
        term = next(terms)
        tail.append(tail[-1] + term)
    dist._scan = (tuple(tail), term)
    return n - (len(tail) - 1) if tail[-1] >= u else 0


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
    if not isinstance(R_star, np.ndarray):
        R_star = np.fromiter(R_star, dtype=np.int64)
    member = _membership(arr, R_star)
    _flip(member, I, rng)
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


def _flip(member: np.ndarray, I: int, rng: np.random.Generator) -> None:
    """Toggle |X^-| - I distinct uniform positions of member in place."""
    n = member.size
    if not 0 <= I <= n:
        raise ValueError(f"stratum index {I} out of range 0..{n}")
    k = n - I
    offsets = rng.integers(0, np.arange(n, n - k, -1, dtype=np.int64))
    # shuffle positions into X^-; the tail picks the same nodes as
    # shuffling X^- itself would
    picks = np.arange(n, dtype=np.int64)
    _kernels.partial_shuffle(picks, offsets.astype(np.int64))
    member[picks[n - k:]] ^= True


def forward_message(pg: PartitionedGraph | PartyView, a: object, params: PrivacyParams,
                    ctx: mpmath.MPContext = DEFAULT_CONTEXT,
                    rng: np.random.Generator | None = None) -> ForwardMsg:
    """X's private set release for ego a: the full two-stage sampler."""
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    ectx = ego_context(pg, a)
    return forward_message_from_context(ectx, params, ctx, rng)


def forward_message_from_context(ectx: EgoContext, params: PrivacyParams,
                                 ctx: mpmath.MPContext,
                                 rng: np.random.Generator) -> ForwardMsg:
    if params.delta0 != 1.0:
        raise ValueError("the set release runs with quality sensitivity 1")
    dist = stratum_distribution(ectx.x_minus_sorted.size, params, ctx)
    member = _membership(ectx.x_minus_sorted, ectx.r_star_sorted)
    _flip(member, inverse_transform_sample(dist, rng), rng)
    return ForwardMsg(member=member, x_minus=ectx.x_minus_sorted)
