"""Party X's private release of its side of the ego network.

The exponential mechanism over all subsets R of X^- (= V_X minus the
ego) with quality q(R) = |R n R*| + |X^- \\ (R u R*)| is sampled in two
stages: first the quality stratum index I (whose law reduces to
Binomial(|X^-|, sigma(t)) with t = eps/(2 delta)), then a uniform
member of that stratum via pick-and-flip. Stage one keeps the pmf terms
as logarithms in mpmath at extended precision and sums the upper tail
P(I >= j) in linear scale down from I = n, where the binomial's mass
lies, computing each term only when the scan reaches it, so a fresh
draw of I costs n - I + 1 terms and scan steps. The table of log 1, 2,
... those terms read is shared by every n, and the full pmf is built
only on request. Stage one compares that sum with one 53-bit uniform
U, so it is exact only to U's grid (see inverse_transform_sample);
stage two is an exact partial Fisher-Yates over X^-. Per-node
randomized response (ROADMAP item 3) would make the release exact
outright.
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


@dataclass(frozen=True)
class StratumDistribution:
    """Log-space pmf of the stratum index I over {0, ..., n}, built lazily.

    log_pmf[i] = log C(n, i) + i*t - n*log(1 + e^t) where t is the
    quality exponent eps/(2*delta0); exp(log_pmf) equals the
    Binomial(n, e^t/(1+e^t)) pmf. A fresh draw of I grows n - I + 1
    terms from I = n down, from the log table every n shares, with the
    linear upper-tail sums P(I >= j) (see inverse_transform_sample); the
    full pmf is built only on request. t is converted to a context real
    once, when the distribution is built. The stored prefixes take no
    part in equality.
    """

    n: int
    t: float
    ctx: mpmath.MPContext
    _t: object = field(default=None, init=False, repr=False, compare=False)
    _terms: tuple = field(default=(), init=False, repr=False, compare=False)
    _tail: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_t", self.ctx.mpf(self.t))

    @property
    def log_pmf(self) -> tuple:
        """All n + 1 terms, log_pmf[0] first, at context precision."""
        terms = list(self._terms)
        while len(terms) <= self.n:
            _next_log_pmf(terms, self)
        object.__setattr__(self, "_terms", tuple(terms))
        return tuple(reversed(terms))

    def pmf_floats(self) -> np.ndarray:
        return np.array([float(self.ctx.exp(p)) for p in self.log_pmf])


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


# _LOG_INTS[i] = log(i) at DEFAULT_CONTEXT's precision, shared by every n
_LOG_INTS = [DEFAULT_CONTEXT.ninf]


@lru_cache(maxsize=8)
def _log1p_exp_neg(t: float, ctx: mpmath.MPContext):
    """log1p(e^-t) at the context's precision: every distribution at one
    epsilon shares it."""
    return ctx.log1p(ctx.exp(ctx.fneg(ctx.mpf(t))))


def _next_log_pmf(terms: list, dist: StratumDistribution) -> None:
    """Append the next term from the heavy end down to terms = [log_pmf[n],
    ..., log_pmf[i]]: log_pmf[n] = -n*log1p(e^-t), and log_pmf[i-1] =
    log_pmf[i] + log(i) - log(n-i+1) - t. The first term grows the
    shared log table to n."""
    ctx, n, t = dist.ctx, dist.n, dist._t
    if not terms:
        # one slice store; a racing writer stores the same values there
        start = len(_LOG_INTS)
        _LOG_INTS[start:n + 1] = [DEFAULT_CONTEXT.log(i) for i in range(start, n + 1)]
        terms.append(ctx.fneg(ctx.fmul(n, _log1p_exp_neg(dist.t, ctx))))
        return
    i = n + 1 - len(terms)
    terms.append(ctx.fsub(ctx.fadd(terms[-1], _LOG_INTS[i]), ctx.fadd(_LOG_INTS[n - i + 1], t)))


def quality(R: Iterable[int], R_star: Iterable[int], X_minus: Iterable[int]) -> int:
    """q(R) = |R n R*| + |X^- \\ (R u R*)|, i.e. |X^-| - |R delta R*|."""
    r = frozenset(R)
    rs = frozenset(R_star)
    xm = frozenset(X_minus)
    if not r <= xm or not rs <= xm:
        raise ValueError("R and R_star must be subsets of X_minus")
    return len(r & rs) + len(xm - (r | rs))


def stratum_distribution(n: int, params: PrivacyParams,
                         ctx: mpmath.MPContext = DEFAULT_CONTEXT) -> StratumDistribution:
    """Exact stratum pmf for |X^-| = n at the context's precision.

    The distribution computes its terms lazily, so building one is
    O(1). The eight most recently used are kept, keyed by (n, epsilon,
    delta0, ctx), so repeated releases at one size compute each term
    once. The key holds nothing of the graph.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _stratum_distribution(n, float(params.epsilon), float(params.delta0), ctx)


@lru_cache(maxsize=8)
def _stratum_distribution(n: int, epsilon: float, delta0: float,
                          ctx: mpmath.MPContext) -> StratumDistribution:
    return StratumDistribution(n=n, t=epsilon / (2.0 * delta0), ctx=ctx)


def inverse_transform_sample(dist: StratumDistribution, rng: np.random.Generator) -> int:
    """Sample the stratum index by inverse transform, scanning the upper
    tail in linear scale from the heavy end down.

    Draws one uniform U and returns the scan's answer: with the
    streaming upper-tail sum T_0 = e^log_pmf[n], T_k = T_{k-1} +
    e^log_pmf[n-k] = P(I >= n-k), the index n-k for the least k in
    0..n-1 with T_k >= U, or 0 if there is none. Since I >= j exactly
    when P(I >= j) >= U, the law is that of the pmf. mpmath's exponent
    range is unbounded, so no term underflows, and a -inf log term adds
    an exact 0. The pmf is Binomial(n, sigma) with sigma > 1/2, so its
    mass lies at the top. The scan computes each log_pmf term as it
    reaches it, from the log table every n shares, so a draw of I on a
    fresh `dist` computes n - I + 1 terms and scan steps and never the
    full pmf. Terms and T_k are kept on `dist` as far as some draw has
    needed them, so a draw within that prefix is a bisection; a draw
    beyond it extends both exactly as far as the scan would have gone.
    Adding a nonnegative term never decreases the sum, so bisection and
    scan return the same index.

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
    tail = dist._tail
    if tail and tail[-1] >= u:
        return dist.n - bisect_left(tail, u)
    return _extend_tail(dist, u)


def _extend_tail(dist: StratumDistribution, u) -> int:
    """Continue the upper-tail scan past the stored prefix, all of which
    lies below u, growing the pmf terms it reaches alongside; store the
    longer prefixes and return the index."""
    n = dist.n
    if n == 0:
        return 0
    ctx = dist.ctx
    terms, tail = list(dist._terms), list(dist._tail)
    if not terms:
        _next_log_pmf(terms, dist)
    if not tail:
        tail.append(ctx.exp(terms[0]))
    while tail[-1] < u and len(tail) < n:
        while len(terms) <= len(tail):
            _next_log_pmf(terms, dist)
        tail.append(ctx.fadd(tail[-1], ctx.exp(terms[len(tail)])))
    # concurrent draws may race here; every writer stores prefixes of the
    # same deterministic sequences, so any of them is correct
    object.__setattr__(dist, "_terms", tuple(terms))
    object.__setattr__(dist, "_tail", tuple(tail))
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
