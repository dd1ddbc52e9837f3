import dataclasses
import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from privebc import (
    DEFAULT_CONTEXT,
    ForwardMsg,
    PrivacyParams,
    StratumDistribution,
    forward_message,
    stratum_distribution,
)
from privebc import ego_context, forward, oracle
from privebc.forward import forward_message_from_context, inverse_transform_sample, pick_and_flip
from privebc.oracle import log_add, quality, sample_neg_exp1

from .conftest import make_pg


# ---------------------------------------------------------------- quality

def test_quality_examples():
    xm = {1, 2, 3, 4, 5}
    assert quality({1, 2}, {1, 2}, xm) == 5
    assert quality(set(), {1, 2}, xm) == 3
    assert quality({1, 3}, {1, 2}, xm) == 3
    assert quality(xm, xm, xm) == 5


def test_quality_is_n_minus_symmetric_difference():
    rng = np.random.default_rng(0)
    xm = frozenset(range(12))
    for _ in range(200):
        r = frozenset(int(v) for v in rng.choice(12, rng.integers(0, 13), replace=False))
        rs = frozenset(int(v) for v in rng.choice(12, rng.integers(0, 13), replace=False))
        assert quality(r, rs, xm) == 12 - len(r ^ rs)


def test_quality_rejects_non_subsets():
    with pytest.raises(ValueError):
        quality({9}, {1}, {1, 2})
    with pytest.raises(ValueError):
        quality({1}, {9}, {1, 2})


# --------------------------------------------------- stratum distribution

def test_stratum_pmf_closed_form_small():
    # eps=2, delta0=1 -> t=1
    d = stratum_distribution(1, PrivacyParams(epsilon=2.0))
    p = d.pmf_floats()
    e = math.e
    assert p == pytest.approx([1 / (1 + e), e / (1 + e)], rel=1e-12)

    d2 = stratum_distribution(2, PrivacyParams(epsilon=2.0))
    z = (1 + e) ** 2
    assert d2.pmf_floats() == pytest.approx([1 / z, 2 * e / z, e * e / z], rel=1e-12)


def test_stratum_pmf_is_binomial():
    # I ~ Binomial(n, sigma(t)) with sigma the logistic function
    for n in (0, 1, 4, 9, 25, 60):
        for eps in (0.1, 1.0, 10.0):
            d = stratum_distribution(n, PrivacyParams(epsilon=eps))
            t = eps / 2.0
            sigma = math.exp(t) / (1 + math.exp(t))
            want = stats.binom.pmf(np.arange(n + 1), n, sigma)
            got = d.pmf_floats()
            assert d.t == pytest.approx(t, rel=1e-15)
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-9)


def test_stratum_pmf_matches_exhaustive_totals():
    for n, eps in [(3, 0.1), (6, 1.0), (8, 3.0), (10, 10.0)]:
        elems = list(range(n))
        law = oracle.enumerate_exp_pmf(elems, elems[: n // 2], eps)
        totals = law.stratum_totals(elems[: n // 2])
        got = stratum_distribution(n, PrivacyParams(epsilon=eps)).pmf_floats()
        for i in range(n + 1):
            assert got[i] == pytest.approx(totals[i], rel=1e-9, abs=1e-30)


def test_stratum_rejects_negative_n():
    with pytest.raises(ValueError):
        stratum_distribution(-1, PrivacyParams(epsilon=1.0))


def test_two_stage_product_law():
    # P(S) factors as P(I = q(S)) / |stratum q(S)|
    n, eps = 6, 1.0
    elems = list(range(n))
    rs = [0, 1]
    law = oracle.enumerate_exp_pmf(elems, rs, eps)
    pmf = stratum_distribution(n, PrivacyParams(epsilon=eps)).pmf_floats()
    for s, m in zip(law.support, law.mass):
        q = quality(s, rs, elems)
        assert pmf[q] / math.comb(n, q) == pytest.approx(m, rel=1e-9)


def test_subset_law_pointwise():
    # pmf[i] / C(n,i) reproduces every subset probability
    for n, eps in [(5, 0.2), (9, 2.0), (12, 6.0)]:
        elems = list(range(n))
        law = oracle.enumerate_exp_pmf(elems, [], eps)
        d = stratum_distribution(n, PrivacyParams(epsilon=eps))
        for i in range(n + 1):
            per_set = float(d.pmf()[i]) / math.comb(n, i)
            # with R* empty, quality i means |S| = n - i
            member = frozenset(range(n - i))
            assert per_set == pytest.approx(law.mass_of(member), rel=1e-9)


def test_first_term_constant_is_the_inline_expression():
    # the constants e^-t and sigma = 1/(1 + e^-t) are computed once per
    # (t, context), by the same operations in the same order as the
    # inline expressions, and the first term is sigma^n
    ctx = DEFAULT_CONTEXT
    for eps in (0.1, 0.5, 1.0, 2.0, 7.0):
        t = eps / 2.0
        e = ctx.exp(ctx.fneg(ctx.mpf(t)))
        sigma = ctx.fdiv(1, ctx.fadd(1, e))
        assert forward._exp_neg(t, ctx) == (e, sigma)
        assert forward._exp_neg(t, ctx) is forward._exp_neg(t, ctx)
        dist = stratum_distribution(40, PrivacyParams(epsilon=eps))
        assert dist.pmf()[40] == sigma ** 40


# ------------------------------------------------ inverse transform sample

def _point_mass_log_pmf(n: int, k: int) -> list:
    """The log-pmf of a point mass at k over {0, ..., n}."""
    logs = [DEFAULT_CONTEXT.ninf] * (n + 1)
    logs[k] = DEFAULT_CONTEXT.mpf(0)
    return logs


def _point_mass_dist(n: int, k: int) -> StratumDistribution:
    """A distribution whose stored scan state is the complete upper tail
    of a point mass at k, P(I >= n) down to P(I >= 1), with its last
    term P(I = 1), so no draw extends it."""
    one, zero = DEFAULT_CONTEXT.mpf(1), DEFAULT_CONTEXT.mpf(0)
    d = StratumDistribution(n=n, t=0.0, ctx=DEFAULT_CONTEXT)
    d._scan = (tuple(one if j <= k else zero for j in range(n, 0, -1)),
               one if k == 1 else zero)
    return d


def test_inverse_transform_point_mass():
    rng = np.random.default_rng(0)
    for n in (1, 3, 7):
        for k in range(n + 1):
            d = _point_mass_dist(n, k)
            assert all(inverse_transform_sample(d, rng) == k for _ in range(25))


def test_inverse_transform_two_point():
    d = stratum_distribution(1, PrivacyParams(epsilon=2.0))
    rng = np.random.default_rng(1)
    hits = sum(inverse_transform_sample(d, rng) for _ in range(200_000))
    want = math.e / (1 + math.e)
    assert hits / 200_000 == pytest.approx(want, abs=0.005)


def _chi_square_sf(counts: np.ndarray, want: np.ndarray) -> float:
    """Chi-square p-value of counts against expected counts, with the
    cells expected below 5 merged into one."""
    keep = want >= 5  # merge thin tails out of the statistic
    chi2 = float(((counts[keep] - want[keep]) ** 2 / want[keep]).sum())
    dof = int(keep.sum()) - 1
    if (~keep).any():
        chi2 += float((counts[~keep].sum() - want[~keep].sum()) ** 2 / want[~keep].sum())
        dof += 1
    return stats.chi2.sf(chi2, dof)


def test_inverse_transform_chi_square():
    n, eps = 10, 1.0
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    rng = np.random.default_rng(2)
    draws = 100_000
    counts = np.zeros(n + 1)
    for _ in range(draws):
        counts[inverse_transform_sample(d, rng)] += 1
    assert _chi_square_sf(counts, d.pmf_floats() * draws) > 1e-3


@pytest.mark.parametrize("eps", [0.1, 7.0])
def test_inverse_transform_chi_square_low_and_high_budget(eps):
    # the law's mass sits near n/2 at eps 0.1 and at n at eps 7, so the
    # downward scan stops midway in one and at once in the other
    n, draws = 40, 50_000
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    rng = np.random.default_rng(3)
    counts = np.bincount([inverse_transform_sample(d, rng) for _ in range(draws)],
                         minlength=n + 1)
    assert _chi_square_sf(counts, d.pmf_floats() * draws) > 1e-3


def test_inverse_transform_tail_grows_to_the_drawn_stratum():
    # a draw on a fresh distribution sums the upper tail from I = n down
    # to the drawn stratum: n - I + 1 sums. I = 0 stores n, as the scan
    # returns it once P(I >= 1) falls short, without a last sum
    rng = np.random.default_rng(12)
    for n, eps in ((60, 0.1), (60, 1.0), (60, 7.0), (3, 0.1), (1, 1.0), (0, 1.0)):
        base = stratum_distribution(n, PrivacyParams(epsilon=eps))
        for _ in range(40):
            dist = dataclasses.replace(base)
            i = inverse_transform_sample(dist, rng)
            assert len(dist._scan[0]) == (n - i + 1 if i else n)


@lru_cache(maxsize=None)
def _bottom_up_log_pmf(n: int, eps: float) -> tuple:
    """The stratum log-pmf built from I = 0 up, with log C(n, i) and i*t
    accumulated term by term, independently of forward's recurrence."""
    mp = DEFAULT_CONTEXT
    t = mp.fdiv(mp.mpf(eps), 2)
    norm = mp.fmul(n, mp.log1p(mp.exp(t)))
    pmf, log_choose = [mp.fneg(norm)], mp.mpf(0)
    for i in range(1, n + 1):
        log_choose = mp.fsub(mp.fadd(log_choose, mp.log(n - i + 1)), mp.log(i))
        pmf.append(mp.fsub(mp.fadd(log_choose, mp.fmul(i, t)), norm))
    return tuple(pmf)


def _scan_reference(log_pmf, rng: np.random.Generator) -> int:
    """The plain log-domain upper-tail scan: from u = log_pmf[n], iteration
    k over 1..n returns n-k+1 the first time u >= psi holds at loop
    entry, and 0 if the scan completes."""
    ctx = DEFAULT_CONTEXT
    psi = ctx.mpf(sample_neg_exp1(rng))
    n = len(log_pmf) - 1
    u = log_pmf[n]
    for k in range(1, n + 1):
        if u >= psi:
            return n - k + 1
        u = log_add(u, log_pmf[n - k], ctx)
    return 0


def _same_draws_as_scan(dist: StratumDistribution, log_pmf, seed: int, draws: int,
                        fresh=dataclasses.replace) -> None:
    # a fresh copy starts with no stored tail prefix; the shared one may
    # already hold some, so both paths are compared with the scan of an
    # independently built log-pmf
    for d in (fresh(dist), dist):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [inverse_transform_sample(d, rng_a) for _ in range(draws)]
        want = [_scan_reference(log_pmf, rng_b) for _ in range(draws)]
        assert got == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


# 4989 is |X^-| of every ego in the CLI sweep on --synthetic n=10000,m=15
@pytest.mark.parametrize(
    "eps,n", [(eps, n) for eps in (0.1, 0.5, 1.0, 1.5, 3.0, 4.0, 7.0, 30.0)
              for n in (0, 1, 2, 10, 49, 200)] + [(eps, 4989) for eps in (0.1, 1.0, 7.0)])
def test_inverse_transform_matches_linear_scan(eps, n):
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    _same_draws_as_scan(d, _bottom_up_log_pmf(n, eps), seed=n * 1000 + int(eps * 10),
                        draws=100 if n < 1000 else 10)


def test_inverse_transform_point_mass_matches_linear_scan():
    for n in (1, 3, 7):
        for k in range(n + 1):
            _same_draws_as_scan(_point_mass_dist(n, k), _point_mass_log_pmf(n, k),
                                seed=10 * n + k, draws=50,
                                fresh=lambda d: _point_mass_dist(d.n, k))


def test_fresh_draw_computes_only_the_terms_it_reaches():
    # a draw on a fresh distribution stores the upper tail from I = n
    # down to the drawn stratum, n - I + 1 sums, and the last term it
    # computed, P(I = max(I, 1)). I = 0 takes n terms, as the scan
    # returns it once P(I >= 1) falls short
    rng = np.random.default_rng(13)
    for n, eps in ((60, 0.1), (60, 1.0), (60, 7.0), (3, 0.1), (1, 1.0)):
        base = stratum_distribution(n, PrivacyParams(epsilon=eps))
        pmf = base.pmf()
        for _ in range(40):
            dist = dataclasses.replace(base)
            i = inverse_transform_sample(dist, rng)
            tail, term = dist._scan
            assert len(tail) == (n - i + 1 if i else n)
            assert term == pmf[max(i, 1)]
    dist = dataclasses.replace(stratum_distribution(0, PrivacyParams(epsilon=1.0)))
    assert inverse_transform_sample(dist, rng) == 0 and dist._scan == ((), None)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 1.5, 3.0, 7.0])
def test_lazy_pmf_after_partial_draws_equals_bottom_up(eps):
    # the full pmf, built on request after a few draws stored part of
    # the tail, is the bottom-up pmf
    for n in (0, 1, 2, 7, 31, 200, 4989):
        d = dataclasses.replace(stratum_distribution(n, PrivacyParams(epsilon=eps)))
        rng = np.random.default_rng(n)
        for _ in range(3):
            inverse_transform_sample(d, rng)
        assert len(d._scan[0]) <= n
        want = _bottom_up_log_pmf(n, eps)
        got = [DEFAULT_CONTEXT.log(p) for p in d.pmf()]
        assert all(abs(float(a - b)) <= 1e-12 for a, b in zip(got, want, strict=True))
        floats = np.array([float(DEFAULT_CONTEXT.exp(b)) for b in want])
        assert np.allclose(d.pmf_floats(), floats, rtol=1e-12, atol=0)


def test_inverse_transform_zero_nodes():
    d = stratum_distribution(0, PrivacyParams(epsilon=1.0))
    assert inverse_transform_sample(d, np.random.default_rng(0)) == 0


# ------------------------------------------------------------ pick and flip

def test_pick_and_flip_extreme_strata():
    rng = np.random.default_rng(3)
    xm = list(range(8))
    rs = {1, 4, 6}
    for _ in range(20):
        assert pick_and_flip(xm, rs, 8, rng) == frozenset(rs)
        assert pick_and_flip(xm, rs, 0, rng) == frozenset(xm) - rs


def test_pick_and_flip_hits_requested_stratum():
    rng = np.random.default_rng(4)
    xm = list(range(9))
    for _ in range(300):
        rs = frozenset(int(v) for v in rng.choice(9, rng.integers(0, 10), replace=False))
        i = int(rng.integers(0, 10))
        r = pick_and_flip(xm, rs, i, rng)
        assert quality(r, rs, xm) == i


def test_pick_and_flip_uniform_within_stratum():
    # n=6, |S delta R*| = 2 -> C(6,2) = 15 equally likely sets
    rng = np.random.default_rng(5)
    xm = list(range(6))
    rs = {0, 1}
    draws = 30_000
    counts = Counter(pick_and_flip(xm, rs, 4, rng) for _ in range(draws))
    assert len(counts) == 15
    want = draws / 15
    chi2 = sum((c - want) ** 2 / want for c in counts.values())
    assert stats.chi2.sf(chi2, 14) > 1e-3


def test_pick_and_flip_range_check():
    with pytest.raises(ValueError):
        pick_and_flip([0, 1, 2], {0}, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        pick_and_flip([0, 1, 2], {0}, -1, np.random.default_rng(0))
    for outside in ({5}, {-1}, {0, 3}):  # R* must lie inside X^-
        with pytest.raises(ValueError):
            pick_and_flip([0, 1, 2], outside, 1, np.random.default_rng(0))


# ---------------------------------------------------------- full sampler

def _star_pg(x_leaves: int, y_leaves: int):
    edges = [("a", f"x{i}") for i in range(x_leaves)]
    edges += [("a", f"y{i}") for i in range(y_leaves)]
    x_labels = {"a", *(f"x{i}" for i in range(x_leaves))}
    return make_pg(edges, x_labels)


def test_forward_message_high_budget_returns_true_set():
    pg = _star_pg(20, 2)
    ectx = ego_context(pg, "a")
    rng = np.random.default_rng(6)
    params = PrivacyParams(epsilon=100.0)
    for _ in range(1000):
        msg = forward_message(pg, "a", params, rng=rng)
        assert msg.R == ectx.R_star


def test_forward_message_empty_x_side():
    pg = _star_pg(0, 3)
    msg = forward_message(pg, "a", PrivacyParams(epsilon=1.0),
                          rng=np.random.default_rng(0))
    assert isinstance(msg, ForwardMsg)
    assert msg.R == frozenset() and msg.member.size == 0


def test_forward_message_requires_rng():
    pg = _star_pg(2, 2)
    with pytest.raises(ValueError):
        forward_message(pg, "a", PrivacyParams(epsilon=1.0))


def test_forward_message_rejects_tampered_sensitivity():
    pg = _star_pg(2, 2)
    ectx = ego_context(pg, "a")
    with pytest.raises(ValueError):
        forward_message_from_context(ectx, PrivacyParams(epsilon=1.0, delta0=2.0),
                                     DEFAULT_CONTEXT, np.random.default_rng(0))


def test_forward_message_deterministic_under_seed():
    pg = _star_pg(10, 3)
    params = PrivacyParams(epsilon=0.5)
    a = [forward_message(pg, "a", params, rng=np.random.default_rng(7)).R
         for _ in range(5)]
    b = [forward_message(pg, "a", params, rng=np.random.default_rng(7)).R
         for _ in range(5)]
    assert a == b


def test_forward_sampler_matches_exhaustive_law():
    # empirical law over all 64 subsets vs the exact one
    n, eps = 6, 1.0
    xm = np.arange(n, dtype=np.int64)
    rs = {0, 1}
    law = oracle.enumerate_exp_pmf(range(n), rs, eps)
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    rng = np.random.default_rng(8)
    draws = 20_000
    counts: Counter = Counter()
    for _ in range(draws):
        i = inverse_transform_sample(d, rng)
        counts[pick_and_flip(xm, rs, i, rng)] += 1
    empirical = {s: counts.get(s, 0) / draws for s in law.support}
    assert oracle.tv_distance(empirical, law) < 0.05
