import math
from collections import Counter
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy import stats

from privebc import (
    ForwardMsg,
    PrivacyParams,
    ProtocolConfig,
    forward_message,
    run_session,
)
from privebc import ego_context, oracle
from privebc.dpnum import DEFAULT_CONTEXT, flip_cut
from privebc.forward import (
    inverse_transform_sample,
    pick_and_flip,
    stratum_distribution,
)
from privebc.oracle import quality, stratum_pmf

from .conftest import make_pg, p_scaled_floor


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
    p = stratum_pmf(1, 1.0)
    e = math.e
    assert p == pytest.approx([1 / (1 + e), e / (1 + e)], rel=1e-12)

    z = (1 + e) ** 2
    assert stratum_pmf(2, 1.0) == pytest.approx([1 / z, 2 * e / z, e * e / z], rel=1e-12)


def test_stratum_pmf_is_binomial():
    # I ~ Binomial(n, sigma(t)) with sigma the logistic function
    for n in (0, 1, 4, 9, 25, 60):
        for eps in (0.1, 1.0, 10.0):
            d = stratum_distribution(n, PrivacyParams(epsilon=eps))
            t = eps / 2.0
            sigma = math.exp(t) / (1 + math.exp(t))
            want = stats.binom.pmf(np.arange(n + 1), n, sigma)
            got = stratum_pmf(n, d.t)
            assert d.t == pytest.approx(t, rel=1e-15)
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-9)


def test_stratum_pmf_matches_exhaustive_totals():
    for n, eps in [(3, 0.1), (6, 1.0), (8, 3.0), (10, 10.0)]:
        elems = list(range(n))
        law = oracle.enumerate_exp_pmf(elems, elems[: n // 2], eps)
        totals = law.stratum_totals(elems[: n // 2])
        got = stratum_pmf(n, eps / 2.0)
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
    pmf = stratum_pmf(n, eps / 2.0)
    for s, m in zip(law.support, law.mass):
        q = quality(s, rs, elems)
        assert pmf[q] / math.comb(n, q) == pytest.approx(m, rel=1e-9)


def test_subset_law_pointwise():
    # pmf[i] / C(n,i) reproduces every subset probability
    for n, eps in [(5, 0.2), (9, 2.0), (12, 6.0)]:
        elems = list(range(n))
        law = oracle.enumerate_exp_pmf(elems, [], eps)
        pmf = stratum_pmf(n, eps / 2.0)
        for i in range(n + 1):
            per_set = pmf[i] / math.comb(n, i)
            # with R* empty, quality i means |S| = n - i
            member = frozenset(range(n - i))
            assert per_set == pytest.approx(law.mass_of(member), rel=1e-9)


# ------------------------------------------------ inverse transform sample

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
    assert _chi_square_sf(counts, stratum_pmf(n, d.t) * draws) > 1e-3


@pytest.mark.parametrize("eps", [0.1, 7.0])
def test_inverse_transform_chi_square_low_and_high_budget(eps):
    # the law's mass sits near n/2 at eps 0.1 and at n at eps 7, so the
    # downward scan stops midway in one and at once in the other
    n, draws = 40, 50_000
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    rng = np.random.default_rng(3)
    counts = np.bincount([inverse_transform_sample(d, rng) for _ in range(draws)],
                         minlength=n + 1)
    assert _chi_square_sf(counts, stratum_pmf(n, d.t) * draws) > 1e-3


_MP300 = mpmath.MPContext()
_MP300.prec = 300


@lru_cache(maxsize=None)
def _bottom_up_log_pmf(n: int, eps: float) -> tuple:
    """The stratum log-pmf built from I = 0 up, at 300 bits, with log
    C(n, i) and i*t accumulated term by term, independently of
    oracle.stratum_pmf's closed form."""
    mp = _MP300
    t = mp.fdiv(mp.mpf(eps), 2)
    norm = mp.fmul(n, mp.log1p(mp.exp(t)))
    pmf, log_choose = [mp.fneg(norm)], mp.mpf(0)
    for i in range(1, n + 1):
        log_choose = mp.fsub(mp.fadd(log_choose, mp.log(n - i + 1)), mp.log(i))
        pmf.append(mp.fsub(mp.fadd(log_choose, mp.fmul(i, t)), norm))
    return tuple(pmf)


_scaled_floor = lru_cache(maxsize=None)(p_scaled_floor)


def _trial_reference(t: float, u: int, words) -> bool:
    """Whether U < p, for U with first 53 bits u and further bits the
    64-bit words: compare U's cell with floor(p * 2^bits), one more word
    while the two are equal."""
    num, bits = u, 53
    while num == _scaled_floor(t, bits):
        num, bits = (num << 64) | next(words), bits + 64
    return num < _scaled_floor(t, bits)


def _stratum_reference(n: int, t: float, rng: np.random.Generator) -> int:
    """n minus the nodes whose trial flips, each drawn integer compared
    with p in pure Python."""
    draws = rng.integers(0, 2**53, n).tolist()
    words = iter(rng.bit_generator.random_raw, None)
    return n - sum(_trial_reference(t, u, words) for u in draws)


# 4989 is |X^-| of every ego in the CLI sweep on --synthetic n=10000,m=15
@pytest.mark.parametrize(
    "eps,n", [(eps, n) for eps in (0.1, 0.5, 1.0, 1.5, 3.0, 4.0, 7.0, 30.0)
              for n in (0, 1, 2, 10, 49, 200)] + [(eps, 4989) for eps in (0.1, 1.0, 7.0)])
def test_inverse_transform_matches_linear_scan(eps, n):
    # draw for draw, the count of flipped trials equals a pure-Python
    # scan over the same integers, and both read the same words
    d = stratum_distribution(n, PrivacyParams(epsilon=eps))
    seed = n * 1000 + int(eps * 10)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = 100 if n < 1000 else 10
    got = [inverse_transform_sample(d, rng_a) for _ in range(draws)]
    want = [_stratum_reference(n, d.t, rng_b) for _ in range(draws)]
    assert got == want
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("eps", [0.1, 1.0, 7.0])
def test_private_session_does_no_default_context_arithmetic(eps, monkeypatch, mixed_pg):
    # the 300-bit context's number type raises if called: a private
    # session draws I from integer trials
    def refuse(*args, **kwargs):
        raise AssertionError("a session used the 300-bit context")

    monkeypatch.setattr(DEFAULT_CONTEXT, "mpf", refuse)
    for seed in range(5):
        res = run_session(mixed_pg, "a", ProtocolConfig(epsilon=eps), np.random.default_rng(seed))
        assert math.isfinite(res.value)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 1.5, 3.0, 7.0])
def test_lazy_pmf_after_partial_draws_equals_bottom_up(eps):
    # the closed-form pmf is the bottom-up pmf (the name is older than
    # the closed form, and kept so that the test's id is stable)
    for n in (0, 1, 2, 7, 31, 200, 4989):
        want = _bottom_up_log_pmf(n, eps)
        floats = np.array([float(_MP300.exp(b)) for b in want])
        assert np.allclose(stratum_pmf(n, eps / 2.0), floats, rtol=1e-12, atol=0)


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
    with pytest.raises(ValueError, match="quality sensitivity 1"):
        forward_message(pg, "a", PrivacyParams(epsilon=1.0, delta0=2.0),
                        rng=np.random.default_rng(0))


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


# -------------------------------------------------------- fused release

def _release_pg(n_minus: int, r_star: int):
    """Ego a with |X^-| = n_minus, of which x0 .. x{r_star - 1} are a's
    neighbours and every other X node hangs off a Y node; and R*'s
    membership bits over X^- in index (label) order."""
    edges = [("a", "y0"), ("a", "y1")]
    edges += [("a", f"x{i}") if i < r_star else (f"x{i}", "y0") for i in range(n_minus)]
    member = [i < r_star for i in sorted(range(n_minus), key=lambda i: f"x{i}")]
    return make_pg(edges, {"a", *(f"x{i}" for i in range(n_minus))}), member


def _release_reference(n: int, member: list[bool], t: float,
                       rng: np.random.Generator) -> list[bool]:
    """R*'s membership bits, each flipped where its node's trial succeeds:
    node i's trial reads the top 53 bits of the i-th raw word, compared
    with p in pure Python, then the words after all n on a tie."""
    firsts = [int(w) >> 11 for w in rng.bit_generator.random_raw(n)]
    words = iter(rng.bit_generator.random_raw, None)
    return [m != _trial_reference(t, u, words) for m, u in zip(member, firsts)]


def _tie_exponent(cut: int) -> float:
    """A double t > 0 whose cut floor(2^53 / (1 + e^t)) is `cut`."""
    with mpmath.workprec(200):
        t = float(mpmath.log(mpmath.mpf(2) ** 53 / (cut + mpmath.mpf(0.5)) - 1))
    for _ in range(256):
        got = p_scaled_floor(t, 53)
        if got == cut:
            return t
        t = math.nextafter(t, math.inf if got > cut else 0.0)
    raise AssertionError(f"no double exponent has cut {cut}")


@pytest.mark.parametrize("n,r_star", [(0, 0), (1, 1), (6, 2), (13, 0), (40, 17), (200, 90)])
def test_release_matches_pure_python_reference(n, r_star):
    # draw for draw, the released bits are R*'s bits XOR a pure-Python
    # trial per raw word, and both read the same words
    pg, member = _release_pg(n, r_star)
    for eps in (0.1, 0.5, 1.0, 3.0, 7.0):
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = forward_message(pg, "a", PrivacyParams(epsilon=eps), rng=rng_a)
            assert got.member.tolist() == _release_reference(n, member, eps / 2, rng_b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_release_tie_matches_pure_python_reference():
    # an exponent whose cut equals one node's first 53 bits makes that
    # node's trial a tie, which reads the word after all |X^-| of them
    n, r_star = 9, 4
    pg, member = _release_pg(n, r_star)
    for seed in range(6):
        firsts = np.random.default_rng(seed).bit_generator.random_raw(n) >> 11
        node = int(np.argmin(firsts))
        assert firsts[node] < 2**52  # so p < 1/2 and t > 0
        t = _tie_exponent(int(firsts[node]))
        assert flip_cut(t) == firsts[node]
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = forward_message(pg, "a", PrivacyParams(epsilon=2 * t), rng=rng_a)
        assert got.member.tolist() == _release_reference(n, member, t, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        ahead = np.random.default_rng(seed)
        ahead.bit_generator.random_raw(n + 1)  # the tie read one more word
        assert rng_a.bit_generator.state == ahead.bit_generator.state


def test_release_without_a_tie_reads_one_word_per_node():
    for n in (0, 1, 5, 64, 333):
        pg, _ = _release_pg(n, n // 3)
        for eps in (0.1, 1.0, 7.0):
            rng, ahead = np.random.default_rng(n), np.random.default_rng(n)
            cut = flip_cut(eps / 2)
            assert cut not in (np.random.default_rng(n).bit_generator.random_raw(n) >> 11)
            forward_message(pg, "a", PrivacyParams(epsilon=eps), rng=rng)
            ahead.bit_generator.random_raw(n)
            assert rng.bit_generator.state == ahead.bit_generator.state


@pytest.mark.parametrize("eps", [0.5, 3.0])
def test_release_chi_square_against_exhaustive_law(eps):
    # 1e5 releases at |X^-| = 6, keyed by their membership bits, against
    # the exponential mechanism's law over all 64 subsets
    n, draws = 6, 100_000
    pg, _ = _release_pg(n, 2)
    ectx = ego_context(pg, "a")
    law = oracle.enumerate_exp_pmf(ectx.x_minus_sorted.tolist(), ectx.R_star, eps)
    rng = np.random.default_rng(9)
    weights = 1 << np.arange(n)  # bit j is X^-'s j-th node, as in the law's masks
    keys = [int(forward_message(pg, "a", PrivacyParams(epsilon=eps), rng=rng).member @ weights)
            for _ in range(draws)]
    counts = np.bincount(keys, minlength=1 << n)
    assert _chi_square_sf(counts, np.array(law.mass) * draws) > 1e-3
