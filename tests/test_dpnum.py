from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from privebc import PrivacyParams, ProtocolConfig, forward, oracle, run_session
from privebc.dpnum import (
    _SLICE,
    DEFAULT_CONTEXT,
    MAX_SCALE,
    flip_cut,
    flip_trials,
    geometric_runs,
    geometric_scale,
    resolve_cell,
)

from .conftest import p_scaled_floor


# ---------------------------------------------------------------------------
# DEFAULT_CONTEXT / PrivacyParams
# ---------------------------------------------------------------------------

def test_default_context_precision():
    # the context perfbench's trace reads keeps its precision
    assert DEFAULT_CONTEXT.prec == 300


def test_no_context_is_built_after_import(monkeypatch, mixed_pg):
    # no stratum draw, pmf or session builds an mpmath context
    built = []

    class CountingContext(mpmath.MPContext):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mpmath, "MPContext", CountingContext)
    params = PrivacyParams(epsilon=1.0)
    rng = np.random.default_rng(0)
    for n in range(40, 60):
        d = forward.stratum_distribution(n, params)
        forward.inverse_transform_sample(d, rng)
        oracle.stratum_pmf(n, d.t)
    config = ProtocolConfig(epsilon=1.0)
    for seed in (0, 1):
        run_session(mixed_pg, "a", config, np.random.default_rng(seed))
    assert built == []


def test_privacy_params_validation():
    PrivacyParams(epsilon=1.0)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=0.0)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=1.0, delta0=0.0)


def test_privacy_params_reject_non_finite_epsilon():
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=eps)


# ---------------------------------------------------------------------------
# two-sided geometric (discrete Laplace) noise
# ---------------------------------------------------------------------------

def _pmf(z, scale):
    """The two-sided geometric pmf (1 - q)/(1 + q) q^|z|, q = e^(-1/scale)."""
    q = math.exp(-1.0 / scale)
    return (1.0 - q) / (1.0 + q) * np.power(q, np.abs(z))


def _variance(scale):
    q = math.exp(-1.0 / scale)
    return 2.0 * q / (1.0 - q) ** 2


def test_laplace_rejects_bad_scale():
    # scales come from geometric_scale, which refuses any outside (0, MAX_SCALE]
    for numerator, eps in ((0, 1.0), (4, math.inf), (1 << 60, 1.0), (4, 5e-324)):
        with pytest.raises(ValueError):
            geometric_scale(numerator, eps)
    assert geometric_scale(1 << 52, 1.0) == MAX_SCALE


def test_laplace_scale_rounds_up():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        numerator = int(rng.integers(1, 10**6))
        eps = float(rng.uniform(1e-3, 10.0))
        scale = geometric_scale(numerator, eps)
        # never below numerator / eps, and at most one ulp above it
        assert Fraction(scale) * Fraction(eps) >= numerator
        assert Fraction(math.nextafter(scale, 0.0)) * Fraction(eps) < numerator
    assert geometric_scale(4, 0.5) == 8.0  # exact quotients stay exact


def test_laplace_moments_and_median():
    rng = np.random.default_rng(4)
    draws = geometric_runs([(10**6, 1.0)], rng)
    assert draws.dtype == np.int64
    assert abs(draws.mean()) < 0.01
    # P(Z = 0) = (1 - q)/(1 + q), and the law is symmetric
    assert np.mean(draws == 0) == pytest.approx(_pmf(0, 1.0), abs=0.002)
    assert np.mean(draws > 0) == pytest.approx(np.mean(draws < 0), abs=0.002)


def test_laplace_variance_scale_two():
    rng = np.random.default_rng(5)
    draws = geometric_runs([(10**6, 2.0)], rng)
    assert draws.var() == pytest.approx(_variance(2.0), rel=0.01)


def test_laplace_ks_against_closed_form():
    # Kolmogorov-Smirnov distance to the closed-form CDF, against the DKW
    # bound at p = 1e-3: F(z) = q^-z / (1 + q) below 0, 1 - q^(z+1) / (1 + q) from 0
    n, scale = 10**6, 1.5
    rng = np.random.default_rng(6)
    draws = np.sort(geometric_runs([(n, scale)], rng))
    q = math.exp(-1.0 / scale)
    z = np.arange(draws[0], draws[-1] + 1)
    cdf = np.where(z < 0, np.power(q, -z) / (1.0 + q), 1.0 - np.power(q, z + 1) / (1.0 + q))
    empirical = np.searchsorted(draws, z, side="right") / n
    assert np.abs(empirical - cdf).max() < math.sqrt(math.log(2 / 1e-3) / (2 * n))


@pytest.mark.parametrize("scale", [0.5, 3.0, 240.0])
def test_laplace_chi_square_against_pmf(scale):
    rng = np.random.default_rng(6)
    draws = geometric_runs([(10**5, scale)], rng)
    # bins: every z whose expected count is at least 5, plus both tails
    zmax = 0
    while 10**5 * _pmf(zmax + 1, scale) >= 5:
        zmax += 1
    edges = np.arange(-zmax, zmax + 1)
    observed = np.array([np.count_nonzero(draws < -zmax)]
                        + [np.count_nonzero(draws == z) for z in edges]
                        + [np.count_nonzero(draws > zmax)])
    inner = _pmf(edges, scale)
    tail = (1.0 - inner.sum()) / 2.0
    expected = 10**5 * np.concatenate(([tail], inner, [tail]))
    if tail * 10**5 < 5:  # merge thin tails into their neighbours
        observed = np.concatenate(([observed[:2].sum()], observed[2:-2], [observed[-2:].sum()]))
        expected = np.concatenate(([expected[:2].sum()], expected[2:-2], [expected[-2:].sum()]))
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 1e-3


def _each(scale):
    """One run per entry of a scale array, so that every entry may have
    its own scale."""
    return [(1, float(s)) for s in scale]


def test_laplace_reproducible():
    scale = np.linspace(0.5, 500.0, 50)
    a = geometric_runs(_each(scale), np.random.default_rng(7))
    b = geometric_runs(_each(scale), np.random.default_rng(7))
    assert a.tolist() == b.tolist()


def test_laplace_array_matches_scalar_draws():
    # n entries and then m entries read the stream that n + m do at once,
    # while no cell among the first n is open
    for seed in range(20):
        for n, m in ((0, 1), (1, 1), (17, 1), (2500, 1)):
            scale = np.random.default_rng(100 + seed).uniform(0.5, 4096.0, n + m)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            whole = geometric_runs(_each(scale), a)
            parts = np.concatenate((geometric_runs(_each(scale[:n]), b),
                                    geometric_runs(_each(scale[n:]), b)))
            assert whole.tolist() == parts.tolist()
            assert a.bit_generator.state == b.bit_generator.state
    # an open cell reads further words right after its own batch's
    # uniforms, so a split draw then shifts the second batch: entry 0's
    # G2 reads U's zero cell here
    scale = np.full(5, 2.0)
    whole = geometric_runs(_each(scale), _zero_uniform_at(11, 1))
    b = _zero_uniform_at(11, 1)
    first, second = geometric_runs(_each(scale[:3]), b), geometric_runs(_each(scale[3:]), b)
    c = _zero_uniform_at(11, 1)
    c.random(6)
    resolve_cell(2.0, 0, iter(c.bit_generator.random_raw, None))
    assert second.tolist() == geometric_runs(_each(scale[3:]), c).tolist()
    assert first[1:].tolist() == whole[1:3].tolist()
    assert first[0] != whole[0] and second.tolist() != whole[3:].tolist()


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_uniform_at(seed: int, k: int) -> np.random.Generator:
    """A PCG64 generator whose k-th uniform (from 0) is exactly 0.0: its
    state is set k + 1 steps before the LCG state 0, whose output is 0."""
    rng = np.random.default_rng(seed)
    st = rng.bit_generator.state
    inc, state = st["state"]["inc"], 0
    for _ in range(k + 1):
        state = (state - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    st["state"]["state"] = state
    rng.bit_generator.state = st
    return rng


def test_laplace_array_skips_zero_uniforms_like_scalar():
    # U's zero cell is never decided in float: its image is unbounded, so
    # the sampler reads U's further bits from the generator's next words,
    # after all of the reply's uniforms, also when the cell falls in a
    # later slice of the sampler's arithmetic
    for n, k in ((3, 1), (_SLICE, _SLICE + 3)):  # uniform k is entry k // 2's G2
        scale = 2.0 + np.arange(n) % 7
        got = geometric_runs(_each(scale), _zero_uniform_at(11, k))
        rng = _zero_uniform_at(11, k)
        cells = rng.random((n, 2))
        assert cells[k // 2, 1] == 0.0 and np.count_nonzero(cells) == 2 * n - 1
        g = np.floor(-scale[:, None] * np.log(cells + 2.0**-53)).astype(np.int64)
        g[k // 2, 1] = resolve_cell(scale[k // 2], 0, iter(rng.bit_generator.random_raw, None))
        assert g[k // 2, 1] >= scale[k // 2] * 53 * math.log(2)  # U below 2^-53
        assert got.tolist() == (g[:, 0] - g[:, 1]).tolist()


def _floor_image(scale, num, bits):
    """floor(-scale ln U) at U = (num + 1/2) 2^-bits, at 2000 bits."""
    with mpmath.workprec(2000):
        u = (mpmath.mpf(num) + mpmath.mpf(0.5)) * mpmath.mpf(2) ** -bits
        return int(mpmath.floor(-mpmath.mpf(scale) * mpmath.log(u)))


def test_resolve_cell_reads_words_only_when_the_cell_is_open():
    rng = np.random.default_rng(12)
    for scale in (0.5, 3.0, 240.0, 97160.0):
        for cell in rng.integers(1, 2**53, 50).tolist():
            words = iter([])  # a decided cell reads nothing
            try:
                got = resolve_cell(scale, cell, words)
            except StopIteration:
                continue  # an open cell: covered below
            assert got == _floor_image(scale, cell, 53)


def test_resolve_cell_forced_ambiguous_cell():
    # the cell holding U = e^(-g/scale) maps onto an interval around g:
    # U's next bits decide between g - 1 and g
    for scale, g in ((3.0, 5), (0.5, 1), (240.0, 1000), (97160.0, 12345)):
        with mpmath.workprec(200):
            cell = int(mpmath.floor(mpmath.exp(-mpmath.mpf(g) / scale) * 2**53))
        with pytest.raises(StopIteration):
            resolve_cell(scale, cell, iter([]))
        for word in (0, 1 << 63, 2**64 - 1, 0x5DEECE66D):
            got = resolve_cell(scale, cell, iter([word, 0, 0, 0]))
            assert got in (g - 1, g)
            assert got == _floor_image(scale, (cell << 64) | word, 117)
        assert resolve_cell(scale, cell, iter([0])) == g
        assert resolve_cell(scale, cell, iter([2**64 - 1])) == g - 1


def test_resolve_cell_zero_cell():
    # U in [0, 2^-53]: zero words keep U's interval at 0, a set bit decides
    assert resolve_cell(3.0, 0, iter([1 << 63])) == _floor_image(3.0, 1 << 63, 117) == 112
    assert resolve_cell(3.0, 0, iter([0, 0, 1 << 63])) == 378
    assert resolve_cell(3.0, 0, iter([0, 0, 1 << 63])) == _floor_image(3.0, 1 << 63, 245)
    # the top cell: U in [1 - 2^-53, 1] gives G = 0 at any scale below 2^52
    assert resolve_cell(1e6, 2**53 - 1, iter([])) == 0


# ---------------------------------------------------------------------------
# Bernoulli trials of the set release
# ---------------------------------------------------------------------------

_TRIAL_EPS = (0.1, 0.5, 1.0, 1.5, 3.0, 7.0, 30.0, 80.0)


@pytest.mark.parametrize("eps", _TRIAL_EPS)
def test_flip_cut_is_the_floor_of_p_times_2_to_53(eps):
    t = eps / 2.0
    assert flip_cut(t) == p_scaled_floor(t, 53)
    assert 0 <= flip_cut(t) < 2**52  # p < 1/2
    if eps == 80.0:  # p = 4.2e-18: no 53-bit integer lies below p * 2^53
        assert flip_cut(t) == 0


@pytest.mark.parametrize("eps", _TRIAL_EPS)
def test_flip_trials_tie_reads_words_against_p(eps):
    # an integer at the cut is a tie: a next word just below
    # floor(frac(p * 2^53) * 2^64) flips, one just above does not, and
    # one equal to it reads a third word against the next 64 bits of p
    t = eps / 2.0
    cut = p_scaled_floor(t, 53)
    frac_word = p_scaled_floor(t, 117) - (cut << 64)
    next_word = p_scaled_floor(t, 181) - (p_scaled_floor(t, 117) << 64)
    assert 0 < frac_word < 2**64 - 1 and 0 < next_word < 2**64 - 1
    draws = np.array([cut, cut - 1, cut + 1] if cut else [cut, cut + 1], dtype=np.int64)
    decided = [True, False] if cut else [False]  # entries below and above the cut
    for words, tie_flips in (([frac_word - 1], True), ([frac_word + 1], False),
                             ([frac_word, next_word - 1], True),
                             ([frac_word, next_word + 1], False)):
        # the independent comparison: U's first 53 + 64k bits against p's
        num = (cut << 64 * len(words)) + sum(w << 64 * (len(words) - 1 - k)
                                             for k, w in enumerate(words))
        assert (num < p_scaled_floor(t, 53 + 64 * len(words))) is tie_flips
        left = iter([*words, 12345])
        got = flip_trials(draws, t, left)
        assert got.tolist() == [tie_flips, *decided]
        assert next(left) == 12345  # the tie read exactly its own words
    # two ties read their words in entry order
    got = flip_trials(np.array([cut, cut]), t, iter([frac_word - 1, frac_word + 1]))
    assert got.tolist() == [True, False]


def test_flip_trials_without_a_tie_reads_no_word():
    rng = np.random.default_rng(5)
    for eps in _TRIAL_EPS:
        t = eps / 2.0
        draws = rng.integers(0, 2**53, 1000)
        draws = draws[draws != flip_cut(t)]
        got = flip_trials(draws, t, iter([]))
        assert np.array_equal(got, draws < p_scaled_floor(t, 53))



def test_float_log_within_the_assumed_bound():
    # the float decision assumes np.log within 2^-44 relative of ln
    rng = np.random.default_rng(13)
    cells = np.concatenate((rng.integers(1, 2**53, 2000), np.arange(1, 200),
                            2**53 - np.arange(1, 200), 2**np.arange(0, 53)))
    u = cells.astype(np.float64) * 2.0**-53 + 2.0**-53
    got = np.log(u)
    with mpmath.workprec(200):
        for x, lg in zip(u.tolist(), got.tolist()):
            want = mpmath.log(mpmath.mpf(x))
            if want == 0:
                assert lg == 0.0
            else:
                assert abs((mpmath.mpf(lg) - want) / want) <= mpmath.mpf(2) ** -44
