from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from privebc import (
    DEFAULT_CONTEXT,
    PrivacyParams,
    ProtocolConfig,
    forward,
    run_session,
    stratum_distribution,
)
from privebc.dpnum import (
    _SLICE,
    MAX_SCALE,
    geometric_scale,
    resolve_cell,
    two_sided_geometric,
)
from privebc.oracle import log_add, sample_neg_exp1


# ---------------------------------------------------------------------------
# DEFAULT_CONTEXT / PrivacyParams
# ---------------------------------------------------------------------------

def test_default_context_precision():
    # one precision for every session
    assert DEFAULT_CONTEXT.prec == 300


def test_no_context_is_built_after_import(monkeypatch, mixed_pg):
    # every pmf and every session runs on DEFAULT_CONTEXT
    built = []

    class CountingContext(mpmath.MPContext):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mpmath, "MPContext", CountingContext)
    # every distribution below is a cache miss
    forward._stratum_distribution.cache_clear()
    params = PrivacyParams(epsilon=1.0)
    rng = np.random.default_rng(0)
    for n in range(40, 60):
        d = stratum_distribution(n, params)
        forward.inverse_transform_sample(d, rng)
        d.pmf_floats()
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
# log_add
# ---------------------------------------------------------------------------

def _to_mpf(ctx, v):
    # round-trip through mpmath's faithful repr
    return mpmath.mpf(str(v))


def test_log_add_neg_inf_identity():
    ctx = DEFAULT_CONTEXT
    y = ctx.mpf(2.5)
    assert log_add(ctx.ninf, y) is y
    assert log_add(y, ctx.ninf) is y
    assert log_add(ctx.ninf, ctx.ninf) == ctx.ninf


def test_log_add_exact_small_case():
    got = float(log_add(math.log(2), math.log(3)))
    assert got == pytest.approx(math.log(5), abs=1e-14)


def test_log_add_matches_extended_precision_oracle():
    ctx = DEFAULT_CONTEXT
    rng = np.random.default_rng(0)
    tol = mpmath.mpf(2) ** (-(ctx.prec - 10))  # 2 ulp plus decimal round-trip slack
    with mpmath.workprec(ctx.prec + 100):
        for _ in range(1000):
            x, y = rng.uniform(-700, 700, size=2)
            got = _to_mpf(ctx, log_add(x, y, ctx))
            want = mpmath.log(mpmath.exp(mpmath.mpf(x)) + mpmath.exp(mpmath.mpf(y)))
            assert abs(got - want) <= abs(want) * tol


def test_log_add_commutative_and_monotone():
    ctx = DEFAULT_CONTEXT
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y, d = rng.uniform(-50, 50, size=3)
        a = float(log_add(x, y, ctx))
        b = float(log_add(y, x, ctx))
        assert a == pytest.approx(b, rel=1e-15)
        bigger = float(log_add(x + abs(d), y, ctx))
        assert bigger >= a


def test_log_add_associative_within_ulp():
    ctx = DEFAULT_CONTEXT
    rng = np.random.default_rng(2)
    with mpmath.workprec(ctx.prec + 100):
        tol = mpmath.mpf(2) ** (-(ctx.prec - 12))
        for _ in range(100):
            x, y, z = rng.uniform(-100, 100, size=3)
            left = _to_mpf(ctx, log_add(log_add(x, y, ctx), ctx.mpf(z), ctx))
            right = _to_mpf(ctx, log_add(ctx.mpf(x), log_add(y, z, ctx), ctx))
            assert abs(left - right) <= abs(left) * tol


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
    draws = two_sided_geometric(np.full(10**6, 1.0), rng)
    assert draws.dtype == np.int64
    assert abs(draws.mean()) < 0.01
    # P(Z = 0) = (1 - q)/(1 + q), and the law is symmetric
    assert np.mean(draws == 0) == pytest.approx(_pmf(0, 1.0), abs=0.002)
    assert np.mean(draws > 0) == pytest.approx(np.mean(draws < 0), abs=0.002)


def test_laplace_variance_scale_two():
    rng = np.random.default_rng(5)
    draws = two_sided_geometric(np.full(10**6, 2.0), rng)
    assert draws.var() == pytest.approx(_variance(2.0), rel=0.01)


def test_laplace_ks_against_closed_form():
    # Kolmogorov-Smirnov distance to the closed-form CDF, against the DKW
    # bound at p = 1e-3: F(z) = q^-z / (1 + q) below 0, 1 - q^(z+1) / (1 + q) from 0
    n, scale = 10**6, 1.5
    rng = np.random.default_rng(6)
    draws = np.sort(two_sided_geometric(np.full(n, scale), rng))
    q = math.exp(-1.0 / scale)
    z = np.arange(draws[0], draws[-1] + 1)
    cdf = np.where(z < 0, np.power(q, -z) / (1.0 + q), 1.0 - np.power(q, z + 1) / (1.0 + q))
    empirical = np.searchsorted(draws, z, side="right") / n
    assert np.abs(empirical - cdf).max() < math.sqrt(math.log(2 / 1e-3) / (2 * n))


@pytest.mark.parametrize("scale", [0.5, 3.0, 240.0])
def test_laplace_chi_square_against_pmf(scale):
    rng = np.random.default_rng(6)
    draws = two_sided_geometric(np.full(10**5, scale), rng)
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


def test_laplace_reproducible():
    scale = np.linspace(0.5, 500.0, 50)
    a = two_sided_geometric(scale, np.random.default_rng(7))
    b = two_sided_geometric(scale, np.random.default_rng(7))
    assert a.tolist() == b.tolist()


def test_laplace_array_matches_scalar_draws():
    # n entries and then m entries read the stream that n + m do at once,
    # while no cell among the first n is open
    for seed in range(20):
        for n, m in ((0, 1), (1, 1), (17, 1), (2500, 1)):
            scale = np.random.default_rng(100 + seed).uniform(0.5, 4096.0, n + m)
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            whole = two_sided_geometric(scale, a)
            parts = np.concatenate((two_sided_geometric(scale[:n], b),
                                    two_sided_geometric(scale[n:], b)))
            assert whole.tolist() == parts.tolist()
            assert a.bit_generator.state == b.bit_generator.state
    # an open cell reads further words right after its own batch's
    # uniforms, so a split draw then shifts the second batch: entry 0's
    # G2 reads U's zero cell here
    scale = np.full(5, 2.0)
    whole = two_sided_geometric(scale, _zero_uniform_at(11, 1))
    b = _zero_uniform_at(11, 1)
    first, second = two_sided_geometric(scale[:3], b), two_sided_geometric(scale[3:], b)
    c = _zero_uniform_at(11, 1)
    c.random(6)
    resolve_cell(2.0, 0, iter(c.bit_generator.random_raw, None))
    assert second.tolist() == two_sided_geometric(scale[3:], c).tolist()
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
        got = two_sided_geometric(scale, _zero_uniform_at(11, k))
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


def test_neg_exp1_support():
    rng = np.random.default_rng(8)
    draws = np.array([sample_neg_exp1(rng) for _ in range(10**5)])
    assert np.all(draws < 0.0)
    assert np.all(np.isfinite(draws))


def test_neg_exp1_mean_and_median():
    rng = np.random.default_rng(9)
    draws = np.array([sample_neg_exp1(rng) for _ in range(10**6)])
    assert draws.mean() == pytest.approx(-1.0, abs=0.01)
    assert abs(np.mean(draws >= -math.log(2)) - 0.5) < 0.01


def test_neg_exp1_reproducible():
    a = [sample_neg_exp1(np.random.default_rng(10)) for _ in range(50)]
    b = [sample_neg_exp1(np.random.default_rng(10)) for _ in range(50)]
    assert a == b
