from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from privebc import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    PrivacyParams,
    ProtocolConfig,
    forward,
    log_add,
    run_session,
    sample_laplace,
    sample_neg_exp1,
    stratum_distribution,
)
from privebc.backward import _noisy_counts


# ---------------------------------------------------------------------------
# PrecisionContext / PrivacyParams
# ---------------------------------------------------------------------------

def test_context_defaults_and_floor():
    assert DEFAULT_CONTEXT.bits == 300
    with pytest.raises(ValueError):
        PrecisionContext(52)
    PrecisionContext(53)  # the floor itself is allowed


def test_context_immutable():
    ctx = PrecisionContext(64)
    with pytest.raises(AttributeError):
        ctx.bits = 128


def test_no_context_is_built_after_import(monkeypatch, mixed_pg):
    # every pmf and every session runs on DEFAULT_CONTEXT
    built = []

    class CountingContext(mpmath.MPContext):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mpmath, "MPContext", CountingContext)
    # fresh sizes: every pmf and log table below is a cache miss
    forward._stratum_distribution.cache_clear()
    forward._log_int_table.cache_clear()
    params = PrivacyParams(epsilon=1.0)
    for n in range(40, 60):
        stratum_distribution(n, params)
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


# ---------------------------------------------------------------------------
# log_add
# ---------------------------------------------------------------------------

def _to_mpf(ctx, v):
    # round-trip through mpmath's faithful repr
    return mpmath.mpf(str(v))


def test_log_add_neg_inf_identity():
    ctx = DEFAULT_CONTEXT
    y = ctx.mp.mpf(2.5)
    assert log_add(ctx.mp.ninf, y) is y
    assert log_add(y, ctx.mp.ninf) is y
    assert log_add(ctx.mp.ninf, ctx.mp.ninf) == ctx.mp.ninf


def test_log_add_exact_small_case():
    got = float(log_add(math.log(2), math.log(3)))
    assert got == pytest.approx(math.log(5), abs=1e-14)


def test_log_add_matches_extended_precision_oracle():
    ctx = DEFAULT_CONTEXT
    rng = np.random.default_rng(0)
    tol = mpmath.mpf(2) ** (-(ctx.bits - 10))  # 2 ulp plus decimal round-trip slack
    with mpmath.workprec(ctx.bits + 100):
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
    with mpmath.workprec(ctx.bits + 100):
        tol = mpmath.mpf(2) ** (-(ctx.bits - 12))
        for _ in range(100):
            x, y, z = rng.uniform(-100, 100, size=3)
            left = _to_mpf(ctx, log_add(log_add(x, y, ctx), ctx.mp.mpf(z), ctx))
            right = _to_mpf(ctx, log_add(ctx.mp.mpf(x), log_add(y, z, ctx), ctx))
            assert abs(left - right) <= abs(left) * tol


# ---------------------------------------------------------------------------
# sample_laplace
# ---------------------------------------------------------------------------

def test_laplace_rejects_bad_scale():
    rng = np.random.default_rng(0)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            sample_laplace(bad, rng)


def test_laplace_moments_and_median():
    rng = np.random.default_rng(4)
    draws = np.array([sample_laplace(1.0, rng) for _ in range(10**6)])
    assert abs(draws.mean()) < 0.01
    assert abs(np.mean(np.abs(draws) <= math.log(2)) - 0.5) < 0.01


def test_laplace_variance_scale_two():
    rng = np.random.default_rng(5)
    draws = np.array([sample_laplace(2.0, rng) for _ in range(10**6)])
    assert draws.var() == pytest.approx(8.0, abs=0.1)


def test_laplace_ks_against_closed_form():
    rng = np.random.default_rng(6)
    draws = np.array([sample_laplace(1.5, rng) for _ in range(10**6)])
    res = stats.kstest(draws, stats.laplace(scale=1.5).cdf)
    assert res.pvalue > 1e-3


def test_laplace_reproducible():
    a = [sample_laplace(1.0, np.random.default_rng(7)) for _ in range(50)]
    b = [sample_laplace(1.0, np.random.default_rng(7)) for _ in range(50)]
    assert a == b


# ---------------------------------------------------------------------------
# sample_neg_exp1
# ---------------------------------------------------------------------------

def test_laplace_array_matches_scalar_draws():
    # the count matrix's noise is the row-major run of scalar draws
    for seed in range(20):
        for scale, shape in ((0.5, (1, 0)), (1.0, (1, 1)), (3.0, (17, 1)), (4096.0, (50, 50))):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            params = PrivacyParams(epsilon=4.0 * shape[0] / scale)
            got = _noisy_counts(np.zeros(shape), params, a)
            want = np.array([sample_laplace(scale, b) for _ in range(shape[0] * shape[1])],
                            dtype=np.float64).reshape(shape)
            assert got.tobytes() == want.tobytes()
            assert a.bit_generator.state == b.bit_generator.state


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
    u = _zero_uniform_at(11, 1).random(6)
    assert u[1] == 0.0 and u[[0, 2, 3, 4, 5]].all()
    a, b = _zero_uniform_at(11, 1), _zero_uniform_at(11, 1)
    got = _noisy_counts(np.zeros((2, 2)), PrivacyParams(epsilon=4.0), a)  # scale 2
    want = [sample_laplace(2.0, b) for _ in range(4)]
    assert got.ravel().tolist() == want
    assert np.all(np.isfinite(want))
    assert a.bit_generator.state == b.bit_generator.state
    # both skipped the zero: the next uniform is the stream's sixth
    assert a.random() == u[5]


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
