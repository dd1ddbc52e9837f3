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
from privebc.dpnum import sample_laplace_array


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


def test_contexts_are_built_once_per_precision(monkeypatch, mixed_pg):
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
    assert built == []
    config = ProtocolConfig(epsilon=1.0, precision_bits=128)
    for seed in (0, 1):
        run_session(mixed_pg, "a", config, np.random.default_rng(seed))
    assert len(built) <= 1


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
    y = ctx.real(2.5)
    assert log_add(ctx.neg_inf, y) is y
    assert log_add(y, ctx.neg_inf) is y
    assert log_add(ctx.neg_inf, ctx.neg_inf) == ctx.neg_inf


def test_log_add_exact_small_case():
    got = DEFAULT_CONTEXT.to_float(log_add(math.log(2), math.log(3)))
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
        a = ctx.to_float(log_add(x, y, ctx))
        b = ctx.to_float(log_add(y, x, ctx))
        assert a == pytest.approx(b, rel=1e-15)
        bigger = ctx.to_float(log_add(x + abs(d), y, ctx))
        assert bigger >= a


def test_log_add_associative_within_ulp():
    ctx = DEFAULT_CONTEXT
    rng = np.random.default_rng(2)
    with mpmath.workprec(ctx.bits + 100):
        tol = mpmath.mpf(2) ** (-(ctx.bits - 12))
        for _ in range(100):
            x, y, z = rng.uniform(-100, 100, size=3)
            left = _to_mpf(ctx, log_add(log_add(x, y, ctx), ctx.real(z), ctx))
            right = _to_mpf(ctx, log_add(ctx.real(x), log_add(y, z, ctx), ctx))
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
    for seed in range(20):
        for scale, count in ((0.5, 0), (1.0, 1), (3.0, 17), (4096.0, 2500)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_laplace_array(scale, count, a)
            want = np.array([sample_laplace(scale, b) for _ in range(count)], dtype=np.float64)
            assert got.tobytes() == want.tobytes()
            assert a.bit_generator.state == b.bit_generator.state


class _ScriptedUniforms:
    """Stands in for a Generator whose uniform stream is fixed."""

    def __init__(self, stream):
        self.stream = list(stream)

    def random(self, size=None):
        if size is None:
            return self.stream.pop(0)
        out, self.stream = self.stream[:size], self.stream[size:]
        return np.array(out, dtype=np.float64)


def test_laplace_array_skips_zero_uniforms_like_scalar():
    stream = [0.25, 0.0, 0.75, 0.0, 0.0, 0.5, 0.125, 0.9]
    a, b = _ScriptedUniforms(stream), _ScriptedUniforms(stream)
    got = sample_laplace_array(2.0, 4, a)
    want = [sample_laplace(2.0, b) for _ in range(4)]
    assert got.tolist() == want
    assert a.stream == b.stream == [0.9]


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
