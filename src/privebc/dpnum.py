"""Numeric substrate: extended-precision log arithmetic and noise draws.

The stratum pmf/CDF math spans thousands of orders of magnitude, so it
runs in log space in mpmath at extended precision (default 300
significand bits, configurable). Laplace noise and EBC sums use native
float64. All randomness comes from a caller-supplied numpy Generator;
the library never reads ambient entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np


class PrecisionContext:
    """Immutable handle on mpmath arithmetic at `bits` significand bits.

    bits must be at least 53 (native double significand); the default
    300 matches the precision the samplers were validated at. `mp` is
    the mpmath context the extended-precision math calls directly.
    """

    __slots__ = ("bits", "mp")

    def __init__(self, bits: int = 300):
        if bits < 53:
            raise ValueError("precision must be at least 53 bits")
        mp = mpmath.MPContext()
        mp.prec = int(bits)
        object.__setattr__(self, "bits", int(bits))
        object.__setattr__(self, "mp", mp)

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionContext is immutable")

    def real(self, v):
        return self.mp.mpf(v)

    @property
    def neg_inf(self):
        return self.mp.ninf

    def to_float(self, x) -> float:
        return float(x)

    def __repr__(self) -> str:
        return f"PrecisionContext(bits={self.bits})"


DEFAULT_CONTEXT = PrecisionContext()


@lru_cache(maxsize=None)
def context_for(bits: int) -> PrecisionContext:
    """The shared context at `bits`: DEFAULT_CONTEXT at its precision,
    else one context per value, built on first use."""
    return DEFAULT_CONTEXT if bits == DEFAULT_CONTEXT.bits else PrecisionContext(bits)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and the sensitivity bounds of the three releases.

    epsilon is the per-party budget. delta0 bounds the quality-function
    sensitivity (1 for the set release); delta1 and delta2 bound the
    count-vector and partial-sum sensitivities and are filled in at call
    time from |R| and |N_a intersect V_Y|.
    """

    epsilon: float
    delta0: float = 1.0
    delta1: float | None = None
    delta2: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.delta0 > 0:
            raise ValueError("delta0 must be positive")


def log_add(x, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """log(e^x + e^y), computed stably by factoring out the max.

    Inputs may be context reals or floats; -inf is the exact identity
    element.
    """
    mp = ctx.mp
    if isinstance(x, (int, float)):
        x = mp.mpf(x)
    if isinstance(y, (int, float)):
        y = mp.mpf(y)
    if x == mp.ninf:
        return y
    if y == mp.ninf:
        return x
    if x >= y:
        hi, lo = x, y
    else:
        hi, lo = y, x
    return mp.fadd(hi, mp.log1p(mp.exp(mp.fsub(lo, hi))))


def sample_laplace(scale: float, rng: np.random.Generator) -> float:
    """One draw from a zero-mean Laplace: numpy's inverse-CDF sampler,
    which reads one uniform per draw and redraws a zero one."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return float(rng.laplace(0.0, scale))


def sample_neg_exp1(rng: np.random.Generator) -> float:
    """One draw of -Exp(1), i.e. log(U) for U uniform on (0, 1)."""
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return math.log(u)
