"""Numeric substrate: exact Bernoulli trials and exact noise.

Both of the session's samplers are exact, and both decide in float64
or integers except on a cell of probability about 2^-53, where they
read further words of the generator and decide in interval arithmetic
(mpmath.iv). X's set release is one Bernoulli(p) trial per node, p =
1/(1 + e^t): the top 53 bits of one raw 64-bit word against the exact
cut floor(p * 2^53) (`flip_trials`). Y's noise is the two-sided
geometric mechanism (Ghosh, Roughgarden and Sundararajan, STOC 2009):
every released value is an integer whose law is exactly P(z) ~
exp(-|z|/scale) at a scale rounded up, never down, so no floating-point
artefact of the sampler reaches the output (Mironov, CCS 2012).
mpmath serves only that interval arithmetic. All randomness comes from
a caller-supplied numpy Generator; the library never reads ambient
entropy.

DEFAULT_CONTEXT, a 300-bit mpmath context, is read only by perfbench's
trace, which passes it to calls that ignore it (ROADMAP item 2); no
code of the package computes with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import mpmath
import numpy as np
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_int


# Read only by perfbench's trace (see the module docstring).
DEFAULT_CONTEXT = mpmath.MPContext()
DEFAULT_CONTEXT.prec = 300


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and the set release's quality sensitivity.

    epsilon is the per-party budget. delta0 bounds the quality-function
    sensitivity (1 for the set release). The count-vector and
    partial-sum sensitivities, 2|R| and |N_a intersect V_Y| - 1, follow
    from each reply's shape and are not parameters.
    """

    epsilon: float
    delta0: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.delta0 > 0:
            raise ValueError("delta0 must be positive")


# ---------------------------------------------------------------------------
# Two-sided geometric noise
# ---------------------------------------------------------------------------

# The largest scale the sampler accepts; its draws stay far inside int64.
MAX_SCALE = 2.0**52
_CELL = 2.0**-53  # U's first 53 bits pick a cell of this width
# np.log is taken to be within 2^-44 relative of ln (256 ulp; numpy and
# libm promise a few); widening each float image by 2^-43 covers that and
# the correctly rounded operations after it.
_WIDEN = 2.0**-43
_GROW = (1.0 + _WIDEN) / (1.0 - _WIDEN)
_SLICE = 1 << 15  # uniforms per slice of the sampler's arithmetic (even)


def geometric_scale(numerator: int, epsilon: float) -> float:
    """numerator / epsilon as a double, rounded up, never down: a larger
    scale only adds privacy. Raises ValueError beyond MAX_SCALE."""
    scale = numerator / epsilon
    if not 0.0 < scale <= MAX_SCALE:
        raise ValueError(f"noise scale {numerator}/{epsilon} outside (0, {MAX_SCALE:g}]")
    p, q = scale.as_integer_ratio()
    pe, qe = float(epsilon).as_integer_ratio()
    if p * pe < numerator * q * qe:  # scale * epsilon < numerator, exactly
        scale = math.nextafter(scale, math.inf)
    return scale


def two_sided_geometric(scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One exact draw of G1 - G2 per entry of `scale`, as int64.

    G1 and G2 are independent with P(G = g) = (1 - q) q^g, q =
    exp(-1/scale), so P(G1 - G2 = z) = (1 - q)/(1 + q) q^|z|. Each G is
    floor(-scale ln U) for U uniform on (0, 1). One rng.random call
    reads the first 53 bits of every U, two per entry in entry order.
    Float64 decides G wherever U's cell maps, widened by the bound on
    np.log's error, onto an interval that holds no integer; the rest
    (about one draw in 4 * 10^10 at scale 100, and always the zero cell)
    go to `resolve_cell`, which reads further bits of U from the
    generator's next words, in entry order, after all the uniforms.
    Drawing n entries and then m therefore equals drawing n + m at once
    only if none of the first n has an open cell: the words such a cell
    reads shift the second draw. The arithmetic runs in slices of
    _SLICE uniforms, which stay in cache however long the reply.
    """
    u = rng.random(2 * scale.size)  # G1, G2 of entry i read u[2i], u[2i + 1]
    z = np.empty(scale.size, dtype=np.int64)
    words = None
    for start in range(0, u.size, _SLICE):
        cells = u[start:start + _SLICE]
        first = start // 2
        zs = z[first:first + cells.size // 2]
        c = np.empty(cells.size)  # each entry's scale, once per uniform
        np.multiply(scale[first:first + zs.size], -(1.0 - _WIDEN), out=c[0::2])
        c[1::2] = c[0::2]
        lo = cells + _CELL
        np.log(lo, out=lo)  # ln of the cell's upper end
        lo *= c  # the image's lower end, shrunk
        # cell k's image is at most scale / k wide; the zero cell's is unbounded
        c *= _CELL
        with np.errstate(divide="ignore"):
            np.divide(c, cells, out=c)
        hi = np.subtract(lo, c, out=c)
        hi *= _GROW  # the image's upper end, grown
        np.floor(lo, out=lo)
        np.floor(hi, out=hi)
        # a decided G is below 2^53, so the float difference is exact
        np.subtract(lo[0::2], lo[1::2], out=zs, casting="unsafe")
        open_cells = lo != hi
        if open_cells.any():
            if words is None:
                words = iter(rng.bit_generator.random_raw, None)
            for i in np.unique(np.flatnonzero(open_cells) // 2).tolist():
                g1, g2 = (resolve_cell(float(scale[first + i]), int(cells[k] * 2.0**53), words)
                          if open_cells[k] else int(lo[k]) for k in (2 * i, 2 * i + 1))
                zs[i] = g1 - g2
    return z


def resolve_cell(scale: float, cell: int, words: Iterator[int]) -> int:
    """floor(-scale ln U), exactly, for U uniform on the 53-bit cell
    [cell, cell + 1] * 2^-53.

    While the image of U's known interval holds an integer, the next
    64-bit word of `words` narrows that interval 2^64-fold. Each test
    runs in interval arithmetic (mpmath.iv) at 64 bits beyond the
    interval's own, so a decision is never a rounding artefact. The
    zero cell, whose image is unbounded, always reads further words.
    """
    iv = MPIntervalContext()  # this call's own, so its precision is ours to set
    num, bits = cell, 53
    while True:
        if num:
            iv.prec = bits + 64
            step = iv.mpf(2) ** -bits
            lo = -iv.mpf(scale) * iv.log((num + 1) * step)
            hi = -iv.mpf(scale) * iv.log(num * step)
            g = to_int(lo._mpi_[0], "f")  # floor of the lower end
            if hi.b <= g + 1:
                return g
        num = (num << 64) | next(words)
        bits += 64


# ---------------------------------------------------------------------------
# Bernoulli trials of the set release
# ---------------------------------------------------------------------------

_TRIAL_BITS = 53  # each trial's first word: a raw 64-bit word's top 53 bits


def _scaled_floor(t: float, bits: int) -> int:
    """floor(2^bits / (1 + e^t)), exactly: interval arithmetic at 64
    bits beyond `bits`, and 64 more until the interval's ends share a
    floor. p = 1/(1 + e^t) is irrational for t > 0, so this ends."""
    iv = MPIntervalContext()  # this call's own, so its precision is ours to set
    iv.prec = bits
    while True:
        iv.prec += 64
        x = iv.mpf(2) ** bits / (1 + iv.exp(iv.mpf(t)))
        lo, hi = (to_int(end, "f") for end in x._mpi_)
        if lo == hi:
            return lo


@lru_cache(maxsize=64)
def flip_cut(t: float) -> int:
    """floor(p * 2^53) for the flip probability p = 1/(1 + e^t)."""
    return _scaled_floor(t, _TRIAL_BITS)


def flip_trials(draws: np.ndarray, t: float, words: Iterator[int]) -> np.ndarray:
    """One exact Bernoulli(p) trial per entry of `draws`, p = 1/(1 + e^t):
    True where it succeeds (the node flips).

    Entry i's trial is U_i < p for U_i uniform on [0, 1), whose first 53
    bits are draws[i] (an integer in [0, 2^53)). So an entry below the
    cut floor(p * 2^53) succeeds and one above it fails. An entry equal
    to the cut is a tie, with probability 2^-53: it reads further bits
    of U_i as 64-bit words of `words`, in entry order, against the same
    bits of p (`_tie_flips`).
    """
    cut = flip_cut(t)
    flips = draws < cut
    ties = draws == cut
    if np.count_nonzero(ties):  # cheaper than ties.any() on short arrays
        for i in np.flatnonzero(ties).tolist():
            flips[i] = _tie_flips(t, cut, words)
    return flips


def _tie_flips(t: float, num: int, words: Iterator[int]) -> bool:
    """Whether U < p, for U uniform on the 53-bit cell [num, num + 1) *
    2^-53 that holds p: each next word narrows U's cell 2^64-fold, until
    the cell lies wholly below or above p."""
    bits = _TRIAL_BITS
    while True:
        num = (num << 64) | next(words)
        bits += 64
        cut = _scaled_floor(t, bits)
        if num != cut:
            return num < cut
