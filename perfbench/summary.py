"""Pure helpers of the session benchmark: percentile rule and correctness gate.

Nothing here imports privebc, so the rules can be tested on plain lists
and stand-in objects.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager

# Percentiles the tail metric may report, lowest first. A fixed ladder keeps
# the reported percentile the same between runs that complete a similar
# number of sessions.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
EXACT_TOL = 1e-9


class GateError(AssertionError):
    """A session or check produced an output the gate rejects."""


class OpTimeout(Exception):
    """One operation ran past its time limit."""


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest ladder percentile
    that leaves at least TAIL_MIN_BEYOND samples above its nearest rank.

    With too few samples for any ladder step, the maximum is reported as
    percentile 100.
    """
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    n = len(xs)
    best = (xs[-1], 100.0)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (xs[rank - 1], p)
    return best[0], best[1], n


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def check_exact(got: float, want: float, what: str) -> None:
    """Raise GateError unless got equals want within EXACT_TOL (absolute,
    or relative for values above one)."""
    if not (math.isfinite(got) and abs(got - want) <= EXACT_TOL * max(1.0, abs(want))):
        raise GateError(f"{what}: got {got!r}, exact {want!r}")


# Budget each party spends, in units of eps, for each degenerate marker.
_SPEND = {"": (1.0, 1.0), "small-y-ego": (1.0, 0.0), "no-y-nodes": (0.0, 0.0)}


def check_private(result, eps: float, what: str) -> None:
    """Gate one private session: finite value, flagged private, and ledger
    totals that match its degenerate marker."""
    if not math.isfinite(result.value):
        raise GateError(f"{what}: non-finite value {result.value!r}")
    if result.non_private:
        raise GateError(f"{what}: full-mask session flagged non-private")
    try:
        want_x, want_y = _SPEND[result.degenerate]
    except KeyError:
        raise GateError(f"{what}: unknown degenerate marker {result.degenerate!r}") from None
    for party, want in (("X", want_x * eps), ("Y", want_y * eps)):
        spent = result.budget.total(party)
        if abs(spent - want) > 1e-12 * max(1.0, eps):
            raise GateError(f"{what}: party {party} spent {spent!r}, marker "
                            f"{result.degenerate!r} implies {want!r}")


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread if the block runs past `seconds`."""
    def _expire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
