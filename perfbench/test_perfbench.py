"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import socket
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from summary import (  # noqa: E402
    GateError,
    OpTimeout,
    check_exact,
    check_private,
    tail,
    time_limit,
)


@pytest.mark.parametrize("values, want", [
    (list(range(1, 101)), (90, 90.0, 100)),         # p95 would leave only 5 beyond
    (list(range(20, 0, -1)), (10, 50.0, 20)),        # unsorted input; p75 leaves 5
    (list(range(1, 1001)), (990, 99.0, 1000)),       # p99.9 would leave only 1
    ([3.0, 1.0, 2.0, 5.0, 4.0], (5.0, 100.0, 5)),    # too few samples: the maximum
    (list(range(1, 20)), (19, 100.0, 19)),           # p50 needs 20 samples
])
def test_tail_picks_highest_percentile_with_ten_beyond(values, want):
    assert tail(values) == want


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


def test_check_exact_rejects_perturbed_value():
    exact = 123.456789
    check_exact(exact * (1 + 1e-12), exact, "close")
    with pytest.raises(GateError):
        check_exact(exact * (1 + 1e-6), exact, "perturbed")
    with pytest.raises(GateError):
        check_exact(float("nan"), exact, "nan")


def test_gate_on_real_program_rejects_perturbed_value():
    import numpy as np
    from privebc import Graph, PartitionedGraph, exact_ebc, nonprivate_ebc_protocol

    g = Graph.from_edges([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("d", "e"), ("a", "e")])
    mask = [lab in {"a", "b"} for lab in g.labels]
    pg = PartitionedGraph(g, np.array(mask))
    got = nonprivate_ebc_protocol(pg, "a")
    check_exact(got, exact_ebc(g, "a"), "unperturbed")
    with pytest.raises(GateError):
        check_exact(got + 1e-6, exact_ebc(g, "a"), "perturbed")


class _Ledger:
    def __init__(self, x, y):
        self.spent = {"X": x, "Y": y}

    def total(self, party):
        return self.spent[party]


def _result(value=1.0, degenerate="", x=0.5, y=0.5, non_private=False):
    return SimpleNamespace(value=value, degenerate=degenerate, budget=_Ledger(x, y),
                           non_private=non_private)


def test_check_private_accepts_consistent_sessions():
    check_private(_result(), 0.5, "full")
    check_private(_result(degenerate="small-y-ego", y=0.0), 0.5, "small")
    check_private(_result(degenerate="no-y-nodes", x=0.0, y=0.0), 0.5, "none")


@pytest.mark.parametrize("bad", [
    _result(value=math.inf),
    _result(value=math.nan),
    _result(y=0.25),                               # Y under-charged for a full session
    _result(degenerate="small-y-ego"),             # Y charged without a reply
    _result(degenerate="no-y-nodes"),              # budget spent on a local answer
    _result(non_private=True),
    _result(degenerate="unknown"),
])
def test_check_private_rejects(bad):
    with pytest.raises(GateError):
        check_private(bad, 0.5, "bad")


class _FakeWorkload:
    """Three ops per pass; op 'b' fails its gate, op 'c' times out."""

    def one_pass(self):
        return [SimpleNamespace(label=x, eps=1.0) for x in "abc"]

    def run_op(self, op, traced):
        if op.label == "b":
            raise GateError("perturbed value")
        if op.label == "c":
            with time_limit(0.05):
                time.sleep(1.0)
        return SimpleNamespace(eps=op.eps, session_ms=1.0, wire_bytes=10, traced=traced, layers={})


def test_measure_counts_forced_failures():
    ops, execs, errors, rounds = run.measure(_FakeWorkload(), seconds=0.0)
    assert rounds == 2
    assert [op.label for op in ops] == ["a", "b", "c"]
    assert [len(e) for e in execs] == [2, 0, 0]
    assert len(errors) == 4  # b and c fail in both rounds
    assert "GateError" in errors[0] and OpTimeout.__name__ in errors[1]
    assert len(run.best_of(execs, rounds=2)) == 1


def test_best_of_keeps_fastest_untraced_and_traced_runs():
    def rec(ms, traced, layer=None):
        return SimpleNamespace(eps=1.0, session_ms=ms, wire_bytes=100, traced=traced,
                               layers={} if layer is None else {"forward.pmf_ms": layer})

    [s] = run.best_of([[rec(5.0, False), rec(4.0, False), rec(7.0, True, 2.0), rec(6.0, True, 3.0)]],
                      rounds=4)
    assert (s.best_ms, s.traced_ms, s.layers, s.wire_bytes) == (4.0, 6.0, {"forward.pmf_ms": 2.0}, 100)


def test_is_listening_sees_loopback_listener():
    from party_y import free_port, is_listening

    port = free_port()
    assert not is_listening(port)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", port))
        s.listen(1)
        assert is_listening(port)
    assert not is_listening(port)
