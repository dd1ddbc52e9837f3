"""The benchmark's tiny workloads run and print a result it can read.

Each case runs `perfbench/run.py` for one second, as the benchmark runs
it for longer, and reads its last line of standard output: one JSON
object whose every metric must be a finite number. A traced run whose
layer has disappeared still exits 0 but reports that layer as null;
this test fails on it, where `test_trace_contract.py` checks only
`trace_layers` itself.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tiny-private", "tiny-2p"])
def test_bench_run_prints_a_readable_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)
           or not math.isfinite(m["value"])}
    assert not bad, f"metrics that are not finite numbers: {bad}"
