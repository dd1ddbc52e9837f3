"""The benchmark's per-layer trace still reads every layer of a session.

perfbench's `trace_layers` re-runs a session's stages through the public
calls it names (`privebc.DEFAULT_CONTEXT`, `forward.forward_message`,
`forward.stratum_distribution`, `forward.inverse_transform_sample`,
`forward.pick_and_flip`, the kernels, the backward calls and the codec).
A layer that is renamed or removed there drops its metrics silently, and
a traced benchmark run then reports them as null. These tests fail
instead.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from privebc import ProtocolConfig, run_session

from .conftest import make_pg, random_graph, random_partition

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import PER_LAYER_UNITS, trace_layers  # noqa: E402

# metrics the benchmark takes from elsewhere than one session's trace
_NOT_PER_SESSION = {"graphs.build_ms", "graphs.views_ms", "protocol.session_ms",
                    "protocol.other_ms", "trace.overhead_ms"}
FULL_SESSION_METRICS = (set(PER_LAYER_UNITS) - _NOT_PER_SESSION) | {"protocol.stage_sum_ms"}
FORWARD_ONLY_METRICS = {"graphs.ego_context_ms", "forward.release_ms", "forward.r_size",
                        "protocol.frame_bytes.forward", "forward.x_minus", "forward.pmf_ms",
                        "forward.scan_ms", "forward.stratum_index", "forward.flip_ms",
                        "protocol.stage_sum_ms"}


def _full_sessions():
    """(pg, ego) pairs whose sessions send both frames."""
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"),
             ("c", "d"), ("d", "f"), ("e", "f"), ("f", "g"), ("b", "g")]
    cases = [(make_pg(edges, x_labels={"a", "e", "f", "g"}), "a")]
    rng = np.random.default_rng(17)
    pg = random_partition(rng, random_graph(rng, 30, 0.3))
    ego = next(int(i) for i in pg.vx_indices
               if sum(not pg.is_x(v) for v in pg.graph.neighbors(int(i))) >= 2)
    cases.append((pg, pg.graph.label_of(ego)))
    return cases


def _trace(pg, ego, eps, seed):
    res = run_session(pg, ego, ProtocolConfig(epsilon=eps), np.random.default_rng(seed))
    layers, match = trace_layers(pg.view_x(), pg.view_y(), ego, eps, seed, res.degenerate,
                                 list(res.frames), False)
    return res, layers, match


def _all_finite(layers, names):
    missing = sorted(names - set(layers))
    assert not missing, f"the trace lost {missing}"
    bad = {k: layers[k] for k in names if not math.isfinite(layers[k])}
    assert not bad, f"non-finite metrics {bad}"


@pytest.mark.parametrize("eps", [0.5, 7.0])
@pytest.mark.parametrize("case", range(2))
def test_trace_reads_every_layer_of_a_full_session(case, eps):
    pg, ego = _full_sessions()[case]
    res, layers, match = _trace(pg, ego, eps, seed=11 + case)
    assert res.degenerate == ""
    _all_finite(layers, FULL_SESSION_METRICS)
    assert match is True  # the layer calls rebuilt the session's backward frame
    assert layers["forward.r_size"] == res.r_size
    assert 0 <= layers["forward.stratum_index"] <= layers["forward.x_minus"]


@pytest.mark.parametrize("eps", [0.5, 7.0])
def test_trace_of_a_small_y_ego_session(eps):
    edges = [("a", "b"), ("a", "c"), ("a", "y1"), ("b", "y1"), ("y1", "y2")]
    pg = make_pg(edges, x_labels={"a", "b", "c"})
    res, layers, match = _trace(pg, "a", eps, seed=5)
    assert res.degenerate == "small-y-ego"
    _all_finite(layers, FORWARD_ONLY_METRICS)
    assert not set(layers) & {"backward.counts_ms", "protocol.encode_ms"}
    assert match is None
    assert layers["protocol.stage_sum_ms"] == layers["forward.release_ms"]


@pytest.mark.parametrize("eps", [0.5, 7.0])
def test_trace_of_a_no_y_nodes_session(eps):
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")]
    pg = make_pg(edges, x_labels={"a", "b", "c", "d"})
    res, layers, match = _trace(pg, "a", eps, seed=8)
    assert res.degenerate == "no-y-nodes"
    _all_finite(layers, {"graphs.ego_context_ms", "protocol.stage_sum_ms"})
    assert layers["protocol.stage_sum_ms"] == 0.0
    assert match is None
