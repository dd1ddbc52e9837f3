"""The benchmark's workloads and its per-layer trace.

Every workload runs sessions one at a time from one client (a closed loop
with a single client), in passes: a pass is a short schedule of sessions
that balances the inputs a session's cost depends on.

  tiny-private  sessions on small random graphs, each on a freshly
                partitioned graph, so per-call set-up costs dominate.
  tiny-2p       the same sessions with Y in a child process reached over
                loopback TCP, so the transport's fixed costs weigh most.
  ba10k-hub-2p  the deployment path at its largest: the highest-degree X
                ego, with Y in a child process reached over loopback TCP.
  ba10k-sweep   the CLI sweep: in-process sessions on a preferential-
                attachment graph with 10,000 nodes, one ego per session.

In a traced round each session is followed by calls to each layer's
public function on the same inputs, timed from here; `src/` carries no
timers of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import networkx as nx
import numpy as np

import privebc
from privebc import (
    ALL_MECHS,
    BackwardMsg,
    Graph,
    PartitionedGraph,
    PrivacyParams,
    ProtocolConfig,
    exact_ebc,
    nonprivate_ebc_protocol,
    partition_nodes,
    run_session,
)
from privebc import _kernels, backward, forward, graphs, protocol

from party_y import PartyY, maxrss_mb
from summary import GateError, check_exact, check_private, time_limit

EPS_CLI = (0.1, 0.5, 1.0, 1.5, 3.0, 7.0)  # the CLI's default sweep list
EPS_HUB = (0.1, 1.0, 7.0)
BA_N, BA_M, BA_SEED = 10_000, 15, 0
PARTITION_SEED, X_FRACTION = 0, 0.5
SWEEP_PASS = 24  # ego strata per pass; a multiple of len(EPS_CLI)
TINY_SIZES = range(8, 51)  # node counts; the pool has one graph per size and p stratum
TINY_P = (0.05, 0.3)  # edge probability range, cut into len(EPS_CLI) strata
TINY_GATE_SHARE = 1 / 16  # share of tiny ops re-checked against exact_ebc

PER_LAYER_UNITS = {
    "graphs.build_ms": "ms",
    "graphs.views_ms": "ms",
    "graphs.ego_context_ms": "ms",
    "forward.release_ms": "ms",
    "forward.pmf_ms": "ms",
    "forward.scan_ms": "ms",
    "forward.flip_ms": "ms",
    "forward.x_minus": "count",
    "forward.stratum_index": "count",
    "forward.r_size": "count",
    "backward.counts_ms": "ms",
    "backward.partial_ms": "ms",
    "backward.entries": "count",
    "kernels.induced_dense_ms": "ms",
    "kernels.bipartite_dense_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.frame_bytes.forward": "B",
    "protocol.frame_bytes.backward": "B",
    "protocol.session_ms": "ms",
    "protocol.other_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass
class Op:
    """One scheduled session."""

    label: str
    eps: float
    seed: int
    graph: int = 0  # tiny-private: index into the graph pool
    mask: np.ndarray | None = None  # tiny-private: the op's party split
    gate: bool = False  # tiny-private: re-check against exact_ebc afterwards


@dataclass
class OpRecord:
    label: str
    eps: float
    session_ms: float
    wire_bytes: int
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    frames_match: bool | None = None


class LayerMissing(LookupError):
    """A layer's public function no longer exists under its name."""


def _layer(module, name: str):
    fn = getattr(module, name, None)
    if fn is None:
        raise LayerMissing(f"{module.__name__}.{name}")
    return fn


def _timed(layers: dict, metric: str, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    layers[metric] = (perf_counter() - t0) * 1e3
    return out


def trace_layers(view_x, view_y, label: str, eps: float, seed: int, degenerate: str,
                 session_frames: list[bytes], decode_in_session: bool) -> tuple[dict, bool | None]:
    """Re-run one session's stages through each layer's public call.

    The generators are derived from the session's seed exactly as the
    session derives them, so the layer calls see the session's own R and
    reproduce its backward frame; the second value says whether they did.
    Stages the session skipped (its degenerate marker) are not re-run.
    Returns metric name -> ms (or count); a metric whose layer function is
    gone is left out, and so are those that need its output.
    """
    out: dict[str, float] = {}
    match = None
    ctx = privebc.DEFAULT_CONTEXT
    try:
        ectx = _timed(out, "graphs.ego_context_ms", _layer(graphs, "ego_context"), view_x, label)
    except LayerMissing:
        return out, match
    if degenerate == "no-y-nodes":
        out["protocol.stage_sum_ms"] = 0.0
        return out, match
    stages = ["forward.release_ms"]
    try:
        params_x = PrivacyParams(epsilon=eps, delta0=1.0)
        rng_x, rng_y = np.random.default_rng(seed).spawn(2)
        fwd = _timed(out, "forward.release_ms", _layer(forward, "forward_message"),
                     view_x, label, params_x, ctx, rng_x)
        r = fwd.R
        out["forward.r_size"] = len(r)
        if session_frames:
            out["protocol.frame_bytes.forward"] = len(session_frames[0])
        rng_x2, _ = np.random.default_rng(seed).spawn(2)
        n = ectx.x_minus_sorted.size
        out["forward.x_minus"] = n
        dist = _timed(out, "forward.pmf_ms", _layer(forward, "stratum_distribution"), n, params_x, ctx)
        idx = _timed(out, "forward.scan_ms", _layer(forward, "inverse_transform_sample"), dist, rng_x2)
        out["forward.stratum_index"] = idx
        _timed(out, "forward.flip_ms", _layer(forward, "pick_and_flip"),
               ectx.x_minus_sorted, ectx.R_star, idx, rng_x2)
    except LayerMissing:
        pass
    if degenerate == "" and "forward.r_size" in out:
        stages += ["backward.counts_ms", "backward.partial_ms", "protocol.encode_ms"]
        if decode_in_session:
            stages.append("protocol.decode_ms")
        a_idx = view_y.graph.index_of(label)
        y_ego = np.array(sorted(v for v in view_y.graph.neighbors(a_idx) if not view_y.is_x(v)),
                         dtype=np.int64)
        r_sorted = np.array(sorted(r), dtype=np.int64)
        out["backward.entries"] = r_sorted.size * y_ego.size
        indptr, indices = view_y.graph.csr()
        try:
            _timed(out, "kernels.induced_dense_ms", _layer(_kernels, "induced_dense"),
                   indptr, indices, y_ego)
            _timed(out, "kernels.bipartite_dense_ms", _layer(_kernels, "bipartite_dense"),
                   indptr, indices, r_sorted, y_ego)
        except LayerMissing:
            pass
        try:
            params_y = PrivacyParams(epsilon=eps)
            t = _timed(out, "backward.counts_ms", _layer(backward, "spanning_counts"),
                       view_y, label, r, params_y, rng_y)
            s_y = _timed(out, "backward.partial_ms", _layer(backward, "partial_ebc_y"),
                         view_y, label, r, params_y, rng_y)
            frame = _timed(out, "protocol.encode_ms", _layer(protocol, "encode_msg"),
                           BackwardMsg(T=t, S_Y=s_y))
            if len(session_frames) > 1:
                match = frame == session_frames[1]
                frame = session_frames[1]
            out["protocol.frame_bytes.backward"] = len(frame)
            _timed(out, "protocol.decode_ms", _layer(protocol, "decode_msg"), frame)
        except LayerMissing:
            pass
    if all(s in out for s in stages):
        out["protocol.stage_sum_ms"] = sum(out[s] for s in stages)
    return out, match


class _Workload:
    name = ""
    op_timeout_s = 60.0
    cold_setups = 2  # set-ups timed in fresh children, one before each early round
    y: PartyY | None = None  # two-process workloads: party Y's child

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self) -> None:
        """Generate the input graphs; the benchmark's work, not set-up time."""
        raise NotImplementedError

    def setup(self) -> dict[str, float]:
        """Build everything a session needs from the inputs; returns set-up
        layer timings."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def one_pass(self) -> list[Op]:
        """The sessions of one pass, determined by the seed."""
        raise NotImplementedError

    def run_op(self, op: Op, traced: bool) -> OpRecord:
        raise NotImplementedError

    def gate(self, done: list[Op]) -> list[tuple[str, str | None]]:
        """Post-run correctness checks: (check name, error or None)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return max(maxrss_mb(), self.y.peak_rss_mb if self.y else 0.0)

    def close(self) -> None:
        if self.y is not None:
            self.y.close()


class _Ba10k(_Workload):
    """Both workloads on the CLI's synthetic preferential-attachment graph."""

    def make_inputs(self):
        ba = nx.barabasi_albert_graph(BA_N, BA_M, seed=BA_SEED)
        self.nodes, self.edges = list(ba.nodes()), list(ba.edges())

    def setup(self):
        timings: dict[str, float] = {}
        g = _timed(timings, "graphs.build_ms", Graph, self.nodes, self.edges)
        t0 = perf_counter()
        self.pg = partition_nodes(g, PARTITION_SEED, X_FRACTION)
        self.pg.view_x()
        self.pg.view_y()
        timings["graphs.views_ms"] = (perf_counter() - t0) * 1e3
        return timings


def _y_degree(pg: PartitionedGraph, i: int) -> int:
    return sum(1 for v in pg.graph.neighbors(i) if not pg.is_x(v))


def _gate_exact(pg: PartitionedGraph, label: str) -> None:
    check_exact(nonprivate_ebc_protocol(pg, label), exact_ebc(pg.graph, label),
                f"nonprivate_ebc_protocol({label})")


def _run_gate(checks) -> list[tuple[str, str | None]]:
    results = []
    for name, fn in checks:
        try:
            fn()
            results.append((name, None))
        except Exception as exc:  # every failed check is reported, none stops the run
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results


class Ba10kSweep(_Ba10k):
    """In-process sessions with egos drawn uniformly from V_X.

    The per-session cost and wire size scale with the ego's Y-side degree
    d_Y, whose spread across X nodes is wide (coefficient of variation
    about 1.1), and with eps. Each pass therefore draws one ego uniformly
    from each of SWEEP_PASS equal-size strata of V_X sorted by d_Y, and
    within every six consecutive strata gives each eps of the CLI list to
    one ego. Every ego is still uniform over V_X.
    """

    name = "ba10k-sweep"
    op_timeout_s = 60.0

    def warmup(self):
        label = self.pg.graph.label_of(int(self.pg.vx_indices[0]))
        run_session(self.pg, label, ProtocolConfig(epsilon=1.0), np.random.default_rng(0))

    def one_pass(self):
        pg = self.pg
        order = sorted(pg.vx_indices.tolist(), key=lambda i: (_y_degree(pg, i), i))
        strata = np.array_split(np.array(order, dtype=np.int64), SWEEP_PASS)
        rng = np.random.default_rng(self.seed)
        eps_idx = np.concatenate([rng.permutation(len(EPS_CLI))
                                  for _ in range(SWEEP_PASS // len(EPS_CLI))])
        ops = [Op(label=pg.graph.label_of(int(rng.choice(s))), eps=EPS_CLI[e],
                  seed=int(rng.integers(2**63)))
               for s, e in zip(strata, eps_idx)]
        return [ops[k] for k in rng.permutation(len(ops))]

    def run_op(self, op, traced):
        pg = self.pg
        with time_limit(self.op_timeout_s):
            t0 = perf_counter()
            res = run_session(pg, op.label, ProtocolConfig(epsilon=op.eps), np.random.default_rng(op.seed))
            ms = (perf_counter() - t0) * 1e3
        check_private(res, op.eps, f"session {op.label} eps={op.eps}")
        rec = OpRecord(op.label, op.eps, ms, sum(len(f) for f in res.frames), traced)
        if traced:
            rec.layers, rec.frames_match = trace_layers(
                pg.view_x(), pg.view_y(), op.label, op.eps, op.seed, res.degenerate,
                list(res.frames), decode_in_session=False)
        return rec

    def gate(self, done):
        labels = sorted({op.label for op in done})
        return _run_gate((f"exact {lab}", lambda lab=lab: _gate_exact(self.pg, lab))
                         for lab in labels)


class Ba10kHub2p(_Ba10k):
    """The highest-degree X ego, with X here and Y in a forked child.

    Its |R| * d_Y count matrix holds 48k to 780k entries, so Y's counts,
    the codec and X's assembly dominate, and this is the only workload
    whose sessions decode a frame received over TCP.
    """

    name = "ba10k-hub-2p"
    op_timeout_s = 90.0

    def setup(self):
        timings = super().setup()
        vx = self.pg.vx_indices
        hub = int(vx[np.argmax([self.pg.graph.degree(int(i)) for i in vx])])
        self.hub = self.pg.graph.label_of(hub)
        view_y = self.pg.view_y()
        self.y = PartyY(lambda key: view_y)
        return timings

    def _tcp_session(self, eps, mech_mask, seed, transcript):
        return self.y.session(None, self.pg.view_x, self.hub, eps, mech_mask, seed, transcript,
                              self.op_timeout_s)

    def warmup(self):
        self._tcp_session(EPS_HUB[-1], ALL_MECHS, 0, None)

    def one_pass(self):
        rng = np.random.default_rng(self.seed)
        return [Op(label=self.hub, eps=e, seed=int(rng.integers(2**63))) for e in EPS_HUB]

    def run_op(self, op, traced):
        transcript: list[tuple[str, bytes]] = []
        value, ms = self._tcp_session(op.eps, ALL_MECHS, op.seed, transcript)
        if not math.isfinite(value):
            raise GateError(f"two-process session eps={op.eps}: non-finite value {value!r}")
        frames = [frame for _, frame in transcript]
        rec = OpRecord(op.label, op.eps, ms, sum(len(f) for f in frames), traced)
        if traced:
            rec.layers, rec.frames_match = trace_layers(
                self.pg.view_x(), self.pg.view_y(), op.label, op.eps, op.seed, "",
                frames, decode_in_session=True)
        return rec

    def gate(self, done):
        want = exact_ebc(self.pg.graph, self.hub)

        def noiseless_tcp():
            value, _ = self._tcp_session(1.0, frozenset(), 0, None)
            check_exact(value, want, f"noiseless two-process session {self.hub}")

        return _run_gate([(f"exact {self.hub}", lambda: _gate_exact(self.pg, self.hub)),
                          (f"exact tcp {self.hub}", noiseless_tcp)])


class TinyPrivate(_Workload):
    """One private session per op on a freshly partitioned small graph.

    The pool holds one Erdos-Renyi graph for each node count from 8 to 50
    and each of six equal strata of edge probability in [0.05, 0.3), with
    p uniform within its stratum. A pass runs every pool graph once in
    random order; each node count meets each eps of the CLI list once.
    Every op draws a 50/50 split with at least one X node and an X ego,
    so the views, the ego context and the stratum pmf are rebuilt at many
    distinct small sizes. Stratifying the pool keeps the mix of sizes,
    which sets a session's cost, the same from seed to seed.
    """

    name = "tiny-private"
    op_timeout_s = 10.0
    cold_setups = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.graph_seed, self.op_seed = np.random.SeedSequence(seed).spawn(2)

    def make_inputs(self):
        rng = np.random.default_rng(self.graph_seed)
        self.inputs = []
        for n in TINY_SIZES:
            for k in range(len(EPS_CLI)):
                p = TINY_P[0] + (k + rng.random()) * (TINY_P[1] - TINY_P[0]) / len(EPS_CLI)
                er = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
                self.inputs.append((list(er.nodes()), list(er.edges())))

    def setup(self):
        self.graphs, builds = [], []
        for nodes, edges in self.inputs:
            t0 = perf_counter()
            self.graphs.append(Graph(nodes, edges))
            builds.append((perf_counter() - t0) * 1e3)
        return {"graphs.build_ms": float(np.median(builds))}

    def warmup(self):
        g = self.graphs[0]
        mask = np.zeros(g.n, dtype=bool)
        mask[::2] = True
        self._session(Op(label=g.label_of(0), eps=1.0, seed=0, mask=mask), g)

    def one_pass(self):
        rng = np.random.default_rng(self.op_seed)
        strata = len(EPS_CLI)
        shifts = rng.integers(strata, size=len(TINY_SIZES))
        ops = []
        for gi in rng.permutation(len(self.graphs)):
            size_idx, p_stratum = divmod(int(gi), strata)
            g = self.graphs[gi]
            mask = rng.random(g.n) < 0.5
            while not mask.any():
                mask = rng.random(g.n) < 0.5
            ego = int(rng.choice(np.flatnonzero(mask)))
            ops.append(Op(label=g.label_of(ego),
                          eps=EPS_CLI[(p_stratum + shifts[size_idx]) % strata],
                          seed=int(rng.integers(2**63)), graph=int(gi), mask=mask,
                          gate=bool(rng.random() < TINY_GATE_SHARE)))
        return ops

    def _session(self, op, g) -> tuple[float, list[bytes], str]:
        """Run op's private session on `g`: (ms, frames, degenerate marker)."""
        pg = PartitionedGraph(g, op.mask)
        with time_limit(self.op_timeout_s):
            t0 = perf_counter()
            res = run_session(pg, op.label, ProtocolConfig(epsilon=op.eps), np.random.default_rng(op.seed))
            ms = (perf_counter() - t0) * 1e3
        check_private(res, op.eps, f"tiny session graph={op.graph} ego={op.label} eps={op.eps}")
        return ms, list(res.frames), res.degenerate

    def run_op(self, op, traced):
        g = self.graphs[op.graph]
        ms, frames, degenerate = self._session(op, g)
        rec = OpRecord(op.label, op.eps, ms, sum(len(f) for f in frames), traced)
        if traced:
            fresh = PartitionedGraph(g, op.mask)
            t0 = perf_counter()
            view_x, view_y = fresh.view_x(), fresh.view_y()
            views_ms = (perf_counter() - t0) * 1e3
            rec.layers, rec.frames_match = trace_layers(
                view_x, view_y, op.label, op.eps, op.seed, degenerate,
                frames, decode_in_session=self.y is not None)
            rec.layers["graphs.views_ms"] = views_ms
        return rec

    def gate(self, done):
        def check(op):
            g = self.graphs[op.graph]
            _gate_exact(PartitionedGraph(g, op.mask), op.label)

        return _run_gate((f"exact tiny graph={op.graph} ego={op.label}", lambda op=op: check(op))
                         for op in done if op.gate)


class Tiny2p(TinyPrivate):
    """tiny-private's ops, run between two processes over loopback TCP.

    X runs here and Y in a forked child, as in ba10k-hub-2p, and each
    party builds its own view of the op's fresh split. With frames of a
    few hundred bytes, the transport's fixed per-session costs (connect,
    handshake, framing) and the decode weigh most: the opposite end from
    the hub's 15 MB frame. Its sessions are short enough for the best of
    several runs to filter the host's slow phases, which the hub's
    multi-second sessions average over.
    """

    name = "tiny-2p"

    def setup(self):
        timings = super().setup()
        graphs = self.graphs
        self.y = PartyY(lambda key: PartitionedGraph(graphs[key[0]], key[1]).view_y())
        return timings

    def _tcp_session(self, op, g, eps, mech_mask, seed, transcript):
        return self.y.session((op.graph, op.mask), lambda: PartitionedGraph(g, op.mask).view_x(),
                              op.label, eps, mech_mask, seed, transcript, self.op_timeout_s)

    def _session(self, op, g):
        """X's value is all a two-process session returns: it must be
        finite. Y replies unless the ego has fewer than two Y-side
        neighbours, the in-process "small-y-ego" case."""
        transcript: list[tuple[str, bytes]] = []
        value, ms = self._tcp_session(op, g, op.eps, ALL_MECHS, op.seed, transcript)
        if not math.isfinite(value):
            raise GateError(f"two-process tiny session graph={op.graph} ego={op.label} "
                            f"eps={op.eps}: non-finite value {value!r}")
        frames = [frame for _, frame in transcript]
        return ms, frames, "" if len(frames) == 2 else "small-y-ego"

    def gate(self, done):
        def noiseless_tcp(op):
            g = self.graphs[op.graph]
            value, _ = self._tcp_session(op, g, 1.0, frozenset(), 0, None)
            check_exact(value, exact_ebc(g, op.label),
                        f"noiseless two-process session graph={op.graph} ego={op.label}")

        return super().gate(done) + _run_gate(
            (f"exact tcp tiny graph={op.graph} ego={op.label}", lambda op=op: noiseless_tcp(op))
            for op in done if op.gate)


WORKLOADS = {cls.name: cls for cls in (Ba10kSweep, Ba10kHub2p, TinyPrivate, Tiny2p)}
