import hashlib
import math
import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from privebc import (
    ALL_MECHS,
    BackwardMsg,
    DecodeError,
    EbcAccumulator,
    ForwardMsg,
    Graph,
    HandshakeError,
    PartitionedGraph,
    ProtocolConfig,
    ProtocolError,
    SessionResult,
    WrongPartyError,
    decode_msg,
    encode_msg,
    exact_ebc,
    ego_context,
    nonprivate_ebc_protocol,
    private_ebc,
    run_session,
    run_two_process,
)
from privebc import _kernels, protocol
from privebc.dpnum import geometric_runs, geometric_scale
from privebc.forward import _membership
from privebc.graphs import _ego_context_idx, _pair_sum
from privebc.oracle import _edge_pairs, _has
from privebc.protocol import (
    HANDSHAKE_MAGIC,
    HANDSHAKE_VERSION,
    TYPE_BACKWARD,
    TYPE_FORWARD,
    WIRE_VERSION,
    BudgetLedger,
    _assemble_x,
)

from .conftest import make_pg, noiseless_cores, random_graph, random_partition


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(epsilon=1.0, clamp_mode="truncate")
    with pytest.raises(ValueError):
        ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech9"}))
    assert not ProtocolConfig(epsilon=1.0).non_private
    assert ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech1"})).non_private
    assert ProtocolConfig(epsilon=1.0, mech_mask=frozenset()).non_private
    assert issubclass(HandshakeError, ProtocolError)


def test_config_rejects_non_finite_epsilon():
    # an infinite budget has no noise scale; it is refused before any stage runs
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ProtocolConfig(epsilon=eps)


def test_wrong_party_ego(mixed_pg):
    with pytest.raises(WrongPartyError):
        run_session(mixed_pg, "b", ProtocolConfig(epsilon=1.0),
                    np.random.default_rng(0))


# --------------------------------------------- noiseless decomposition

def test_decomposition_star_split():
    # star ego: every leaf pair is open with denominator 1 -> C(k, 2)
    k = 7
    edges = [("a", f"v{i}") for i in range(k)]
    pg = make_pg(edges, x_labels={"a", "v0", "v1", "v2"})
    assert nonprivate_ebc_protocol(pg, "a") == pytest.approx(k * (k - 1) / 2, abs=1e-12)


def test_decomposition_clique_split():
    nodes = ["a", "b", "c", "d", "e"]
    edges = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    pg = make_pg(edges, x_labels={"a", "b", "c"})
    assert nonprivate_ebc_protocol(pg, "a") == 0.0


def test_decomposition_matches_exact_on_random_graphs():
    rng = np.random.default_rng(10)
    checked = 0
    for seed in range(50):
        n = int(rng.integers(4, 31))
        g = random_graph(np.random.default_rng(300 + seed), n, 0.3)
        pg = random_partition(rng, g, x_fraction=float(rng.uniform(0.2, 0.8)))
        for a_idx in pg.vx_indices[:4]:
            a = g.label_of(int(a_idx))
            got = nonprivate_ebc_protocol(pg, a)
            assert got == pytest.approx(exact_ebc(g, a), rel=1e-10, abs=1e-10)
            checked += 1
    assert checked >= 100


def test_decomposition_invariant_to_partition():
    g = random_graph(np.random.default_rng(11), 14, 0.35)
    a = "0"
    want = exact_ebc(g, a)
    rng = np.random.default_rng(12)
    for _ in range(10):
        mask = rng.random(g.n) < 0.5
        mask[g.index_of(a)] = True
        from privebc import PartitionedGraph
        pg = PartitionedGraph(g, mask)
        assert nonprivate_ebc_protocol(pg, a) == pytest.approx(want, rel=1e-10, abs=1e-10)


# ------------------------------------------------------- budget and gates

def test_budget_full_mask(mixed_pg):
    eps = 1.4
    res = run_session(mixed_pg, "a", ProtocolConfig(epsilon=eps),
                      np.random.default_rng(0))
    assert res.budget.total("X") == pytest.approx(eps)
    assert res.budget.total("Y") == pytest.approx(eps)
    mechs = [(p, m) for p, m, _ in res.budget.events]
    assert mechs == [("X", "set-release"), ("Y", "count-vector"), ("Y", "partial-sum")]
    assert not res.non_private
    assert len(res.frames) == 2
    assert res.degenerate == ""


def test_budget_partial_masks(mixed_pg):
    eps = 2.0
    cases = {
        frozenset(): (0.0, 0.0),
        frozenset({"mech1"}): (eps, 0.0),
        frozenset({"mech2"}): (0.0, eps / 2),
        frozenset({"mech3"}): (0.0, eps / 2),
        frozenset({"mech2", "mech3"}): (0.0, eps),
    }
    for mask, (bx, by) in cases.items():
        res = run_session(mixed_pg, "a", ProtocolConfig(epsilon=eps, mech_mask=mask),
                          np.random.default_rng(1))
        assert res.budget.total("X") == pytest.approx(bx)
        assert res.budget.total("Y") == pytest.approx(by)
        assert res.non_private


def test_gate_no_y_nodes():
    edges = [("a", "b"), ("a", "c"), ("b", "d")]
    pg = make_pg(edges, x_labels={"a", "b", "c", "d"})
    res = run_session(pg, "a", ProtocolConfig(epsilon=0.5), np.random.default_rng(0))
    assert res.degenerate == "no-y-nodes"
    assert res.frames == ()
    assert res.budget.events == []
    assert res.value == pytest.approx(exact_ebc(pg.graph, "a"), abs=1e-12)
    assert res.parts.S_XY == 0.0 and res.parts.S_Y == 0.0


def test_gate_single_y_neighbour():
    # one Y node in the ego circle: forward runs, no backward frame,
    # and the result is exact because that node cannot be a midpoint
    edges = [("a", "b"), ("a", "c"), ("a", "y1"), ("b", "y1"), ("y1", "y2")]
    pg = make_pg(edges, x_labels={"a", "b", "c"})
    res = run_session(pg, "a", ProtocolConfig(epsilon=0.5), np.random.default_rng(2))
    assert res.degenerate == "small-y-ego"
    assert len(res.frames) == 1
    assert res.budget.total("X") == pytest.approx(0.5)
    assert res.budget.total("Y") == 0.0
    assert res.parts.S_Y == 0.0
    # with mech1 masked off the run is fully deterministic and exact
    cfg = ProtocolConfig(epsilon=0.5, mech_mask=frozenset({"mech2", "mech3"}))
    res2 = run_session(pg, "a", cfg, np.random.default_rng(3))
    assert res2.value == pytest.approx(exact_ebc(pg.graph, "a"), abs=1e-12)


def test_session_result_fields(mixed_pg):
    res = run_session(mixed_pg, "a", ProtocolConfig(epsilon=1.0),
                      np.random.default_rng(4))
    assert isinstance(res, SessionResult)
    assert isinstance(res.parts, EbcAccumulator)
    assert res.value == pytest.approx(res.parts.total)
    assert res.r_size == int(decode_msg(res.frames[0]).member.sum())
    assert isinstance(decode_msg(res.frames[1]), BackwardMsg)


def test_high_budget_accuracy(mixed_pg):
    want = exact_ebc(mixed_pg.graph, "a")
    got = private_ebc(mixed_pg, "a", ProtocolConfig(epsilon=1e9),
                      np.random.default_rng(5))
    assert got == pytest.approx(want, abs=1e-5)


def test_determinism_under_seed(mixed_pg):
    cfg = ProtocolConfig(epsilon=0.8)
    a = run_session(mixed_pg, "a", cfg, np.random.default_rng(6))
    b = run_session(mixed_pg, "a", cfg, np.random.default_rng(6))
    c = run_session(mixed_pg, "a", cfg, np.random.default_rng(7))
    assert a.value == b.value and a.frames == b.frames
    assert c.frames != a.frames


def test_in_process_session_reads_only_the_party_views(mixed_pg):
    # each party derives its side of the session from its own view: once
    # the views are built, emptying the joint graph's edges changes
    # nothing, neither the value nor the frames nor the ledger
    cases = [(mixed_pg, "a")]
    rng = np.random.default_rng(12)
    for seed in range(6):
        pg = random_partition(rng, random_graph(np.random.default_rng(400 + seed), 10, 0.4))
        cases += [(pg, pg.graph.label_of(int(a))) for a in pg.vx_indices[:2]]
    flows = set()
    for pg, label in cases:
        pg.view_x(), pg.view_y()
        configs = (ProtocolConfig(epsilon=1.0), ProtocolConfig(epsilon=1.0, mech_mask=frozenset()))
        want = [run_session(pg, label, cfg, np.random.default_rng(5)) for cfg in configs]
        g = pg.graph
        pg.graph = Graph._from_csr(g, np.zeros(g.n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        for cfg, w in zip(configs, want):
            got = run_session(pg, label, cfg, np.random.default_rng(5))
            assert got.value == w.value
            assert got.frames == w.frames
            assert got.budget.events == w.budget.events
            assert got.degenerate == w.degenerate
            flows.add(w.degenerate)
    assert "" in flows


# --------------------------------------------------- X-side assembly rules

def _assembly_fixture():
    edges = [("a", "x1"), ("a", "y1"), ("a", "y2")]
    pg = make_pg(edges, x_labels={"a", "x1"})
    view_x = pg.view_x()
    g = view_x.graph
    a_idx = g.index_of("a")
    ectx = ego_context(view_x, "a")
    x1, y1, y2 = g.index_of("x1"), g.index_of("y1"), g.index_of("y2")
    return view_x, ectx, x1, y1, y2


def _r_bits(ectx, r_sorted):
    """R's bits over X^-, as X's assembly reads R."""
    return _membership(ectx.x_minus_sorted, np.asarray(r_sorted, dtype=np.int64))


def test_clamp_mode_restores_denominators():
    view_x, ectx, x1, y1, y2 = _assembly_fixture()
    assert y1 < y2  # columns in ascending id order
    back = BackwardMsg(T=np.array([[-5, 1]]), S_Y=0.25)
    acc, skipped = _assemble_x(view_x, ectx, _r_bits(ectx, [x1]), back,
                               ProtocolConfig(epsilon=1.0))
    # K_x = 1 for both pairs (the path through a); clamp zeroes the -5
    assert skipped == 0
    assert acc.S_XY == pytest.approx(1.0 / 1.0 + 1.0 / 2.0)
    assert acc.S_Y == 0.25
    assert acc.S_X == 0.0


def test_raw_mode_skips_nonpositive_denominators():
    view_x, ectx, x1, y1, y2 = _assembly_fixture()
    back = BackwardMsg(T=np.array([[-5, 1]]), S_Y=0.25)
    acc, skipped = _assemble_x(view_x, ectx, _r_bits(ectx, [x1]), back,
                               ProtocolConfig(epsilon=1.0, clamp_mode="raw"))
    assert skipped == 1
    assert acc.S_XY == pytest.approx(1.0 / 2.0)
    # exactly zero denominators are skipped too
    back0 = BackwardMsg(T=np.array([[-1, 1]]), S_Y=0.0)
    _, skipped0 = _assemble_x(view_x, ectx, _r_bits(ectx, [x1]), back0,
                              ProtocolConfig(epsilon=1.0, clamp_mode="raw"))
    assert skipped0 == 1


def test_counts_for_nodes_outside_r_star_are_discarded(mixed_pg):
    view_x = mixed_pg.view_x()
    g = view_x.graph
    ectx = ego_context(view_x, "a")
    y_ego = sorted(v for v in g.neighbors(ectx.a) if not view_x.is_x(v))
    r = np.array(sorted(set(ectx.R_star) | {g.index_of("f")}))  # f is X-side, not in N_a
    base_t = np.ones((r.size, len(y_ego)), dtype=np.int64)
    tampered = base_t.copy()
    tampered[r.tolist().index(g.index_of("f"))] = 10**12
    cfg = ProtocolConfig(epsilon=1.0)
    acc1, s1 = _assemble_x(view_x, ectx, _r_bits(ectx, r), BackwardMsg(T=base_t, S_Y=0.0), cfg)
    acc2, s2 = _assemble_x(view_x, ectx, _r_bits(ectx, r), BackwardMsg(T=tampered, S_Y=0.0), cfg)
    assert (acc1, s1) == (acc2, s2)


def test_missing_rows_start_from_zero(mixed_pg):
    # i in R* but not in R: X uses 0 + its own side counts
    view_x = mixed_pg.view_x()
    ectx = ego_context(view_x, "a")
    y_ego = sorted(v for v in view_x.graph.neighbors(ectx.a) if not view_x.is_x(v))
    cfg = ProtocolConfig(epsilon=1.0)
    no_r = np.array([], dtype=np.int64)
    acc_none, _ = _assemble_x(view_x, ectx, _r_bits(ectx, no_r), None, cfg)
    empty = BackwardMsg(T=np.zeros((0, len(y_ego)), dtype=np.int64), S_Y=0.0)
    acc_zero, _ = _assemble_x(view_x, ectx, _r_bits(ectx, no_r), empty, cfg)
    assert acc_none.S_XY == acc_zero.S_XY == pytest.approx(
        sum(1.0 for _ in ectx.R_star for _ in y_ego))  # all K_x = 1 here
    assert acc_none.S_X == acc_zero.S_X


def _ego_local(g, a_idx):
    """N_a plus a as a sorted index array, and the float 0/1 adjacency
    of the subgraph g induces on it."""
    local = np.array(sorted(g.neighbors(a_idx) | {a_idx}), dtype=np.int64)
    indptr, indices = g.csr()
    return local, _kernels.induced_dense(indptr, indices, local).astype(np.float64)


def _assemble_x_by_masks(view_x, ectx, r_sorted, back, config):
    """X's assembly as it was written over the ego's whole local block
    N_a u {a}, re-sliced by party masks: the reference the one-block
    assembly must match bit for bit."""
    local, m = _ego_local(view_x.graph, ectx.a)
    in_x = view_x._is_x[local]  # R* and a itself
    rs = in_x & (local != ectx.a)
    ys = ~in_x
    rows = m[rs]  # R* against all of N_a u {a}
    acc = EbcAccumulator()
    skipped = 0
    if rows.shape[0] and ys.any():
        k_x = rows[:, in_x] @ m[in_x][:, ys]
        t_recv = np.zeros(k_x.shape, dtype=np.float64)
        if back is not None and r_sorted.size:
            hit, pos = _kernels._locate(r_sorted, local[rs])
            t_recv[hit] = back.T[pos]
        if config.clamp_mode == "clamp_nonneg":
            np.maximum(t_recv, 0.0, out=t_recv)
        denom = t_recv + k_x
        open_pairs = rows[:, ys] == 0
        usable = open_pairs & (denom > 0.0)
        skipped = int(np.count_nonzero(open_pairs & ~usable))
        acc.S_XY = float((1.0 / denom[usable]).sum())
    if rows.shape[0] >= 2:
        acc.S_X = _pair_sum(rows[:, rs], rows @ m[:, rs])
    acc.S_Y = back.S_Y if back is not None else 0.0
    return acc, skipped


def _assembly_cases(rng):
    """(view_x, ego context, R) over random graphs and partitions, with R
    drawn to cover R = R*, R a strict part of R*, R reaching outside R*,
    and an empty R."""
    for seed in range(50):
        n = int(rng.integers(3, 31))
        g = random_graph(np.random.default_rng(700 + seed), n, float(rng.uniform(0.1, 0.6)))
        pg = random_partition(rng, g, x_fraction=float(rng.uniform(0.2, 0.8)))
        view_x = pg.view_x()
        for a in pg.vx_indices[:3]:
            ectx = _ego_context_idx(view_x, int(a))
            x_minus, r_star = ectx.x_minus_sorted, ectx.r_star_sorted
            picks = [r_star, r_star[rng.random(r_star.size) < 0.5],
                     x_minus[rng.random(x_minus.size) < 0.5], x_minus[:0]]
            for r in picks:
                yield view_x, ectx, r


def test_one_block_assembly_matches_the_masked_reference():
    rng = np.random.default_rng(23)
    seen = set()
    for view_x, ectx, r in _assembly_cases(rng):
        r_star, d_y = ectx.r_star_sorted, ectx.y_ego_sorted.size
        t = rng.integers(-6, 7, size=(r.size, d_y))
        replies = [None, BackwardMsg(T=t, S_Y=float(rng.normal()))]
        for back in replies:
            for mode in ("clamp_nonneg", "raw"):
                cfg = ProtocolConfig(epsilon=1.0, clamp_mode=mode)
                want = _assemble_x_by_masks(view_x, ectx, r, back, cfg)
                assert _assemble_x(view_x, ectx, _r_bits(ectx, r), back, cfg) == want
                seen.add((mode, want[1] > 0))
        inside = np.isin(r, r_star)
        seen.add(("R*", r_star.size == 0))
        seen.add(("d_Y", min(d_y, 2)))
        seen.add(("R", "outside" if not inside.all() else
                  "= R*" if r.size == r_star.size else "part"))
    assert {("R*", True), ("R*", False), ("d_Y", 0), ("d_Y", 1), ("d_Y", 2),
            ("R", "outside"), ("R", "= R*"), ("R", "part"),
            ("raw", True), ("clamp_nonneg", False)} <= seen


# ------------------------------------------------------------ wire format

def _bits(*flags) -> np.ndarray:
    return np.array(flags, dtype=bool)


def _leb128(value: int) -> bytes:
    """Unsigned LEB128, written apart from the codec's own encoder."""
    groups = [value >> shift & 0x7F for shift in range(0, max(value.bit_length(), 1), 7)]
    return bytes(g | 0x80 for g in groups[:-1]) + bytes(groups[-1:])


def test_forward_frame_bytes_empty():
    # length 3 | version 4 | type 1 | n = 0, and no bitmap
    frame = encode_msg(ForwardMsg(member=_bits()))
    assert frame == bytes.fromhex("03" "04" "01" "00")
    assert len(frame) == 4
    assert decode_msg(frame).member.size == 0


def test_forward_frame_bytes_single_node():
    # X^- of nine nodes, R its first and its last: bits 1000 0000 1(000 0000)
    frame = encode_msg(ForwardMsg(member=_bits(1, 0, 0, 0, 0, 0, 0, 0, 1)))
    assert frame == bytes.fromhex("05" "04" "01" "09" "80" "80")
    assert len(frame) == 6
    assert decode_msg(frame).member.tolist() == [True] + [False] * 7 + [True]
    with pytest.raises(ValueError):  # only the sender knows which ids the bits name
        decode_msg(frame).R
    # the sender's message resolves its bits against its own X^-; the
    # README's example: three nodes, bits 101, five bytes (v3 took 11)
    msg = ForwardMsg(member=_bits(0, 1, 0), x_minus=np.array([2, 5, 7]))
    assert msg.R == frozenset({5})
    assert encode_msg(msg) == bytes.fromhex("04" "04" "01" "03" "40")
    assert encode_msg(ForwardMsg(member=_bits(1, 0, 1))) == bytes.fromhex("04 04 01 03 a0")


def test_frame_headers_are_four_and_six_bytes_below_128():
    # a forward frame over |X^-| < 128 spends 4 bytes on its header
    for n in (0, 1, 8, 100, 127):
        frame = encode_msg(ForwardMsg(member=np.ones(n, dtype=bool)))
        assert len(frame) - (n + 7) // 8 == 4
        assert frame[:4] == bytes((2 + 1 + (n + 7) // 8, 4, 1, n))
    # at 128 the count takes two bytes
    assert len(encode_msg(ForwardMsg(member=np.ones(128, dtype=bool)))) - 16 == 5
    # a backward frame whose rows, cols and length are below 128 spends
    # 6 bytes before its counts, and 8 after them on S_Y
    for rows, cols in ((0, 0), (1, 3), (3, 1), (0, 127), (127, 0), (10, 11)):
        frame = encode_msg(BackwardMsg(T=np.zeros((rows, cols), dtype=np.int64), S_Y=0.0))
        assert len(frame) - rows * cols - 8 == 6
        assert frame[:6] == bytes((len(frame) - 1, 4, 2, rows, cols, 1))


def _same_msg(a: BackwardMsg, b: BackwardMsg) -> bool:
    # S_Y bit for bit, so -0.0 must arrive as -0.0
    return (a.T.shape == b.T.shape and a.T.tolist() == b.T.tolist()
            and struct.pack(">d", a.S_Y) == struct.pack(">d", b.S_Y))


def test_backward_frame_bytes_three_entries():
    # every count fits one byte; S_Y follows as an f8
    msg = BackwardMsg(T=np.array([[5, -2, 127]]), S_Y=1.25)
    frame = encode_msg(msg)
    want = bytes((16, 4, 2, 1, 3, 1))
    want += struct.pack(">bbb", 5, -2, 127)
    want += struct.pack(">d", 1.25)
    assert frame == want
    assert len(frame) == 17
    assert _same_msg(decode_msg(frame), msg)


def test_backward_frame_bytes_two_by_two():
    # -129 needs two bytes, so the whole matrix goes as >i2
    msg = BackwardMsg(T=np.array([[5, -129], [4, 0]]), S_Y=-0.75)
    frame = encode_msg(msg)
    want = bytes.fromhex(
        "15" "04" "02" "02" "02" "02"
        "0005" "ff7f" "0004" "0000"
        "bfe8000000000000")
    assert frame == want
    assert len(frame) == 22
    got = decode_msg(frame)
    assert _same_msg(got, msg)
    assert got.T.dtype == np.int64 and got.T.flags.c_contiguous


def test_backward_frame_bytes_empty_r():
    # R empty: a 0 x d_Y matrix, so only the shape and S_Y travel
    msg = BackwardMsg(T=np.zeros((0, 3), dtype=np.int64), S_Y=2.0)
    frame = encode_msg(msg)
    assert frame == bytes((13, 4, 2, 0, 3, 1)) + struct.pack(">d", 2.0)
    assert len(frame) == 14
    got = decode_msg(frame)
    assert got.T.shape == (0, 3) and got.S_Y == 2.0


def test_backward_frame_widths_follow_the_largest_magnitude():
    for big, width in ((127, 1), (-128, 1), (128, 2), (-129, 2), (32767, 2), (32768, 4),
                       (-(2**31), 4), (2**31, 8), (-(2**63), 8), (2**63 - 1, 8)):
        msg = BackwardMsg(T=np.array([[0, big]], dtype=np.int64), S_Y=0.0)
        frame = encode_msg(msg)
        assert frame[5] == width
        assert len(frame) == 14 + 2 * width
        assert _same_msg(decode_msg(frame), msg)


def test_encode_rejects_non_matrix_counts():
    with pytest.raises(ValueError):
        encode_msg(BackwardMsg(T=np.zeros(4), S_Y=0.0))
    with pytest.raises(ValueError):  # counts are integers
        encode_msg(BackwardMsg(T=np.array([[0.5]]), S_Y=0.0))


def test_seeded_frames_and_values_are_pinned():
    # digest of frames and values of fixed-seed private sessions; a change
    # here moves every seeded experiment stream
    rng = np.random.default_rng(31)
    h = hashlib.sha256()
    for n in (12, 30, 60):
        edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
        g = Graph([str(i) for i in range(n)], edges)
        pg = PartitionedGraph(g, rng.random(n) < 0.5)
        for a in pg.vx_indices[:3]:
            for eps in (0.1, 1.0, 7.0):
                res = run_session(pg, g.label_of(int(a)), ProtocolConfig(epsilon=eps),
                                  np.random.default_rng(n + int(a)))
                for f in res.frames:
                    h.update(f)
                h.update(repr(res.value).encode())
    assert h.hexdigest() == "0843057ed0a06c8b55d24ed1b85a25d7c071f7c8c1f5a2b9f26a1edf23b789df"


def test_seeded_r_sets_and_noiseless_values_are_pinned():
    # the sessions above, without Y's noise: their R sets, the noiseless
    # counts for each R and the values with noiseless replies. Wire
    # formats v2 and v3 and both changes of Y's noise sampler left it
    # as it was; the stratum scan's move to the upper tail moved it,
    # since one uniform now maps to another stratum, and so did stage
    # one's move to per-node trials, which read other words, and the
    # release of the trials' own flips in place of a second stage.
    rng = np.random.default_rng(31)
    h = hashlib.sha256()
    for n in (12, 30, 60):
        edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
        g = Graph([str(i) for i in range(n)], edges)
        pg = PartitionedGraph(g, rng.random(n) < 0.5)
        for a in pg.vx_indices[:3]:
            label = g.label_of(int(a))
            ectx = _ego_context_idx(pg, int(a))
            y_ego = ectx.y_ego_sorted
            for eps in (0.1, 1.0, 7.0):
                seed = n + int(a)
                res = run_session(pg, label, ProtocolConfig(epsilon=eps), np.random.default_rng(seed))
                bits = decode_msg(res.frames[0]).member
                r_sorted = ectx.x_minus_sorted[bits].tolist()
                exact = run_session(pg, label,
                                    ProtocolConfig(epsilon=eps, mech_mask=frozenset({"mech1"})),
                                    np.random.default_rng(seed))
                core = noiseless_cores(pg.view_y(), np.array(r_sorted, dtype=np.int64), y_ego)[0]
                h.update(repr(r_sorted).encode())
                h.update(repr((exact.value, exact.parts.S_X, exact.parts.S_XY,
                               exact.parts.S_Y)).encode())
                h.update(repr(core.shape).encode() + core.tobytes())
    assert h.hexdigest() == "38459c1454a2c283a6187912069357d444d6ba3d1c396ceb9e77651b8f35df81"


def test_encode_rejects_unknown_type():
    with pytest.raises(TypeError):
        encode_msg("hello")


@given(st.lists(st.booleans(), max_size=300))
@settings(max_examples=200, deadline=None)
def test_forward_roundtrip(flags):
    # past 127 nodes the count takes two bytes, and past 125 bytes of
    # frame the length does too
    n = len(flags)
    frame = encode_msg(ForwardMsg(member=np.array(flags, dtype=bool)))
    payload = _leb128(n) + np.packbits(np.array(flags, dtype=bool)).tobytes()
    assert frame == _leb128(2 + len(payload)) + bytes((4, 1)) + payload
    assert len(frame) == protocol._forward_frame_size(n)
    assert decode_msg(frame).member.tolist() == flags


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INT64 = st.integers(-(2**63), 2**63 - 1)


@given(st.integers(0, 8), st.integers(0, 8), st.data(),
       st.one_of(_FINITE, _INT64.map(lambda g: g * 2.0**-20)))
@settings(max_examples=200, deadline=None)
def test_backward_roundtrip(rows, cols, data, s_y):
    values = data.draw(st.lists(st.one_of(_INT64, st.integers(-200, 200)),
                                min_size=rows * cols, max_size=rows * cols))
    msg = BackwardMsg(T=np.array(values, dtype=np.int64).reshape(rows, cols), S_Y=s_y)
    frame = encode_msg(msg)
    # the narrowest width that holds every value
    code = next(w for w in (1, 2, 4, 8) if all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1
                                               for v in values))
    assert frame == _backward_frame(rows, cols, values, s_y, code)
    assert len(frame) <= protocol._backward_frame_size(rows, cols)
    assert _same_msg(decode_msg(frame), msg)
    assert encode_msg(decode_msg(frame)) == frame


@given(st.sampled_from((1, 2, 4, 8)), st.integers(0, 140), st.integers(0, 140),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_backward_roundtrip_at_each_width(width, rows, cols, seed, low):
    # random counts of width `width`, one of them at its extreme, low
    # (-2^(8w-1)) or high (2^(8w-1) - 1), so the frame takes that width
    lo, hi = -(1 << 8 * width - 1), (1 << 8 * width - 1) - 1
    rng = np.random.default_rng(seed)
    t = rng.integers(lo, hi, size=(rows, cols), dtype=np.int64, endpoint=True)
    if t.size:
        t.flat[rng.integers(t.size)] = lo if low else hi
    msg = BackwardMsg(T=t, S_Y=float(rng.normal()))
    frame = encode_msg(msg)
    # an empty matrix goes at width 1
    assert frame == _backward_frame(rows, cols, t.ravel().tolist(), msg.S_Y,
                                    width if t.size else 1)
    assert len(frame) <= protocol._backward_frame_size(rows, cols)
    assert _same_msg(decode_msg(frame), msg)
    assert encode_msg(decode_msg(frame)) == frame


def _offset_of(exc_info) -> int:
    return exc_info.value.offset


def test_decode_error_truncated_header():
    # a length below the version and type bytes, then a length varint
    # cut short: at its first byte, or after a byte that says more follow
    for frame, offset in ((b"\x00\x00", 0), (b"\x01\x04", 0), (b"", 0), (b"\x80", 1)):
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == offset


def test_varints_at_group_boundaries():
    for value, want in ((0, "00"), (127, "7f"), (128, "8001"), (16383, "ff7f"),
                        (16384, "808001"), (2**32 - 1, "ffffffff0f")):
        assert protocol._varint(value) == bytes.fromhex(want) == _leb128(value)
        # read from inside a buffer, with a byte after it
        assert protocol._read_varint(b"\xee" + bytes.fromhex(want) + b"\xee", 1) == (
            value, 1 + len(want) // 2)
    with pytest.raises(ValueError):
        protocol._varint(2**32)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_varint_roundtrip(value):
    code = protocol._varint(value)
    assert code == _leb128(value)
    assert protocol._varint_size(value) == len(code) <= protocol._VARINT_MAX
    assert protocol._read_varint(code, 0) == (value, len(code))


_VARINT_REFUSALS = (("8000", 1), ("ff8000", 2), ("8080808080", 4), ("ffffffffff01", 4),
                    ("8080808010", 0), ("ffffffff1f", 0))


def test_varint_refuses_overlong_unterminated_and_oversized():
    # a zero final byte (0 as two bytes, 127 as three), five bytes that
    # all say more follow, and a five-byte value of 2^32 or more
    for code, offset in _VARINT_REFUSALS:
        with pytest.raises(DecodeError) as e:
            protocol._read_varint(bytes.fromhex(code), 0)
        assert _offset_of(e) == offset
    # the frame's length field is read the same way
    for frame, offset in ((bytes.fromhex("830004010300"), 1), (b"\x80" * 6, 4)):
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == offset


def test_varint_fast_path_agrees_with_the_loop():
    # the one-byte early returns give what the seven-bits-a-byte loops
    # give, on every value of one and two bytes and on the largest
    for value in (*range(2**14 + 1), 2**32 - 1):
        code = protocol._varint(value)
        assert code == protocol._varint_loop(value)
        buf = b"\xee" + code + b"\xee"
        assert (protocol._read_varint(buf, 1) == protocol._read_varint_loop(buf, 1)
                == (value, 1 + len(code)))
    for value in (-1, 2**32):
        for encode in (protocol._varint, protocol._varint_loop):
            with pytest.raises(ValueError):
                encode(value)


def test_varint_fast_path_keeps_every_refusal_offset():
    # each malformed varint of the refusal test above, and an empty read,
    # is refused at the same byte by the reader and by its loop, at the
    # start of a buffer and after a byte
    for code, offset in (*_VARINT_REFUSALS, ("", 0)):
        for prefix in (b"", b"\x05"):
            data = prefix + bytes.fromhex(code)
            for read in (protocol._read_varint, protocol._read_varint_loop):
                with pytest.raises(DecodeError) as e:
                    read(data, len(prefix))
                assert _offset_of(e) == len(prefix) + offset


def test_decode_refuses_a_width_wider_than_the_counts_need():
    # every accepted frame is the one encoding of its message: a width
    # code wider than the counts need is refused at the width byte, and
    # an empty matrix goes at width 1
    for rows, cols, values, code in ((1, 3, [0, 0, 0], 8), (1, 2, [127, -128], 2),
                                     (2, 1, [128, -32768], 4), (1, 2, [2**31 - 1, -(2**31)], 8),
                                     (0, 3, [], 2), (3, 0, [], 8), (0, 0, [], 4)):
        frame = _backward_frame(rows, cols, values, 0.5, code=code)
        with pytest.raises(DecodeError, match="wider") as e:
            decode_msg(frame)
        assert _offset_of(e) == 5
        narrow = encode_msg(BackwardMsg(T=np.array(values, dtype=np.int64).reshape(rows, cols),
                                        S_Y=0.5))
        assert narrow[5] < code and encode_msg(decode_msg(narrow)) == narrow


def _overlong(value: int, extra: int) -> bytes:
    """value's LEB128 followed by `extra` redundant groups: a longer
    form than the shortest when extra > 0."""
    code = bytearray(_leb128(value))
    for _ in range(extra):
        code[-1] |= 0x80
        code.append(0)
    return bytes(code)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_every_accepted_frame_is_its_message_encoding(data):
    # frames built field by field, some with a longer varint, a wider
    # width code, a set padding bit, a non-finite S_Y or one byte
    # changed: whatever decode_msg accepts, encode_msg writes back as is
    draw = data.draw
    extra = st.sampled_from((0,) * 7 + (1,))
    mtype = draw(st.sampled_from((TYPE_FORWARD, TYPE_BACKWARD)))
    if mtype == TYPE_FORWARD:
        n = draw(st.integers(0, 40))
        bits = bytearray(draw(st.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8)))
        if n % 8 and draw(st.booleans()):
            bits[-1] &= 0xFF << 8 - n % 8 & 0xFF  # padding bits clear
        body = _overlong(n, draw(extra)) + bytes(bits)
    else:
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        width = draw(st.sampled_from((1, 2, 4, 8)))
        size = rows * cols * width
        body = (_overlong(rows, draw(extra)) + _overlong(cols, draw(extra)) + bytes((width,))
                + draw(st.binary(min_size=size, max_size=size))
                + draw(st.binary(min_size=8, max_size=8)))
    payload = bytes((WIRE_VERSION, mtype)) + body
    frame = _overlong(len(payload), draw(extra)) + payload
    if draw(st.sampled_from((False, False, True))):
        at = draw(st.integers(0, len(frame) - 1))
        frame = frame[:at] + bytes((draw(st.integers(0, 255)),)) + frame[at + 1:]
    try:
        msg = decode_msg(frame)
    except DecodeError:
        event("refused")
        return
    event("accepted")
    assert encode_msg(msg) == frame


def test_decode_error_trailing_garbage():
    frame = encode_msg(ForwardMsg(member=_bits(0, 1)))
    with pytest.raises(DecodeError) as e:
        decode_msg(frame + b"\x00")
    assert _offset_of(e) == len(frame)


def test_decode_error_truncated_body():
    frame = encode_msg(ForwardMsg(member=_bits(0, 1)))
    with pytest.raises(DecodeError) as e:
        decode_msg(frame[:-1])
    assert _offset_of(e) == len(frame) - 1


def test_decode_error_bad_version():
    frame = bytearray(encode_msg(ForwardMsg(member=_bits())))
    for version in (3, 9):  # a v3 frame's length would start 00 00
        frame[1] = version
        with pytest.raises(DecodeError) as e:
            decode_msg(bytes(frame))
        assert _offset_of(e) == 1


def test_decode_error_bad_type():
    frame = bytearray(encode_msg(ForwardMsg(member=_bits())))
    frame[2] = 7
    with pytest.raises(DecodeError) as e:
        decode_msg(bytes(frame))
    assert _offset_of(e) == 2


def test_decode_error_forward_padding_bit_set():
    # 11 bits in two bytes: the last five bits of byte 5 are padding
    for pad in (0x01, 0x10):
        frame = bytes((5, 4, 1, 11, 0xFF, 0xE0 | pad))
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == 5
    assert decode_msg(bytes((5, 4, 1, 11, 0xFF, 0xE0))).member.all()


def test_decode_error_forward_bitmap_length():
    # the bitmap must be exactly ceil(n / 8) bytes
    for n, nbytes in ((9, 1), (8, 2), (0, 1)):
        frame = bytes((3 + nbytes, 4, 1, n)) + b"\x00" * nbytes
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == 4
    # no count at all
    with pytest.raises(DecodeError) as e:
        decode_msg(bytes((2, 4, 1)))
    assert _offset_of(e) == 3


def _backward_frame(rows: int, cols: int, values: list[int], s_y: float = 0.0,
                    code: int = 8) -> bytes:
    """A hand-built v4 backward frame: `values` as width-`code` integers,
    then S_Y as an f8."""
    body = b"".join(v.to_bytes(code, "big", signed=True) for v in values)
    payload = _leb128(rows) + _leb128(cols) + bytes((code,)) + body + struct.pack(">d", s_y)
    return _leb128(2 + len(payload)) + bytes((4, 2)) + payload


def test_decode_error_backward_shape_count_mismatch():
    # 2 x 2 announced, 3 values sent (and the reverse): the payload
    # disagrees with |R| * d_Y * width, reported where the matrix starts
    for rows, cols, values, code in ((2, 2, [1, 2, 3], 8), (1, 2, [1, 2, 3], 8),
                                     (2, 2, [1, 2, 3, 4], 4), (1, 3, [1, 2, 3, 4], 1)):
        frame = _backward_frame(rows, cols, values, code=code)
        if code != 8:  # announce a wider code than the values were packed at
            frame = frame[:5] + bytes([code * 2]) + frame[6:]
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == 6


def test_decode_error_backward_unknown_width_code():
    frame = bytearray(_backward_frame(1, 2, [1, 2], code=2))
    for code in (0, 3, 5, 16, 0x81, 0x88, 0xFF):
        frame[5] = code
        with pytest.raises(DecodeError) as e:
            decode_msg(bytes(frame))
        assert _offset_of(e) == 5


def test_decode_error_backward_truncated_and_oversized():
    frame = encode_msg(BackwardMsg(T=np.full((2, 3), 1000), S_Y=0.5))
    with pytest.raises(DecodeError) as e:  # cut inside the matrix
        decode_msg(frame[:12])
    assert _offset_of(e) == 12
    with pytest.raises(DecodeError) as e:  # trailing bytes after the frame
        decode_msg(frame + b"\x00" * 8)
    assert _offset_of(e) == len(frame)
    with pytest.raises(DecodeError) as e:  # a frame with a value too many
        decode_msg(_backward_frame(2, 3, [1] * 7))
    assert _offset_of(e) == 6
    # no room for the shape field: no rows, no cols, no width code
    for short, offset in (((2, 4, 2), 3), ((3, 4, 2, 1), 4), ((4, 4, 2, 1, 3), 5)):
        with pytest.raises(DecodeError) as e:
            decode_msg(bytes(short))
        assert _offset_of(e) == offset
    # rows * cols beyond any frame is only a mismatch, never an allocation
    with pytest.raises(DecodeError) as e:
        decode_msg(_backward_frame(2**32 - 1, 2**32 - 1, [0]))
    assert _offset_of(e) == 14


def test_decode_error_backward_non_finite():
    # integer counts cannot be non-finite; the f8 S_Y can
    nan, inf = float("nan"), float("inf")
    for rows, cols, values, s_y in ((1, 3, [5, 6, 7], nan), (2, 2, [0] * 4, -inf),
                                    (0, 4, [], inf)):
        frame = _backward_frame(rows, cols, values, s_y, code=1)
        with pytest.raises(DecodeError) as e:
            decode_msg(frame)
        assert _offset_of(e) == len(frame) - 8
    assert decode_msg(_backward_frame(1, 1, [3], 0.1, code=1)).S_Y == 0.1


# ----------------------------------------------------- two-process runs

def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _run_y(view, a, config, seed, address, transcript=None, box=None):
    try:
        run_two_process("Y", address, view, a, config, seed, transcript=transcript)
    except Exception as exc:  # surfaced to the main thread for assertion
        if box is not None:
            box.append(exc)
        else:
            raise


def _children(seed: int) -> list[np.random.Generator]:
    """The generators run_session spawns for X and Y from seed."""
    return np.random.default_rng(seed).spawn(2)


def test_two_process_matches_in_process(mixed_pg):
    cfg = ProtocolConfig(epsilon=0.9)
    seed = 123
    want = run_session(mixed_pg, "a", cfg, np.random.default_rng(seed))

    # each role handed run_session's child for it, or both the int seed,
    # from which each half builds that same child
    for rng_x, rng_y in (_children(seed), (seed, seed)):
        address = ("127.0.0.1", _free_port())
        tx: list = []
        ty: list = []
        yt = threading.Thread(target=_run_y,
                              args=(mixed_pg.view_y(), "a", cfg, rng_y, address, ty))
        yt.start()
        got = run_two_process("X", address, mixed_pg.view_x(), "a", cfg, rng_x,
                              transcript=tx)
        yt.join(timeout=30)
        assert not yt.is_alive()

        assert got == want.value  # bit-identical, not just close
        assert [k for k, _ in tx] == ["sent-forward", "received-backward"]
        assert [k for k, _ in ty] == ["received-forward", "sent-backward"]
        assert tx[0][1] == ty[0][1] == want.frames[0]
        assert tx[1][1] == ty[1][1] == want.frames[1]


def test_two_process_forked_process(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.1, clamp_mode="raw")
    seed = 321
    want = run_session(mixed_pg, "a", cfg, np.random.default_rng(seed))
    rng_x, rng_y = _children(seed)
    address = ("127.0.0.1", _free_port())
    mp = multiprocessing.get_context("fork")
    proc = mp.Process(target=run_two_process,
                      args=("Y", address, mixed_pg.view_y(), "a", cfg, rng_y))
    proc.start()
    try:
        got = run_two_process("X", address, mixed_pg.view_x(), "a", cfg, rng_x)
    finally:
        proc.join(timeout=30)
    assert proc.exitcode == 0
    assert got == want.value


def test_two_process_degenerate_skips_backward():
    edges = [("a", "b"), ("a", "c"), ("a", "y1"), ("b", "y1"), ("y1", "y2")]
    pg = make_pg(edges, x_labels={"a", "b", "c"})
    cfg = ProtocolConfig(epsilon=0.5)
    seed = 5
    want = run_session(pg, "a", cfg, np.random.default_rng(seed))
    rng_x, rng_y = _children(seed)
    address = ("127.0.0.1", _free_port())
    tx: list = []
    ty: list = []
    yt = threading.Thread(target=_run_y,
                          args=(pg.view_y(), "a", cfg, rng_y, address, ty))
    yt.start()
    got = run_two_process("X", address, pg.view_x(), "a", cfg, rng_x, transcript=tx)
    yt.join(timeout=30)
    assert got == want.value
    assert [k for k, _ in tx] == ["sent-forward"]
    assert [k for k, _ in ty] == ["received-forward"]


def test_two_process_handshake_version_mismatch(mixed_pg):
    # a stand-in X says hello with version 99: Y answers with its own
    # version and then refuses
    cfg = ProtocolConfig(epsilon=0.9)
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(mixed_pg.view_y(), "a", cfg, 1, address, None, box))
    yt.start()
    with protocol._connect(address) as sock:
        sock.sendall(HANDSHAKE_MAGIC + bytes([99]))
        assert protocol._recv_exact(sock, 5) == HANDSHAKE_MAGIC + bytes([HANDSHAKE_VERSION])
    yt.join(timeout=30)
    assert not yt.is_alive()
    assert len(box) == 1 and isinstance(box[0], HandshakeError)


def test_two_process_no_y_nodes():
    # with no Y nodes both parties only shake hands: no frame, no budget
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")]
    pg = make_pg(edges, x_labels={"a", "b", "c", "d"})
    cfg = ProtocolConfig(epsilon=0.5)
    seed = 8
    want = run_session(pg, "a", cfg, np.random.default_rng(seed))
    assert want.degenerate == "no-y-nodes"
    rng_x, rng_y = _children(seed)
    address = ("127.0.0.1", _free_port())
    tx: list = []
    ty: list = []
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(pg.view_y(), "a", cfg, rng_y, address, ty, box))
    yt.start()
    got = run_two_process("X", address, pg.view_x(), "a", cfg, rng_x, transcript=tx)
    yt.join(timeout=30)
    assert not yt.is_alive() and box == []
    assert tx == [] and ty == []
    assert got == want.value  # bit-identical, not just close
    assert got == pytest.approx(exact_ebc(pg.graph, "a"), abs=1e-12)


def test_y_times_out_when_no_peer_connects(mixed_pg, monkeypatch):
    monkeypatch.setattr(protocol, "IO_TIMEOUT_S", 0.5)
    t0 = time.monotonic()
    with pytest.raises(ProtocolError):
        run_two_process("Y", ("127.0.0.1", _free_port()), mixed_pg.view_y(), "a",
                        ProtocolConfig(epsilon=1.0), 0)
    assert time.monotonic() - t0 < 5.0


def test_x_gives_up_connecting_after_the_timeout(mixed_pg, monkeypatch):
    # an address that drops connection requests: every attempt times out
    monkeypatch.setattr(protocol, "IO_TIMEOUT_S", 0.5)
    attempts: list = []

    def dropped(address, timeout=None):
        attempts.append(timeout)
        time.sleep(0.2)
        raise TimeoutError("timed out")

    monkeypatch.setattr(socket, "create_connection", dropped)
    t0 = time.monotonic()
    with pytest.raises(ConnectionError):
        run_two_process("X", ("127.0.0.1", 9), mixed_pg.view_x(), "a",
                        ProtocolConfig(epsilon=1.0), 0)
    assert time.monotonic() - t0 < 2.0
    assert 1 <= len(attempts) <= 3
    assert all(0.0 < t <= 0.5 for t in attempts)


def test_silent_peer_times_out_on_either_side(mixed_pg, monkeypatch):
    monkeypatch.setattr(protocol, "IO_TIMEOUT_S", 0.5)
    cfg = ProtocolConfig(epsilon=1.0)
    # Y against an X that connects and sends nothing
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(mixed_pg.view_y(), "a", cfg, 0, address, None, box))
    yt.start()
    with protocol._connect(address):
        yt.join(timeout=5)
    assert not yt.is_alive()
    assert len(box) == 1 and isinstance(box[0], ProtocolError)
    # X against a Y that accepts and sends nothing
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    done = threading.Event()

    def serve_silently():
        with listener:
            conn, _ = listener.accept()
            with conn:
                done.wait(5)

    st = threading.Thread(target=serve_silently)
    st.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(ProtocolError):
            run_two_process("X", listener.getsockname(), mixed_pg.view_x(), "a", cfg, 0)
        assert time.monotonic() - t0 < 5.0
    finally:
        done.set()
        st.join(timeout=30)


def _handshake_refuses(pg, version: int) -> None:
    """Both sides turn away a peer that says hello with `version`."""
    cfg = ProtocolConfig(epsilon=0.9)
    # Y answers the old hello with its own version and then refuses
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(pg.view_y(), "a", cfg, 1, address, None, box))
    yt.start()
    with protocol._connect(address) as sock:
        sock.sendall(HANDSHAKE_MAGIC + bytes([version]))
        assert protocol._recv_exact(sock, 5) == HANDSHAKE_MAGIC + bytes([HANDSHAKE_VERSION])
    yt.join(timeout=30)
    assert len(box) == 1 and isinstance(box[0], HandshakeError)
    # X refuses a Y that answers with the old version
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_old():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.recv(5)
                conn.sendall(HANDSHAKE_MAGIC + bytes([version]))
                conn.recv(1)

    st = threading.Thread(target=serve_old)
    st.start()
    with pytest.raises(HandshakeError):
        run_two_process("X", listener.getsockname(), pg.view_x(), "a", cfg, 1)
    st.join(timeout=30)


def test_two_process_handshake_rejects_v1_peer(mixed_pg):
    _handshake_refuses(mixed_pg, 1)


def test_two_process_handshake_rejects_v2_peer(mixed_pg):
    # v2 sent R as ids and Y's reply as floats; a v4 party speaks neither
    assert WIRE_VERSION == 4
    _handshake_refuses(mixed_pg, 2)


def test_two_process_handshake_rejects_v3_peer(mixed_pg):
    # a v3 hello binds nothing of the session
    assert HANDSHAKE_VERSION == 5
    _handshake_refuses(mixed_pg, 3)


def test_two_process_handshake_rejects_v4_peer(mixed_pg):
    # a hello-v4 peer sends wire-v3 frames, whose u32 length a v4 party
    # would misread as a varint: it is refused at the hello instead
    _handshake_refuses(mixed_pg, 4)


def test_hello_binds_the_session(mixed_pg):
    a_idx = mixed_pg.graph.index_of("a")
    cfg = ProtocolConfig(epsilon=0.9)
    hello = protocol._hello(mixed_pg.view_x(), a_idx, cfg)
    assert len(hello) == 50
    assert hello == protocol._hello(mixed_pg.view_y(), a_idx, cfg)
    assert hello[:9] == HANDSHAKE_MAGIC + struct.pack(">BI", 5, a_idx)
    assert struct.unpack(">dB", hello[9:18]) == (0.9, 7)
    assert protocol._hello(mixed_pg.view_x(), a_idx, ProtocolConfig(
        epsilon=0.9, mech_mask=frozenset({"mech1", "mech3"})))[17] == 5


def _mismatched_halves(pg):
    """(name, Y's view, Y's ego, Y's config) for three sessions that Y
    is handed wrongly, against X's ego a at eps 1 on pg: another ego, a
    budget of 100, and another partition of the same graph."""
    cfg = ProtocolConfig(epsilon=1.0)
    moved = pg._is_x.copy()
    moved[pg.graph.index_of("g")] = False
    return [("ego", pg.view_y(), "e", cfg),
            ("epsilon", pg.view_y(), "a", ProtocolConfig(epsilon=100.0)),
            ("roster", PartitionedGraph(pg.graph, moved).view_y(), "a", cfg)]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("noisy", [False, True])
def test_two_process_refuses_mismatched_sessions(mixed_pg, case, noisy):
    # before the hello carried the session, these ran: a wrong ego gave
    # a wrong noiseless value, a wrong budget went unnoticed, and a
    # wrong partition failed by accident with a bare ConnectionError
    name, view_y, ego_y, cfg_y = _mismatched_halves(mixed_pg)[case]
    mask = ALL_MECHS if noisy else frozenset()
    cfg_x = ProtocolConfig(epsilon=1.0, mech_mask=mask)
    cfg_y = ProtocolConfig(epsilon=cfg_y.epsilon, mech_mask=mask)
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y, args=(view_y, ego_y, cfg_y, 4, address, None, box))
    yt.start()
    try:
        with pytest.raises(HandshakeError, match=name):
            run_two_process("X", address, mixed_pg.view_x(), "a", cfg_x, 4)
    finally:
        yt.join(timeout=30)
    assert not yt.is_alive()
    assert len(box) == 1 and isinstance(box[0], HandshakeError)
    assert name in str(box[0])


def test_x_half_never_builds_y_generator(mixed_pg, monkeypatch):
    # X's half builds exactly one generator, X's child of X's own seed,
    # and never spawns from it: nothing X holds reproduces Y's noise, so
    # subtracting a regenerated draw (what a shared seed allowed)
    # recovers nothing
    cfg = ProtocolConfig(epsilon=0.5)
    seed_x, seed_y = 8, 9  # X's child of 8 releases two of X^-'s three nodes
    address = ("127.0.0.1", _free_port())
    mp = multiprocessing.get_context("fork")
    proc = mp.Process(target=run_two_process,
                      args=("Y", address, mixed_pg.view_y(), "a", cfg, seed_y))
    proc.start()
    built: list = []
    real_default_rng = np.random.default_rng

    def recording_default_rng(*args, **kwargs):
        rng = real_default_rng(*args, **kwargs)
        built.append((args, rng))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    tx: list = []
    try:
        run_two_process("X", address, mixed_pg.view_x(), "a", cfg, seed_x, transcript=tx)
    finally:
        monkeypatch.undo()
        proc.join(timeout=30)
    assert proc.exitcode == 0
    assert len(built) == 1
    seq = built[0][1].bit_generator.seed_seq
    assert (seq.entropy, seq.spawn_key, seq.n_children_spawned) == (seed_x, (0,), 0)

    # Y's noise, recovered with the whole graph, is none that X can derive
    ectx = _ego_context_idx(mixed_pg, mixed_pg.graph.index_of("a"))
    r_sorted = ectx.x_minus_sorted[decode_msg(tx[0][1]).member]
    assert r_sorted.size == 2  # so Y's reply holds count noise
    y_ego = ectx.y_ego_sorted
    back = decode_msg(tx[1][1])
    noise = back.T - noiseless_cores(mixed_pg.view_y(), r_sorted, y_ego)[0].astype(np.int64)
    runs = [(noise.size, geometric_scale(4 * r_sorted.size, cfg.epsilon))]
    for guess in (np.random.default_rng(seed_x), *_children(seed_x), np.random.default_rng(seed_y),
                  _children(seed_y)[0]):
        assert geometric_runs(runs, guess).tolist() != noise.ravel().tolist()
    # Y's own generator does reproduce it: the release is Y's draw alone
    mine = geometric_runs(runs, _children(seed_y)[1])
    assert mine.tolist() == noise.ravel().tolist()


def _fake_x(address, hello: bytes, payload: bytes) -> bytes:
    """Stands in for X: says `hello`, sends `payload` raw and returns
    all Y sends after its hello, which must equal X's, until Y hangs up
    (or 10 s pass)."""
    with protocol._connect(address) as sock:
        sock.sendall(hello + payload)
        assert protocol._recv_exact(sock, len(hello)) == hello
        rest = b""
        try:
            while chunk := sock.recv(65536):
                rest += chunk
        except OSError:
            pass
    return rest


def _fake_y_session(pg, cfg, reply) -> None:
    """X's half of a session against a stand-in Y that reads the forward
    frame and answers with the bytes `reply(forward message)`."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    box: list = []
    a_idx = pg.graph.index_of("a")

    def serve():
        try:
            with listener:
                conn, _ = listener.accept()
                with conn:
                    protocol._handshake(conn, protocol._hello(pg.view_y(), a_idx, cfg))
                    fwd = decode_msg(protocol._recv_frame(conn, 1 << 20))
                    conn.sendall(reply(fwd))
                    conn.recv(1)  # hold the connection until X hangs up
        except Exception as exc:
            box.append(exc)

    yt = threading.Thread(target=serve)
    yt.start()
    try:
        run_two_process("X", listener.getsockname(), pg.view_x(), "a", cfg, 0)
    finally:
        yt.join(timeout=30)
    assert not box


def _bad_forward_bits(pg):
    """Forward bits over anything but X^- = {e, f, g} (bad), and one
    well-formed set over it for contrast."""
    x_minus = _ego_context_idx(pg, pg.graph.index_of("a")).x_minus_sorted
    assert x_minus.size == 3
    return [_bits(), _bits(1, 1), _bits(0, 0, 0, 1), _bits(*[1] * 11)]


def test_y_refuses_forward_set_outside_x_minus(mixed_pg):
    # Y reads the bits against its own X^-, so they cannot name the ego,
    # a Y node or an id >= n; bits over any other number of nodes would
    # leave that reading undefined, and are refused (from a frame, at its
    # count field: see the test over TCP)
    view_y = mixed_pg.view_y()
    ectx = _ego_context_idx(view_y, mixed_pg.graph.index_of("a"))
    y_ego = ectx.y_ego_sorted
    cfg = ProtocolConfig(epsilon=1.0)
    for bits in _bad_forward_bits(mixed_pg):
        ledger = BudgetLedger()
        with pytest.raises(ProtocolError):
            protocol._backward_stage(view_y, ectx, ForwardMsg(member=bits), cfg,
                                     np.random.default_rng(0), ledger)
        assert ledger.events == []
    g = mixed_pg.graph
    back = protocol._backward_stage(view_y, ectx, ForwardMsg(member=_bits(1, 0, 1)), cfg,
                                    np.random.default_rng(0), BudgetLedger())
    assert back.T.shape == (2, y_ego.size)
    # the rows are e and g, the ascending ids of X^-'s first and last node
    core = noiseless_cores(view_y, np.array([g.index_of("e"), g.index_of("g")]), y_ego)[0]
    noiseless = protocol._backward_stage(view_y, ectx, ForwardMsg(member=_bits(1, 0, 1)),
                                         ProtocolConfig(epsilon=1.0, mech_mask=frozenset()),
                                         None, BudgetLedger())
    assert noiseless.T.tolist() == core.tolist()


def test_y_refuses_forward_set_outside_x_minus_over_tcp(mixed_pg):
    # n != |V_X| - 1 on Y's side, refused at the count field (byte 3),
    # and a bitmap with a padding bit set (byte 4)
    frames = [(encode_msg(ForwardMsg(member=bits)), 3) for bits in _bad_forward_bits(mixed_pg)[:3]]
    frames.append((bytes((4, 4, 1, 3, 0b10110000)), 4))
    for frame, offset in frames:
        exc = _y_refusal(mixed_pg, frame)  # no backward frame
        assert isinstance(exc, DecodeError) and exc.offset == offset


def _y_refusal(pg, payload: bytes) -> Exception:
    """What Y raises against a stand-in X that sends `payload` after
    its hello; Y must send no frame back."""
    cfg = ProtocolConfig(epsilon=1.0)
    hello = protocol._hello(pg.view_x(), pg.graph.index_of("a"), cfg)
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y, args=(pg.view_y(), "a", cfg, 1, address, None, box))
    yt.start()
    assert _fake_x(address, hello, payload) == b""
    yt.join(timeout=30)
    assert not yt.is_alive()
    assert len(box) == 1
    return box[0]


def test_y_refuses_oversized_frame_before_reading_it(mixed_pg):
    # Y's bound is the forward frame over |X^-| = 3 nodes, 1 + 4 = 5
    # bytes here: a length field of 5 is one byte over. Only the length
    # is sent, so a refusal that named anything but the length would
    # have waited for a body that never comes
    assert protocol._forward_frame_size(3) == 5
    for length in (0xFFFFFFFF, 5):
        exc = _y_refusal(mixed_pg, _leb128(length))
        assert isinstance(exc, ProtocolError) and "announced" in str(exc)


def test_y_refuses_unterminated_length_varint(mixed_pg):
    # six bytes that each say another follows: Y reads five and refuses
    exc = _y_refusal(mixed_pg, b"\x80" * 6)
    assert isinstance(exc, DecodeError) and exc.offset == 4


def test_x_accepts_a_frame_of_exactly_its_bound(mixed_pg):
    # R = R* = {e} without mech1: X's bound is the 1 x 3 frame at width 8,
    # 1 + 2 + 3 + 24 + 8 = 38 bytes, which a reply whose counts need
    # width 8 fills exactly
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    frame = _backward_frame(1, 3, [0, 2**40, -7], 0.5, code=8)
    assert len(frame) == protocol._backward_frame_size(1, 3) == 38
    _fake_y_session(mixed_pg, cfg, lambda fwd: frame)


def test_x_refuses_oversized_frame_before_reading_it(mixed_pg):
    # the bound above is 38 bytes, so a length field of 38 is one byte over
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for length in (0xFFFFFFFF, 38):
        with pytest.raises(ProtocolError, match="announced"):
            _fake_y_session(mixed_pg, cfg, lambda fwd, length=length: _leb128(length))


def test_x_refuses_backward_matrix_of_wrong_shape(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for shape in ((3, 1), (0, 3), (1, 2)):  # not (|R|, d_Y) = (1, 3)
        reply = (lambda fwd, shape=shape:
                 encode_msg(BackwardMsg(T=np.zeros(shape, dtype=np.int64), S_Y=0.0)))
        with pytest.raises(ProtocolError):
            _fake_y_session(mixed_pg, cfg, reply)


def test_x_refuses_non_finite_backward_values(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for s_y in (math.nan, -math.inf):
        with pytest.raises(DecodeError):
            _fake_y_session(mixed_pg, cfg,
                            lambda fwd, v=s_y: _backward_frame(1, 3, [0, 0, 0], v, code=1))
    # the same stand-in with a well-formed reply completes the session
    _fake_y_session(mixed_pg, cfg, lambda fwd: _backward_frame(1, 3, [0, 0, 0], 0.5, code=1))


def test_two_process_rejects_unknown_role(mixed_pg):
    with pytest.raises(ValueError):
        run_two_process("Z", ("127.0.0.1", 1), mixed_pg.view_x(), "a",
                        ProtocolConfig(epsilon=1.0), 0)


def test_y_view_has_no_x_internal_edges(mixed_pg):
    vy = mixed_pg.view_y().graph
    for i, j in vy.edges_iter():
        assert not (mixed_pg.is_x(i) and mixed_pg.is_x(j))
    assert vy.labels == mixed_pg.graph.labels  # nodes survive filtering
    # a real X-internal edge exists and is gone from Y's copy
    full = mixed_pg.graph
    assert _has(_edge_pairs(full), full.index_of("e"), full.index_of("f"))
    assert not _has(_edge_pairs(vy), vy.index_of("e"), vy.index_of("f"))
