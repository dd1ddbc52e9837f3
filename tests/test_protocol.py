import hashlib
import math
import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
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
from privebc import protocol
from privebc.backward import _spanning_core_matrix, _y_ego_sorted
from privebc.protocol import HANDSHAKE_MAGIC, WIRE_VERSION, BudgetLedger, _assemble_x

from .conftest import make_pg, random_graph, random_partition


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
    assert res.r_size == len(decode_msg(res.frames[0]).R)
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


def test_clamp_mode_restores_denominators():
    view_x, ectx, x1, y1, y2 = _assembly_fixture()
    assert y1 < y2  # columns in ascending id order
    back = BackwardMsg(T=np.array([[-5.0, 0.5]]), S_Y=0.25)
    acc, skipped = _assemble_x(view_x, ectx, frozenset({x1}), back,
                               ProtocolConfig(epsilon=1.0))
    # K_x = 1 for both pairs (the path through a); clamp zeroes the -5
    assert skipped == 0
    assert acc.S_XY == pytest.approx(1.0 / 1.0 + 1.0 / 1.5)
    assert acc.S_Y == 0.25
    assert acc.S_X == 0.0


def test_raw_mode_skips_nonpositive_denominators():
    view_x, ectx, x1, y1, y2 = _assembly_fixture()
    back = BackwardMsg(T=np.array([[-5.0, 0.5]]), S_Y=0.25)
    acc, skipped = _assemble_x(view_x, ectx, frozenset({x1}), back,
                               ProtocolConfig(epsilon=1.0, clamp_mode="raw"))
    assert skipped == 1
    assert acc.S_XY == pytest.approx(1.0 / 1.5)
    # exactly zero denominators are skipped too
    back0 = BackwardMsg(T=np.array([[-1.0, 0.5]]), S_Y=0.0)
    _, skipped0 = _assemble_x(view_x, ectx, frozenset({x1}), back0,
                              ProtocolConfig(epsilon=1.0, clamp_mode="raw"))
    assert skipped0 == 1


def test_counts_for_nodes_outside_r_star_are_discarded(mixed_pg):
    view_x = mixed_pg.view_x()
    g = view_x.graph
    ectx = ego_context(view_x, "a")
    y_ego = sorted(v for v in ectx.N_a if not view_x.is_x(v))
    r = frozenset(ectx.R_star) | {g.index_of("f")}  # f is X-side, not in N_a
    base_t = np.ones((len(r), len(y_ego)))
    tampered = base_t.copy()
    tampered[sorted(r).index(g.index_of("f"))] = 1e12
    cfg = ProtocolConfig(epsilon=1.0)
    acc1, s1 = _assemble_x(view_x, ectx, r, BackwardMsg(T=base_t, S_Y=0.0), cfg)
    acc2, s2 = _assemble_x(view_x, ectx, r, BackwardMsg(T=tampered, S_Y=0.0), cfg)
    assert (acc1, s1) == (acc2, s2)


def test_missing_rows_start_from_zero(mixed_pg):
    # i in R* but not in R: X uses 0 + its own side counts
    view_x = mixed_pg.view_x()
    ectx = ego_context(view_x, "a")
    y_ego = sorted(v for v in ectx.N_a if not view_x.is_x(v))
    cfg = ProtocolConfig(epsilon=1.0)
    acc_none, _ = _assemble_x(view_x, ectx, frozenset(), None, cfg)
    empty = BackwardMsg(T=np.zeros((0, len(y_ego))), S_Y=0.0)
    acc_zero, _ = _assemble_x(view_x, ectx, frozenset(), empty, cfg)
    assert acc_none.S_XY == acc_zero.S_XY == pytest.approx(
        sum(1.0 for _ in ectx.R_star for _ in y_ego))  # all K_x = 1 here
    assert acc_none.S_X == acc_zero.S_X


# ------------------------------------------------------------ wire format

def test_forward_frame_bytes_empty():
    frame = encode_msg(ForwardMsg(R=frozenset()))
    assert frame == struct.pack(">IBBI", 6, 2, 1, 0)
    assert len(frame) == 10
    assert decode_msg(frame) == ForwardMsg(R=frozenset())


def test_forward_frame_bytes_single_node():
    frame = encode_msg(ForwardMsg(R=frozenset({5})))
    assert frame == struct.pack(">IBBIQ", 14, 2, 1, 1, 5)
    assert len(frame) == 18


def _same_msg(a: BackwardMsg, b: BackwardMsg) -> bool:
    return (a.T.shape == b.T.shape and a.T.tobytes() == b.T.tobytes()
            and struct.pack(">d", a.S_Y) == struct.pack(">d", b.S_Y))


def test_backward_frame_bytes_three_entries():
    msg = BackwardMsg(T=np.array([[0.5, -2.0, 4.0]]), S_Y=1.25)
    frame = encode_msg(msg)
    want = struct.pack(">IBBII", 42, 2, 2, 1, 3)
    want += struct.pack(">ddd", 0.5, -2.0, 4.0)
    want += struct.pack(">d", 1.25)
    assert frame == want
    assert len(frame) == 46
    assert _same_msg(decode_msg(frame), msg)


def test_backward_frame_bytes_two_by_two():
    msg = BackwardMsg(T=np.array([[0.5, -2.0], [4.0, 1e-300]]), S_Y=-0.75)
    frame = encode_msg(msg)
    want = bytes.fromhex(
        "00000032" "02" "02" "00000002" "00000002"
        "3fe0000000000000" "c000000000000000"
        "4010000000000000" "01a56e1fc2f8f359"
        "bfe8000000000000")
    assert frame == want
    assert len(frame) == 54
    got = decode_msg(frame)
    assert _same_msg(got, msg)
    assert got.T.dtype == np.float64 and got.T.flags.c_contiguous


def test_backward_frame_bytes_empty_r():
    # R empty: a 0 x d_Y matrix, so only the shape and S_Y travel
    msg = BackwardMsg(T=np.zeros((0, 3)), S_Y=2.0)
    frame = encode_msg(msg)
    assert frame == struct.pack(">IBBIId", 18, 2, 2, 0, 3, 2.0)
    assert len(frame) == 22
    got = decode_msg(frame)
    assert got.T.shape == (0, 3) and got.S_Y == 2.0


def test_encode_rejects_non_matrix_counts():
    with pytest.raises(ValueError):
        encode_msg(BackwardMsg(T=np.zeros(4), S_Y=0.0))


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
    assert h.hexdigest() == "3cc19a6f00f22c1abb07b06318270b51b113a2d0c9ddcba8b7753a2cbaadcbd4"


def test_seeded_r_sets_and_noiseless_values_are_pinned():
    # the sessions above, without Y's noise: their R sets, the noiseless
    # counts for each R and the values with noiseless replies. The digest
    # was computed before the wire format and the Laplace sampler changed,
    # which moved only the noisy values pinned above.
    rng = np.random.default_rng(31)
    h = hashlib.sha256()
    for n in (12, 30, 60):
        edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
        g = Graph([str(i) for i in range(n)], edges)
        pg = PartitionedGraph(g, rng.random(n) < 0.5)
        for a in pg.vx_indices[:3]:
            label = g.label_of(int(a))
            y_ego = _y_ego_sorted(pg, int(a))
            for eps in (0.1, 1.0, 7.0):
                seed = n + int(a)
                res = run_session(pg, label, ProtocolConfig(epsilon=eps), np.random.default_rng(seed))
                r_sorted = sorted(decode_msg(res.frames[0]).R)
                exact = run_session(pg, label,
                                    ProtocolConfig(epsilon=eps, mech_mask=frozenset({"mech1"})),
                                    np.random.default_rng(seed))
                core = _spanning_core_matrix(pg.view_y(), np.array(r_sorted, dtype=np.int64), y_ego)
                h.update(repr(r_sorted).encode())
                h.update(repr((exact.value, exact.parts.S_X, exact.parts.S_XY,
                               exact.parts.S_Y)).encode())
                h.update(repr(core.shape).encode() + core.tobytes())
    assert h.hexdigest() == "68623b5362a1555b3d352cf30e8851cd96e4f681c9e990d3402295fa3a8354f7"


def test_encode_rejects_unknown_type():
    with pytest.raises(TypeError):
        encode_msg("hello")


@given(st.frozensets(st.integers(0, 2**64 - 1), max_size=60))
@settings(max_examples=200, deadline=None)
def test_forward_roundtrip(r):
    assert decode_msg(encode_msg(ForwardMsg(R=r))) == ForwardMsg(R=r)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(0, 8), st.integers(0, 8), st.data(), _FINITE)
@settings(max_examples=200, deadline=None)
def test_backward_roundtrip(rows, cols, data, s_y):
    values = data.draw(st.lists(_FINITE, min_size=rows * cols, max_size=rows * cols))
    msg = BackwardMsg(T=np.array(values, dtype=np.float64).reshape(rows, cols), S_Y=s_y)
    frame = encode_msg(msg)
    assert len(frame) == 22 + 8 * rows * cols
    assert _same_msg(decode_msg(frame), msg)
    assert encode_msg(decode_msg(frame)) == frame


def _offset_of(exc_info) -> int:
    return exc_info.value.offset


def test_decode_error_truncated_header():
    with pytest.raises(DecodeError) as e:
        decode_msg(b"\x00\x00")
    assert _offset_of(e) == 0


def test_decode_error_trailing_garbage():
    frame = encode_msg(ForwardMsg(R=frozenset({1})))
    with pytest.raises(DecodeError) as e:
        decode_msg(frame + b"\x00")
    assert _offset_of(e) == len(frame)


def test_decode_error_truncated_body():
    frame = encode_msg(ForwardMsg(R=frozenset({1})))
    with pytest.raises(DecodeError) as e:
        decode_msg(frame[:-1])
    assert _offset_of(e) == len(frame) - 1


def test_decode_error_bad_version():
    frame = bytearray(encode_msg(ForwardMsg(R=frozenset())))
    frame[4] = 9
    with pytest.raises(DecodeError) as e:
        decode_msg(bytes(frame))
    assert _offset_of(e) == 4


def test_decode_error_bad_type():
    frame = bytearray(encode_msg(ForwardMsg(R=frozenset())))
    frame[5] = 7
    with pytest.raises(DecodeError) as e:
        decode_msg(bytes(frame))
    assert _offset_of(e) == 5


def test_decode_error_unsorted_forward():
    payload = struct.pack(">I", 2) + struct.pack(">QQ", 3, 3)
    frame = struct.pack(">IBB", 2 + len(payload), 2, 1) + payload
    with pytest.raises(DecodeError) as e:
        decode_msg(frame)
    assert _offset_of(e) == 18


def _backward_frame(rows: int, cols: int, values: list[float]) -> bytes:
    """A hand-built v2 backward frame; values are the matrix, then S_Y."""
    payload = struct.pack(">II", rows, cols) + struct.pack(f">{len(values)}d", *values)
    return struct.pack(">IBB", 2 + len(payload), 2, 2) + payload


def test_decode_error_backward_shape_count_mismatch():
    # 2 x 2 announced, 3 values sent (and the reverse): the payload
    # disagrees with the shape, reported where the matrix starts
    for rows, cols, values in ((2, 2, [1.0, 2.0, 3.0, 0.0]), (1, 2, [1.0, 2.0, 3.0, 0.0])):
        with pytest.raises(DecodeError) as e:
            decode_msg(_backward_frame(rows, cols, values))
        assert _offset_of(e) == 14


def test_decode_error_backward_truncated_and_oversized():
    frame = encode_msg(BackwardMsg(T=np.ones((2, 3)), S_Y=0.5))
    with pytest.raises(DecodeError) as e:  # cut inside the matrix
        decode_msg(frame[:30])
    assert _offset_of(e) == 30
    with pytest.raises(DecodeError) as e:  # trailing bytes after the frame
        decode_msg(frame + b"\x00" * 8)
    assert _offset_of(e) == len(frame)
    with pytest.raises(DecodeError) as e:  # a frame with a value too many
        decode_msg(_backward_frame(2, 3, [1.0] * 8))
    assert _offset_of(e) == 14
    with pytest.raises(DecodeError) as e:  # no room for the shape field
        decode_msg(struct.pack(">IBBI", 6, 2, 2, 1))
    assert _offset_of(e) == 6
    # rows * cols beyond any frame is only a mismatch, never an allocation
    with pytest.raises(DecodeError) as e:
        decode_msg(_backward_frame(2**32 - 1, 2**32 - 1, [0.0]))
    assert _offset_of(e) == 14


def test_decode_error_backward_non_finite():
    nan, inf = float("nan"), float("inf")
    cases = [
        (1, 3, [0.5, nan, inf, 0.0], 14 + 8),  # first offender in the matrix
        (2, 2, [0.5, 1.0, -inf, 2.0, 0.0], 14 + 16),
        (1, 3, [0.5, 1.0, 2.0, inf], 14 + 24),  # S_Y
        (0, 4, [nan], 14),  # S_Y of an empty R
    ]
    for rows, cols, values, offset in cases:
        with pytest.raises(DecodeError) as e:
            decode_msg(_backward_frame(rows, cols, values))
        assert _offset_of(e) == offset


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


def test_two_process_matches_in_process(mixed_pg):
    cfg = ProtocolConfig(epsilon=0.9)
    seed = 123
    want = run_session(mixed_pg, "a", cfg, np.random.default_rng(seed))

    address = ("127.0.0.1", _free_port())
    tx: list = []
    ty: list = []
    yt = threading.Thread(target=_run_y,
                          args=(mixed_pg.view_y(), "a", cfg, seed, address, ty))
    yt.start()
    got = run_two_process("X", address, mixed_pg.view_x(), "a", cfg, seed,
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
    address = ("127.0.0.1", _free_port())
    mp = multiprocessing.get_context("fork")
    proc = mp.Process(target=run_two_process,
                      args=("Y", address, mixed_pg.view_y(), "a", cfg, seed))
    proc.start()
    try:
        got = run_two_process("X", address, mixed_pg.view_x(), "a", cfg, seed)
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
    address = ("127.0.0.1", _free_port())
    tx: list = []
    ty: list = []
    yt = threading.Thread(target=_run_y,
                          args=(pg.view_y(), "a", cfg, seed, address, ty))
    yt.start()
    got = run_two_process("X", address, pg.view_x(), "a", cfg, seed, transcript=tx)
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
        assert sock.recv(5) == HANDSHAKE_MAGIC + bytes([WIRE_VERSION])
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
    address = ("127.0.0.1", _free_port())
    tx: list = []
    ty: list = []
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(pg.view_y(), "a", cfg, seed, address, ty, box))
    yt.start()
    got = run_two_process("X", address, pg.view_x(), "a", cfg, seed, transcript=tx)
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


def test_two_process_handshake_rejects_v1_peer(mixed_pg):
    cfg = ProtocolConfig(epsilon=0.9)
    # Y answers a v1 hello with its own version and then refuses
    address = ("127.0.0.1", _free_port())
    box: list = []
    yt = threading.Thread(target=_run_y,
                          args=(mixed_pg.view_y(), "a", cfg, 1, address, None, box))
    yt.start()
    with protocol._connect(address) as sock:
        sock.sendall(HANDSHAKE_MAGIC + b"\x01")
        assert sock.recv(5) == HANDSHAKE_MAGIC + bytes([WIRE_VERSION])
    yt.join(timeout=30)
    assert len(box) == 1 and isinstance(box[0], HandshakeError)
    # X refuses a Y that answers with version 1
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_v1():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.recv(5)
                conn.sendall(HANDSHAKE_MAGIC + b"\x01")
                conn.recv(1)

    st = threading.Thread(target=serve_v1)
    st.start()
    with pytest.raises(HandshakeError):
        run_two_process("X", listener.getsockname(), mixed_pg.view_x(), "a", cfg, 1)
    st.join(timeout=30)


def _fake_x(address, payload: bytes) -> bytes:
    """Stands in for X: says hello, sends `payload` raw and returns all
    Y sends after its hello, until Y hangs up (or 10 s pass)."""
    with protocol._connect(address) as sock:
        sock.sendall(HANDSHAKE_MAGIC + bytes([WIRE_VERSION]) + payload)
        assert sock.recv(5) == HANDSHAKE_MAGIC + bytes([WIRE_VERSION])
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

    def serve():
        try:
            with listener:
                conn, _ = listener.accept()
                with conn:
                    protocol._handshake_accept(conn)
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


def _bad_forward_sets(pg):
    g = pg.graph
    return [frozenset({g.n}), frozenset({2**64 - 1}), frozenset({g.index_of("b")}),
            frozenset({g.index_of("a")}), frozenset({g.index_of("e"), g.index_of("c")})]


def test_y_refuses_forward_set_outside_x_minus(mixed_pg):
    # an id >= n, a Y node or the ego in R would make Y's counts depend on
    # edges the 2|R| sensitivity bound does not cover
    view_y = mixed_pg.view_y()
    a_idx = mixed_pg.graph.index_of("a")
    y_ego = _y_ego_sorted(view_y, a_idx)
    cfg = ProtocolConfig(epsilon=1.0)
    for r in _bad_forward_sets(mixed_pg):
        ledger = BudgetLedger()
        with pytest.raises(ProtocolError):
            protocol._backward_stage(view_y, a_idx, y_ego, r, cfg, np.random.default_rng(0), ledger)
        assert ledger.events == []
    g = mixed_pg.graph
    x_minus = frozenset({g.index_of("e"), g.index_of("f"), g.index_of("g")})
    back = protocol._backward_stage(view_y, a_idx, y_ego, x_minus, cfg,
                                    np.random.default_rng(0), BudgetLedger())
    assert back.T.shape == (3, y_ego.size)


def test_y_refuses_forward_set_outside_x_minus_over_tcp(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.0)
    for r in _bad_forward_sets(mixed_pg):
        address = ("127.0.0.1", _free_port())
        box: list = []
        yt = threading.Thread(target=_run_y,
                              args=(mixed_pg.view_y(), "a", cfg, 1, address, None, box))
        yt.start()
        payload = struct.pack(f">IBBI{len(r)}Q", 6 + 8 * len(r), 2, 1, len(r), *sorted(r))
        assert _fake_x(address, payload) == b""  # no backward frame
        yt.join(timeout=30)
        assert len(box) == 1 and isinstance(box[0], ProtocolError)


def test_y_refuses_oversized_frame_before_reading_it(mixed_pg):
    # Y's bound is the forward frame for R = X^-, 10 + 8 * 3 = 34 bytes
    # here: a length field of 31 is one byte over
    cfg = ProtocolConfig(epsilon=1.0)
    for length in (0xFFFFFFFF, 31):
        address = ("127.0.0.1", _free_port())
        box: list = []
        yt = threading.Thread(target=_run_y,
                              args=(mixed_pg.view_y(), "a", cfg, 1, address, None, box))
        yt.start()
        assert _fake_x(address, struct.pack(">I", length)) == b""
        yt.join(timeout=30)
        assert not yt.is_alive()
        assert len(box) == 1 and isinstance(box[0], ProtocolError)


def test_x_refuses_oversized_frame_before_reading_it(mixed_pg):
    # R = R* = {e} without mech1: X's bound is the 1 x 3 frame, 46 bytes,
    # so a length field of 43 is one byte over
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for length in (0xFFFFFFFF, 43):
        with pytest.raises(ProtocolError):
            _fake_y_session(mixed_pg, cfg, lambda fwd, length=length: struct.pack(">I", length))


def test_x_refuses_backward_matrix_of_wrong_shape(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for shape in ((3, 1), (0, 3), (1, 2)):  # not (|R|, d_Y) = (1, 3)
        reply = (lambda fwd, shape=shape:
                 encode_msg(BackwardMsg(T=np.zeros(shape), S_Y=0.0)))
        with pytest.raises(ProtocolError):
            _fake_y_session(mixed_pg, cfg, reply)


def test_x_refuses_non_finite_backward_values(mixed_pg):
    cfg = ProtocolConfig(epsilon=1.0, mech_mask=frozenset({"mech2", "mech3"}))
    for values in ([0.0, math.nan, 0.0, 0.0], [0.0, 0.0, 0.0, -math.inf]):
        with pytest.raises(DecodeError):
            _fake_y_session(mixed_pg, cfg, lambda fwd, v=values: _backward_frame(1, 3, v))
    # the same stand-in with a well-formed reply completes the session
    _fake_y_session(mixed_pg, cfg, lambda fwd: _backward_frame(1, 3, [0.0, 0.0, 0.0, 0.0]))


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
    assert full.has_edge(full.index_of("e"), full.index_of("f"))
    assert not vy.has_edge(vy.index_of("e"), vy.index_of("f"))
