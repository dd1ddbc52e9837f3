"""Two-party protocol orchestration and X-side final assembly.

One session is a sequential state machine: forward message (X's set
release), backward message (Y's noisy counts and partial sum, skipped
when Y's side of the ego network has fewer than two nodes), then X-side
assembly of S_X + S_XY + S_Y. Runs either in-process (both party views
held by one driver) or across two processes over a framed TCP wire;
given identical seeds both modes produce bit-identical results.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .backward import BackwardMsg, DegenerateEgoError, _reply, _sorted_ids, _y_ego_sorted
from .dpnum import PrecisionContext, PrivacyParams, context_for
from .forward import ForwardMsg, forward_message_from_context
from .graphs import (
    EgoContext,
    PartitionedGraph,
    PartyView,
    WrongPartyError,
    _ego_context_idx,
    _ego_local,
    _exact_ebc_idx,
    _pair_sum,
)

ALL_MECHS = frozenset({"mech1", "mech2", "mech3"})
CLAMP_MODES = ("clamp_nonneg", "raw")


class ProtocolError(RuntimeError):
    pass


class HandshakeError(ProtocolError):
    """Transport peers disagree on magic or protocol version."""


class DecodeError(ValueError):
    """Malformed frame; `offset` is the byte position of the problem."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"byte {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters.

    mech_mask lists which of the three mechanisms run privately; any
    mechanism left out is substituted by its noiseless counterpart
    (set release -> R*, counts -> exact cores, partial sum -> exact).
    Anything other than the full mask is an experiment configuration
    and the session result is flagged non-private. clamp_mode picks how
    X treats noisy denominators: "clamp_nonneg" (default) clamps the
    received count at zero before adding X-side paths, guaranteeing
    denominators >= 1; "raw" skips nonpositive denominators and counts
    them in diagnostics.
    """

    epsilon: float
    precision_bits: int = 300
    clamp_mode: str = "clamp_nonneg"
    mech_mask: frozenset[str] = ALL_MECHS

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.clamp_mode not in CLAMP_MODES:
            raise ValueError(f"clamp_mode must be one of {CLAMP_MODES}")
        mask = frozenset(self.mech_mask)
        if not mask <= ALL_MECHS:
            raise ValueError(f"mech_mask must be a subset of {sorted(ALL_MECHS)}")
        object.__setattr__(self, "mech_mask", mask)

    @property
    def non_private(self) -> bool:
        return self.mech_mask != ALL_MECHS


@dataclass
class EbcAccumulator:
    """The three partial sums whose total is the protocol's output."""

    S_X: float = 0.0
    S_XY: float = 0.0
    S_Y: float = 0.0

    @property
    def total(self) -> float:
        return self.S_X + self.S_XY + self.S_Y


class BudgetLedger:
    """Append-only record of every noise/selection event's privacy cost."""

    def __init__(self):
        self.events: list[tuple[str, str, float]] = []

    def charge(self, party: str, mechanism: str, cost: float) -> None:
        self.events.append((party, mechanism, float(cost)))

    def total(self, party: str) -> float:
        return sum(c for p, _, c in self.events if p == party)


@dataclass
class SessionResult:
    """Everything one protocol session produced."""

    value: float
    parts: EbcAccumulator
    skipped_terms: int
    degenerate: str  # "" | "no-y-nodes" | "small-y-ego"
    non_private: bool
    budget: BudgetLedger
    frames: tuple[bytes, ...]
    r_size: int


# ---------------------------------------------------------------------------
# Wire format v2
# ---------------------------------------------------------------------------
# frame   = u32 length | u8 version | u8 type | payload   (big-endian)
# length counts every byte after the length field itself.
# type 1 (forward):  u32 count | count * u64 node index, strictly ascending
# type 2 (backward): u32 rows | u32 cols | rows * cols * f64, row-major |
#                    f64 S_Y; every value finite
# The backward matrix's rows and columns are the ascending ids of R and of
# the ego's Y-side neighbours, which both parties know, so none are sent.

WIRE_VERSION = 2
TYPE_FORWARD = 1
TYPE_BACKWARD = 2
HANDSHAKE_MAGIC = b"PEBC"

_FWD_ENTRY = np.dtype(">u8")
_BWD_VALUE = np.dtype(">f8")


def _forward_frame_size(count: int) -> int:
    return 10 + 8 * count


def _backward_frame_size(rows: int, cols: int) -> int:
    return 22 + 8 * rows * cols


def encode_msg(msg: ForwardMsg | BackwardMsg) -> bytes:
    """Serialize one message as a single wire frame."""
    if isinstance(msg, ForwardMsg):
        body = np.array(sorted(msg.R), dtype=_FWD_ENTRY)
        dims, trailer, mtype = body.shape, b"", TYPE_FORWARD
    elif isinstance(msg, BackwardMsg):
        body = np.ascontiguousarray(msg.T, dtype=_BWD_VALUE)
        if body.ndim != 2:
            raise ValueError(f"T must be a matrix, got {body.ndim} dimensions")
        dims, trailer, mtype = body.shape, struct.pack(">d", msg.S_Y), TYPE_BACKWARD
    else:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    length = 2 + 4 * len(dims) + body.nbytes + len(trailer)
    head = struct.pack(f">IBB{len(dims)}I", length, WIRE_VERSION, mtype, *dims)
    # one join copies the body once, however large the frame
    return b"".join((head, body, trailer))


def decode_msg(data: bytes) -> ForwardMsg | BackwardMsg:
    """Parse exactly one frame; raises DecodeError with a byte offset."""
    if len(data) < 4:
        raise DecodeError(0, "truncated length field")
    (length,) = struct.unpack_from(">I", data, 0)
    if length < 2:
        raise DecodeError(0, f"frame length {length} below header size")
    if len(data) != 4 + length:
        raise DecodeError(4 + min(length, len(data) - 4),
                          f"frame claims {4 + length} bytes, got {len(data)}")
    version, mtype = struct.unpack_from(">BB", data, 4)
    if version != WIRE_VERSION:
        raise DecodeError(4, f"unsupported version {version}")
    payload = data[6:]
    if mtype == TYPE_FORWARD:
        if len(payload) < 4:
            raise DecodeError(6, "truncated count field")
        (count,) = struct.unpack_from(">I", payload, 0)
        if len(payload) != 4 + 8 * count:
            raise DecodeError(10, f"forward payload needs {4 + 8 * count} bytes, got {len(payload)}")
        nodes = np.frombuffer(payload, dtype=_FWD_ENTRY, count=count, offset=4)
        if count > 1 and not np.all(nodes[1:] > nodes[:-1]):
            bad = int(np.flatnonzero(nodes[1:] <= nodes[:-1])[0]) + 1
            raise DecodeError(10 + 8 * bad, "node indices not strictly ascending")
        return ForwardMsg(R=frozenset(int(v) for v in nodes))
    if mtype == TYPE_BACKWARD:
        if len(payload) < 8:
            raise DecodeError(6, "truncated shape field")
        rows, cols = struct.unpack_from(">II", payload, 0)
        need = 16 + 8 * rows * cols
        if len(payload) != need:
            raise DecodeError(14, f"{rows} x {cols} backward payload needs {need} bytes, "
                                  f"got {len(payload)}")
        values = np.frombuffer(payload, dtype=_BWD_VALUE, offset=8)  # the matrix, then S_Y
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DecodeError(14 + 8 * int(bad[0]), "value is not finite")
        t = values[:-1].astype(np.float64).reshape(rows, cols)
        return BackwardMsg(T=t, S_Y=float(values[-1]))
    raise DecodeError(5, f"unknown message type {mtype}")


# ---------------------------------------------------------------------------
# Session stages (shared by in-process and two-process modes)
# ---------------------------------------------------------------------------

def _forward_stage(view_x: PartyView, ectx: EgoContext, config: ProtocolConfig,
                   ctx: PrecisionContext, rng: np.random.Generator | None,
                   ledger: BudgetLedger) -> ForwardMsg:
    if "mech1" in config.mech_mask:
        params = PrivacyParams(epsilon=config.epsilon, delta0=1.0)
        msg = forward_message_from_context(ectx, params, ctx, rng)
        ledger.charge("X", "set-release", config.epsilon)
        return msg
    return ForwardMsg(R=ectx.R_star)


def _backward_stage(view_y: PartyView, a_idx: int, y_ego: np.ndarray, R: frozenset[int],
                    config: ProtocolConfig, rng: np.random.Generator | None,
                    ledger: BudgetLedger) -> BackwardMsg:
    """Y's reply to R, which must be a subset of X^- = V_X minus {a}:
    any other id would make the counts depend on edges the noise's
    sensitivity bound does not cover."""
    if y_ego.size < 2:
        raise DegenerateEgoError("backward stage invoked on a gated case")
    if R and not 0 <= min(R) <= max(R) < view_y.graph.n:
        raise ProtocolError("forward set holds an id outside the graph")
    r_sorted = _sorted_ids(R)
    if a_idx in R or not view_y._is_x[r_sorted].all():
        raise ProtocolError("forward set is not a subset of X^-")
    noisy_t = "mech2" in config.mech_mask
    noisy_sy = "mech3" in config.mech_mask
    back = _reply(view_y, y_ego, r_sorted, PrivacyParams(epsilon=config.epsilon),
                  rng if noisy_t else None, rng if noisy_sy else None)
    if noisy_t:
        ledger.charge("Y", "count-vector", config.epsilon / 2.0)
    if noisy_sy:
        ledger.charge("Y", "partial-sum", config.epsilon / 2.0)
    return back


def _assemble_x(view_x: PartyView, ectx: EgoContext, R: frozenset[int],
                back: BackwardMsg | None, config: ProtocolConfig) -> tuple[EbcAccumulator, int]:
    """X-side completion: S_XY over cross pairs, S_X over X-side pairs.

    Received counts for i outside R* are discarded; counts for i in
    R* \\ R start from zero. The X-side path increment counts
    intermediates in R* u {a}; S_X counts intermediates anywhere in
    N_a u {a}, all through edges X knows.
    """
    local, m = _ego_local(view_x.graph, ectx.a)
    in_x = view_x._is_x[local]  # R* and a itself
    rs = in_x & (local != ectx.a)
    ys = ~in_x
    rows = m[rs]  # R* against all of N_a u {a}
    acc = EbcAccumulator()
    skipped = 0

    if rows.shape[0] and ys.any():
        # X-side 2-path counts through R* u {a}: rows R*, cols Y-side ego
        k_x = rows[:, in_x] @ m[in_x][:, ys]
        t_recv = np.zeros(k_x.shape, dtype=np.float64)
        if back is not None and R:
            # back.T's rows are R in ascending order; take those of R n R*
            hit, pos = _kernels._locate(_sorted_ids(R), local[rs])
            t_recv[hit] = back.T[pos]
        if config.clamp_mode == "clamp_nonneg":
            np.maximum(t_recv, 0.0, out=t_recv)
        denom = t_recv + k_x
        open_pairs = rows[:, ys] == 0
        if config.clamp_mode == "raw":
            usable = open_pairs & (denom > 0.0)
            skipped = int(np.count_nonzero(open_pairs & ~usable))
        else:
            usable = open_pairs
        acc.S_XY = float((1.0 / denom[usable]).sum())

    if rows.shape[0] >= 2:
        acc.S_X = _pair_sum(rows[:, rs], rows @ m[:, rs])

    acc.S_Y = back.S_Y if back is not None else 0.0
    return acc, skipped


def _x_ego_index(pg: PartitionedGraph | PartyView, a: object) -> int:
    a_idx = pg.graph.index_of(a)
    if not pg.is_x(a_idx):
        raise WrongPartyError(f"ego node {a!r} is not in party X")
    return a_idx


def run_session(pg: PartitionedGraph, a: object, config: ProtocolConfig,
                rng: np.random.Generator,
                ctx: PrecisionContext | None = None) -> SessionResult:
    """Run one full in-process session between the two party views.

    X draws from rng's first spawned child and Y from its second.
    """
    a_idx = _x_ego_index(pg, a)
    rng_x, rng_y = rng.spawn(2)
    return _session(pg, a_idx, config, rng_x, rng_y, ctx)


def _session(pg: PartitionedGraph, a_idx: int, config: ProtocolConfig,
             rng_x: np.random.Generator | None, rng_y: np.random.Generator | None,
             ctx: PrecisionContext | None) -> SessionResult:
    """One in-process session; a party's generator may be None only if
    none of its mechanisms is randomized."""
    view_x = pg.view_x()
    view_y = pg.view_y()
    if ctx is None:
        ctx = context_for(config.precision_bits)
    ledger = BudgetLedger()
    ectx = _ego_context_idx(view_x, a_idx)

    if pg.vy_indices.size == 0:
        value = _exact_ebc_idx(view_x.graph, a_idx)  # X holds every edge
        return SessionResult(value=value, parts=EbcAccumulator(S_X=value),
                             skipped_terms=0, degenerate="no-y-nodes",
                             non_private=config.non_private, budget=ledger,
                             frames=(), r_size=ectx.r_star_sorted.size)

    fwd = _forward_stage(view_x, ectx, config, ctx, rng_x, ledger)
    frames = [encode_msg(fwd)]

    y_ego = _y_ego_sorted(view_y, a_idx)
    back: BackwardMsg | None = None
    degenerate = ""
    if y_ego.size >= 2:
        back = _backward_stage(view_y, a_idx, y_ego, fwd.R, config, rng_y, ledger)
        frames.append(encode_msg(back))
    else:
        degenerate = "small-y-ego"

    acc, skipped = _assemble_x(view_x, ectx, fwd.R, back, config)
    return SessionResult(value=acc.total, parts=acc, skipped_terms=skipped,
                         degenerate=degenerate, non_private=config.non_private,
                         budget=ledger, frames=tuple(frames), r_size=len(fwd.R))


def private_ebc(pg: PartitionedGraph, a: object, config: ProtocolConfig,
                rng: np.random.Generator) -> float:
    """The private EBC estimate for ego a under the given config."""
    return run_session(pg, a, config, rng).value


_NOISELESS = ProtocolConfig(epsilon=1.0, mech_mask=frozenset())


def nonprivate_ebc_protocol(pg: PartitionedGraph, a: object) -> float:
    """The protocol with no noise and R = R*; exact by decomposition.

    No mechanism draws randomness here, so neither party gets a
    generator.
    """
    return _session(pg, _x_ego_index(pg, a), _NOISELESS, None, None, None).value


# ---------------------------------------------------------------------------
# Two-process transport
# ---------------------------------------------------------------------------

def _send_all(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError as exc:
        raise ConnectionError(f"transport send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        try:
            chunk = sock.recv(size - len(buf))
        except OSError as exc:
            raise ConnectionError(f"transport recv failed: {exc}") from exc
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket, max_size: int) -> bytes:
    """One frame of at most max_size bytes; a longer one is refused
    before any of its body is read."""
    head = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", head)
    if 4 + length > max_size:
        raise ProtocolError(f"peer announced a {4 + length}-byte frame, at most {max_size} allowed")
    return head + _recv_exact(sock, length)


def _handshake(sock: socket.socket, version: int = WIRE_VERSION) -> None:
    _send_all(sock, HANDSHAKE_MAGIC + struct.pack(">B", version))
    reply = _recv_exact(sock, 5)
    if reply[:4] != HANDSHAKE_MAGIC:
        raise HandshakeError("peer sent bad magic")
    if reply[4] != WIRE_VERSION:
        raise HandshakeError(f"peer speaks version {reply[4]}, expected {WIRE_VERSION}")


def _handshake_accept(sock: socket.socket) -> None:
    hello = _recv_exact(sock, 5)
    ok = hello[:4] == HANDSHAKE_MAGIC and hello[4] == WIRE_VERSION
    _send_all(sock, HANDSHAKE_MAGIC + struct.pack(">B", WIRE_VERSION))
    if not ok:
        raise HandshakeError(f"client hello invalid: {hello!r}")


def run_two_process(role: str, address: tuple[str, int], view: PartyView, a: object,
                    config: ProtocolConfig, seed: int,
                    transcript: list[tuple[str, bytes]] | None = None,
                    _handshake_version: int = WIRE_VERSION) -> float | None:
    """Run one party's half of a session over a framed TCP connection.

    Both sides derive their generator from the shared seed exactly the
    way the in-process driver does, so results match it bit for bit. X
    returns the EBC estimate; Y returns None. Each party only ever
    holds its own view, so the other side's internal edges are absent
    from its process by construction.
    """
    children = np.random.default_rng(seed).spawn(2)
    a_idx = view.graph.index_of(a)
    ctx = context_for(config.precision_bits)
    ledger = BudgetLedger()
    y_ego = _y_ego_sorted(view, a_idx)  # both parties know the shared edges
    expect_backward = y_ego.size >= 2

    if role == "X":
        if not view.is_x(a_idx):
            raise WrongPartyError(f"ego node {a!r} is not in party X")
        rng_x = children[0]
        ectx = _ego_context_idx(view, a_idx)
        last_err: OSError | None = None
        sock = None
        for _ in range(200):  # the Y listener may still be starting up
            try:
                sock = socket.create_connection(address, timeout=10.0)
                break
            except OSError as exc:
                last_err = exc
                time.sleep(0.05)
        if sock is None:
            raise ConnectionError(f"could not reach Y at {address}: {last_err}")
        with sock:
            _handshake(sock, version=_handshake_version)
            fwd = _forward_stage(view, ectx, config, ctx, rng_x, ledger)
            frame = encode_msg(fwd)
            _send_all(sock, frame)
            if transcript is not None:
                transcript.append(("sent-forward", frame))
            back = None
            if expect_backward:
                shape = (len(fwd.R), y_ego.size)
                raw = _recv_frame(sock, _backward_frame_size(*shape))
                if transcript is not None:
                    transcript.append(("received-backward", raw))
                msg = decode_msg(raw)
                if not isinstance(msg, BackwardMsg):
                    raise ProtocolError("expected a backward frame")
                if msg.T.shape != shape:
                    raise ProtocolError(f"backward matrix is {msg.T.shape[0]} x {msg.T.shape[1]}, "
                                        f"expected {shape[0]} x {shape[1]}")
                back = msg
        acc, _ = _assemble_x(view, ectx, fwd.R, back, config)
        return acc.total

    if role == "Y":
        rng_y = children[1]
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen(1)
            conn, _ = listener.accept()
            with conn:
                _handshake_accept(conn)
                raw = _recv_frame(conn, _forward_frame_size(view.vx_indices.size - 1))
                if transcript is not None:
                    transcript.append(("received-forward", raw))
                msg = decode_msg(raw)
                if not isinstance(msg, ForwardMsg):
                    raise ProtocolError("expected a forward frame")
                if expect_backward:
                    back = _backward_stage(view, a_idx, y_ego, msg.R, config, rng_y, ledger)
                    frame = encode_msg(back)
                    _send_all(conn, frame)
                    if transcript is not None:
                        transcript.append(("sent-backward", frame))
        return None

    raise ValueError(f"role must be 'X' or 'Y', got {role!r}")
