"""Two-party protocol orchestration and X-side final assembly.

One session is one sequence, written once for both modes: forward
message (X's set release), backward message (Y's noisy counts and
partial sum), then X-side assembly of S_X + S_XY + S_Y. Both parties
skip the messages their shared knowledge makes empty: both when Y has
no nodes, the backward one when Y's side of the ego network has fewer
than two nodes. Runs either in-process (both party views held by one
driver) or across two processes over a framed TCP wire; given
identical seeds both modes produce bit-identical results.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .backward import BackwardMsg, DegenerateEgoError, _reply, _sorted_ids, _y_ego_sorted
from .dpnum import DEFAULT_CONTEXT, PrivacyParams
from .forward import ForwardMsg, forward_message_from_context
from .graphs import (
    EgoContext,
    PartitionedGraph,
    PartyView,
    _ego_context_idx,
    _ego_local,
    _pair_sum,
    _x_ego_index,
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
                   rng: np.random.Generator | None, ledger: BudgetLedger) -> ForwardMsg:
    if "mech1" in config.mech_mask:
        params = PrivacyParams(epsilon=config.epsilon, delta0=1.0)
        msg = forward_message_from_context(ectx, params, DEFAULT_CONTEXT, rng)
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

    A reply must be the |R| x d_Y matrix. Received counts for i outside
    R* are discarded; counts for i in R* \\ R start from zero. The
    X-side path increment counts intermediates in R* u {a}; S_X counts
    intermediates anywhere in N_a u {a}, all through edges X knows.
    """
    local, m = _ego_local(view_x.graph, ectx.a)
    in_x = view_x._is_x[local]  # R* and a itself
    rs = in_x & (local != ectx.a)
    ys = ~in_x
    shape = (len(R), int(np.count_nonzero(ys)))
    if back is not None and back.T.shape != shape:
        raise ProtocolError(f"backward matrix has shape {back.T.shape}, expected {shape}")
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


# ---------------------------------------------------------------------------
# The session: one sequence for both modes
# ---------------------------------------------------------------------------

def _flow(view: PartitionedGraph | PartyView, y_ego: np.ndarray) -> str:
    """The session's degenerate marker, which fixes the frames it sends:
    "no-y-nodes" sends none and spends no budget, "small-y-ego" sends
    the forward frame only, "" sends both. Each party computes it on its
    own view, from the node roster and the ego's cross edges, which both
    hold, so the two always agree."""
    if view.vy_indices.size == 0:
        return "no-y-nodes"  # X holds every edge
    if y_ego.size < 2:
        return "small-y-ego"  # Y's counts and partial sum are all zero
    return ""


def _held(held: PartitionedGraph | PartyView, party: str) -> PartyView | None:
    """held's view for `party`; None if held is the other party's view."""
    if isinstance(held, PartyView):
        return held if held.party == party else None
    return held.view_x() if party == "X" else held.view_y()


_KIND = {ForwardMsg: "forward", BackwardMsg: "backward"}


def _send(sock: socket.socket | None, msg: ForwardMsg | BackwardMsg,
          log: list[tuple[str, bytes]]) -> None:
    """Encode msg, send it to the peer (in-process there is none) and record it."""
    frame = encode_msg(msg)
    if sock is not None:
        sock.sendall(frame)
    log.append((f"sent-{_KIND[type(msg)]}", frame))


def _receive(sock: socket.socket, cls: type, max_size: int,
             log: list[tuple[str, bytes]]) -> ForwardMsg | BackwardMsg:
    """The peer's next frame, at most max_size bytes: recorded, decoded,
    and refused unless it holds a `cls` message."""
    raw = _recv_frame(sock, max_size)
    log.append((f"received-{_KIND[cls]}", raw))
    msg = decode_msg(raw)
    if not isinstance(msg, cls):
        raise ProtocolError(f"expected a {_KIND[cls]} frame")
    return msg


def _play(held: PartitionedGraph | PartyView, a_idx: int, config: ProtocolConfig,
          rng_x: np.random.Generator | None, rng_y: np.random.Generator | None,
          sock: socket.socket | None, log: list[tuple[str, bytes]]) -> SessionResult | None:
    """One session: forward stage, backward stage, X's assembly.

    held is both parties' graph (in-process, no socket) or one party's
    view (its peer at the other end of sock). A message whose sender is
    held is built and sent here; any other is received. Returns X's
    result, or None where X is not held. A party's generator may be None
    only if none of its mechanisms is randomized.
    """
    y_ego = _y_ego_sorted(held, a_idx)
    degenerate = _flow(held, y_ego)
    view_x = _held(held, "X")
    ectx = _ego_context_idx(view_x, a_idx) if view_x is not None else None
    ledger = BudgetLedger()
    fwd = back = None
    if degenerate != "no-y-nodes":
        if view_x is not None:
            fwd = _forward_stage(view_x, ectx, config, rng_x, ledger)
            _send(sock, fwd, log)
        else:
            fwd = _receive(sock, ForwardMsg, _forward_frame_size(held.vx_indices.size - 1), log)
    if degenerate == "":
        view_y = _held(held, "Y")
        if view_y is not None:
            back = _backward_stage(view_y, a_idx, y_ego, fwd.R, config, rng_y, ledger)
            _send(sock, back, log)
        else:
            back = _receive(sock, BackwardMsg, _backward_frame_size(len(fwd.R), y_ego.size), log)
    if view_x is None:
        return None
    R = ectx.R_star if fwd is None else fwd.R
    acc, skipped = _assemble_x(view_x, ectx, R, back, config)
    return SessionResult(value=acc.total, parts=acc, skipped_terms=skipped,
                         degenerate=degenerate, non_private=config.non_private,
                         budget=ledger, frames=tuple(frame for _, frame in log), r_size=len(R))


def run_session(pg: PartitionedGraph, a: object, config: ProtocolConfig,
                rng: np.random.Generator) -> SessionResult:
    """Run one full in-process session between the two party views.

    X draws from rng's first spawned child and Y from its second.
    """
    a_idx = _x_ego_index(pg, a)
    rng_x, rng_y = rng.spawn(2)
    return _play(pg, a_idx, config, rng_x, rng_y, None, [])


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
    return _play(pg, _x_ego_index(pg, a), _NOISELESS, None, None, None, []).value


# ---------------------------------------------------------------------------
# Two-process transport
# ---------------------------------------------------------------------------

# Longest wait, in seconds, for a connection or for the peer's next bytes.
IO_TIMEOUT_S = 10.0

_HELLO = HANDSHAKE_MAGIC + bytes([WIRE_VERSION])


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
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


def _handshake(sock: socket.socket) -> None:
    sock.sendall(_HELLO)
    reply = _recv_exact(sock, 5)
    if reply[:4] != HANDSHAKE_MAGIC:
        raise HandshakeError("peer sent bad magic")
    if reply[4] != WIRE_VERSION:
        raise HandshakeError(f"peer speaks version {reply[4]}, expected {WIRE_VERSION}")


def _handshake_accept(sock: socket.socket) -> None:
    hello = _recv_exact(sock, 5)
    sock.sendall(_HELLO)
    if hello != _HELLO:
        raise HandshakeError(f"client hello invalid: {hello!r}")


def _connect(address: tuple[str, int]) -> socket.socket:
    """X's connection to Y, retried on any error (Y's listener may still
    be starting up) until IO_TIMEOUT_S after the first attempt; no
    attempt outlasts that deadline."""
    deadline = time.monotonic() + IO_TIMEOUT_S
    last_err: OSError | None = None
    while (left := deadline - time.monotonic()) > 0:
        try:
            sock = socket.create_connection(address, timeout=left)
        except OSError as exc:
            last_err = exc
            time.sleep(max(min(0.05, deadline - time.monotonic()), 0.0))
        else:
            sock.settimeout(IO_TIMEOUT_S)
            return sock
    raise ConnectionError(f"could not reach Y at {address}: {last_err}")


def _accept(address: tuple[str, int]) -> socket.socket:
    """Y's end: the one connection a fresh listener on address accepts."""
    with socket.create_server(address) as listener:
        listener.settimeout(IO_TIMEOUT_S)
        conn, _ = listener.accept()
    conn.settimeout(IO_TIMEOUT_S)
    return conn


def run_two_process(role: str, address: tuple[str, int], view: PartyView, a: object,
                    config: ProtocolConfig, seed: int,
                    transcript: list[tuple[str, bytes]] | None = None) -> float | None:
    """Run one party's half of a session over a framed TCP connection.

    role must be the view's party: X connects to address, Y listens on
    it. Both sides derive their generator from the shared seed exactly
    the way the in-process driver does, so results match it bit for
    bit. X returns the EBC estimate; Y returns None. Each party only
    ever holds its own view, so the other side's internal edges are
    absent from its process by construction. Y waiting longer than
    IO_TIMEOUT_S for X to connect, or either side waiting that long for
    the peer's next bytes, raises ProtocolError; X that has not
    connected within IO_TIMEOUT_S raises ConnectionError.
    """
    if role != view.party:
        raise ValueError(f"role must be the view's party {view.party!r}, got {role!r}")
    a_idx = _x_ego_index(view, a)
    rng_x, rng_y = np.random.default_rng(seed).spawn(2)
    open_link, greet = (_connect, _handshake) if role == "X" else (_accept, _handshake_accept)
    try:
        with open_link(address) as sock:
            greet(sock)
            result = _play(view, a_idx, config, rng_x, rng_y, sock,
                           transcript if transcript is not None else [])
    except TimeoutError as exc:
        raise ProtocolError(f"no word from the peer for {IO_TIMEOUT_S} s") from exc
    return None if result is None else result.value
