"""Two-party protocol orchestration and X-side final assembly.

One session is one sequence, written once for both modes: forward
message (X's set release), backward message (Y's noisy counts and
partial sum), then X-side assembly of S_X + S_XY + S_Y. Each party
derives its part of the session from its own view only, through one
ego context (graphs.EgoContext): the node sets, the frames it sends and
the size bound of each frame it receives. Both parties skip the
messages their shared knowledge makes empty: both when Y has no nodes,
the backward one when Y's side of the ego network has fewer than two
nodes. Runs either in-process (both party views held by one driver) or
across two processes over a framed TCP wire; the two modes run the same
per-party derivation and, handed the generators the in-process driver
spawns, produce bit-identical results.
"""

from __future__ import annotations

import math
import socket
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .backward import BackwardMsg, DegenerateEgoError, _reply
from .dpnum import DEFAULT_CONTEXT, PrivacyParams
from .forward import ForwardMsg, _membership, forward_message_from_context
from .graphs import (
    EgoContext,
    PartitionedGraph,
    PartyView,
    _ego_context_idx,
    _pair_sum,
    _x_ego_index,
)

ALL_MECHS = frozenset({"mech1", "mech2", "mech3"})
CLAMP_MODES = ("clamp_nonneg", "raw")


class ProtocolError(RuntimeError):
    pass


class HandshakeError(ProtocolError):
    """Transport peers disagree on the protocol or on the session: magic,
    version, ego, epsilon, mechanisms or node roster."""


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
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
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
# Wire format v3
# ---------------------------------------------------------------------------
# frame   = u32 length | u8 version | u8 type | payload   (big-endian)
# length counts every byte after the length field itself.
# type 1 (forward):  u32 n | ceil(n / 8) bytes: R's membership bits over
#                    X^- in ascending index order, most significant bit
#                    first; padding bits zero
# type 2 (backward): u32 rows | u32 cols | u8 width code |
#                    rows * cols integers of that width, row-major |
#                    S_Y as an f8
# Width codes 1, 2, 4 and 8 give the matrix as >i1, >i2, >i4 or >i8, the
# narrowest that holds its values, so a frame's length depends on the
# released values only. A noisy S_Y is its grid count times 2^-20,
# which an f8 holds exactly for any count below 2^53 in magnitude; a
# noiseless S_Y travels as the float it is. S_Y must be finite.
# Both parties know X^-, and the backward matrix's rows and columns are
# the ascending ids of R and of the ego's Y-side neighbours, so no id is
# ever sent.

WIRE_VERSION = 3
TYPE_FORWARD = 1
TYPE_BACKWARD = 2
HANDSHAKE_MAGIC = b"PEBC"
HANDSHAKE_VERSION = 4

_WIDTHS = (1, 2, 4, 8)


def _forward_frame_size(n: int) -> int:
    return 10 + (n + 7) // 8


def _backward_frame_size(rows: int, cols: int) -> int:
    return 23 + 8 * rows * cols


def _width(t: np.ndarray) -> int:
    """Bytes per entry of the narrowest signed integer type holding t."""
    if t.size:
        big = max(int(t.max()), -1 - int(t.min()))
        for w in _WIDTHS:
            if big < 1 << (8 * w - 1):
                return w
    return 1


def encode_msg(msg: ForwardMsg | BackwardMsg) -> bytes:
    """Serialize one message as a single wire frame."""
    if isinstance(msg, ForwardMsg):
        bits = np.packbits(msg.member).tobytes()
        head = struct.pack(">IBBI", 6 + len(bits), WIRE_VERSION, TYPE_FORWARD, msg.member.size)
        return head + bits
    if not isinstance(msg, BackwardMsg):
        raise TypeError(f"cannot encode {type(msg).__name__}")
    t = np.asarray(msg.T)
    if t.ndim != 2:
        raise ValueError(f"T must be a matrix, got {t.ndim} dimensions")
    if t.dtype.kind != "i":
        raise ValueError(f"T must hold signed integers, got {t.dtype}")
    width = _width(t)
    body = t.astype(f">i{width}")
    head = struct.pack(">IBBIIB", 19 + body.nbytes, WIRE_VERSION, TYPE_BACKWARD, *t.shape, width)
    # one join copies the body once, however large the frame
    return b"".join((head, body, struct.pack(">d", msg.S_Y)))


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
        (n,) = struct.unpack_from(">I", payload, 0)
        size = (n + 7) // 8
        if len(payload) != 4 + size:
            raise DecodeError(10, f"{n} membership bits need {size} bytes, got {len(payload) - 4}")
        bits = np.frombuffer(payload, dtype=np.uint8, offset=4)
        if n % 8 and bits[-1] & (0xFF >> n % 8):
            raise DecodeError(9 + size, "padding bit set")
        return ForwardMsg(member=np.unpackbits(bits, count=n).view(bool))
    if mtype == TYPE_BACKWARD:
        if len(payload) < 9:
            raise DecodeError(6, "truncated shape field")
        rows, cols, width = struct.unpack_from(">IIB", payload, 0)
        if width not in _WIDTHS:
            raise DecodeError(14, f"unknown width code {width:#x}")
        need = 17 + rows * cols * width
        if len(payload) != need:
            raise DecodeError(15, f"{rows} x {cols} matrix of width {width} needs a "
                                  f"{need}-byte payload, got {len(payload)}")
        t = np.frombuffer(payload, dtype=f">i{width}", count=rows * cols, offset=9)
        t = t.astype(np.int64).reshape(rows, cols)
        (s_y,) = struct.unpack_from(">d", payload, need - 8)
        if not math.isfinite(s_y):
            raise DecodeError(6 + need - 8, "S_Y is not finite")
        return BackwardMsg(T=t, S_Y=s_y)
    raise DecodeError(5, f"unknown message type {mtype}")


# ---------------------------------------------------------------------------
# Session stages (shared by in-process and two-process modes)
# ---------------------------------------------------------------------------

def _forward_stage(ectx: EgoContext, config: ProtocolConfig,
                   rng: np.random.Generator | None, ledger: BudgetLedger) -> ForwardMsg:
    if "mech1" in config.mech_mask:
        params = PrivacyParams(epsilon=config.epsilon, delta0=1.0)
        msg = forward_message_from_context(ectx, params, DEFAULT_CONTEXT, rng)
        ledger.charge("X", "set-release", config.epsilon)
        return msg
    return ForwardMsg(member=_membership(ectx.x_minus_sorted, ectx.r_star_sorted),
                      x_minus=ectx.x_minus_sorted)


def _backward_stage(view_y: PartyView, ectx: EgoContext, fwd: ForwardMsg,
                    config: ProtocolConfig, rng: np.random.Generator | None,
                    ledger: BudgetLedger) -> BackwardMsg:
    """Y's reply to the forward message, from Y's view and Y's ego
    context, whose X^- = V_X minus {a} the bits are read against: a
    bitmap cannot name any other id, so the counts depend only on edges
    the noise's sensitivity bound covers. Bits over any other number of
    nodes are refused."""
    if ectx.flow:
        raise DegenerateEgoError("backward stage invoked on a gated case")
    x_minus = ectx.x_minus_sorted
    if fwd.member.size != x_minus.size:
        raise ProtocolError(f"forward bits cover {fwd.member.size} nodes, X^- has {x_minus.size}")
    noisy_t = "mech2" in config.mech_mask
    noisy_sy = "mech3" in config.mech_mask
    back = _reply(view_y, ectx.y_ego_sorted, x_minus[fwd.member],
                  PrivacyParams(epsilon=config.epsilon), rng, noisy_t, noisy_sy)
    if noisy_t:
        ledger.charge("Y", "count-vector", config.epsilon / 2.0)
    if noisy_sy:
        ledger.charge("Y", "partial-sum", config.epsilon / 2.0)
    return back


def _assemble_x(view_x: PartyView, ectx: EgoContext, r_sorted: np.ndarray,
                back: BackwardMsg | None, config: ProtocolConfig) -> tuple[EbcAccumulator, int]:
    """X-side completion: S_XY over cross pairs, S_X over X-side pairs.

    r_sorted is R in ascending order. A reply must be the |R| x d_Y
    matrix. Received counts for i outside
    R* are discarded; counts for i in R* \\ R start from zero. The
    X-side path increment counts intermediates in R* u {a}; S_X counts
    intermediates anywhere in N_a u {a}, all through edges X knows.

    Both come from one block of X's view, R* against R* then N_a n V_Y.
    The ego's column is left out: a is adjacent to all of N_a, so it
    adds exactly one path to every pair, and no pair it joins is open.
    """
    r_star, y_ego = ectx.r_star_sorted, ectx.y_ego_sorted
    shape = (r_sorted.size, y_ego.size)
    if back is not None and back.T.shape != shape:
        raise ProtocolError(f"backward matrix has shape {back.T.shape}, expected {shape}")
    acc = EbcAccumulator(S_Y=back.S_Y if back is not None else 0.0)
    skipped = 0
    if not r_star.size:
        return acc, skipped
    indptr, indices = view_x.graph.csr()
    block = _kernels.bipartite_dense(indptr, indices, r_star,
                                     np.concatenate((r_star, y_ego))).astype(np.float64)
    xx, xy = block[:, :r_star.size], block[:, r_star.size:]

    if y_ego.size:
        k_x = xx @ xy + 1.0  # X-side 2-path counts through R* u {a}
        t_recv = np.zeros(k_x.shape, dtype=np.float64)
        if back is not None:
            # back.T's rows are R in ascending order; take those of R n R*
            hit, pos = _kernels._locate(r_sorted, r_star)
            t_recv[hit] = back.T[pos]
        if config.clamp_mode == "clamp_nonneg":
            np.maximum(t_recv, 0.0, out=t_recv)
        denom = t_recv + k_x
        # one rule for both modes: clamped counts leave every open pair
        # usable, since k_x counts the path through a (denom >= 1)
        open_pairs = xy == 0
        usable = open_pairs & (denom > 0.0)
        skipped = int(np.count_nonzero(open_pairs & ~usable))
        acc.S_XY = float((1.0 / denom[usable]).sum())

    if r_star.size >= 2:
        acc.S_X = _pair_sum(xx, block @ block.T + 1.0)
    return acc, skipped


# ---------------------------------------------------------------------------
# The session: one sequence for both modes
# ---------------------------------------------------------------------------

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
    held is built and sent here; any other is received. Each held party
    works from the ego context of its own view alone, which gives the
    flow, every node set and the bound on each frame it receives, so the
    joint graph's edges are never read. Where X is held, X's context
    gives the flow and Y's is built only when Y replies; where only Y
    is, Y's gives it. Returns X's result, or None where X is not held.
    A party's generator may be None only if none of its mechanisms is
    randomized.
    """
    view_x = _held(held, "X")
    ectx_x = _ego_context_idx(view_x, a_idx) if view_x is not None else None
    ectx_y = _ego_context_idx(held, a_idx) if view_x is None else None  # held is Y's view
    flow = (ectx_x or ectx_y).flow
    ledger = BudgetLedger()
    fwd = back = None
    if flow != "no-y-nodes":
        if ectx_x is not None:
            fwd = _forward_stage(ectx_x, config, rng_x, ledger)
            _send(sock, fwd, log)
        else:
            n = ectx_y.x_minus_sorted.size
            fwd = _receive(sock, ForwardMsg, _forward_frame_size(n), log)
            if fwd.member.size != n:
                raise DecodeError(6, f"forward bits cover {fwd.member.size} nodes, X^- has {n}")
    if flow == "":
        view_y = _held(held, "Y")
        if view_y is not None:
            if ectx_y is None:
                ectx_y = _ego_context_idx(view_y, a_idx)
            back = _backward_stage(view_y, ectx_y, fwd, config, rng_y, ledger)
            _send(sock, back, log)
        else:
            rows = int(np.count_nonzero(fwd.member))
            back = _receive(sock, BackwardMsg,
                            _backward_frame_size(rows, ectx_x.y_ego_sorted.size), log)
    if ectx_x is None:
        return None
    r_sorted = ectx_x.r_star_sorted if fwd is None else ectx_x.x_minus_sorted[fwd.member]
    acc, skipped = _assemble_x(view_x, ectx_x, r_sorted, back, config)
    return SessionResult(value=acc.total, parts=acc, skipped_terms=skipped,
                         degenerate=flow, non_private=config.non_private,
                         budget=ledger, frames=tuple(frame for _, frame in log),
                         r_size=r_sorted.size)


def run_session(pg: PartitionedGraph, a: object, config: ProtocolConfig,
                rng: np.random.Generator) -> SessionResult:
    """Run one full in-process session between the two party views.

    X draws from rng's first spawned child and Y from its second;
    handing those children to the two halves of run_two_process replays
    the session bit for bit.
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

# hello v4 = magic | u8 version | u32 ego's dense index | f8 epsilon |
#            u8 mechanism mask | 32-byte SHA-256 of the node roster
# (big-endian, 50 bytes). Each side sends its own and refuses a peer's
# that differs in any field: the two halves then run the same session
# on the same roster, or none.
_HELLO = struct.Struct(">4sBIdB32s")
_HELLO_FIELDS = ("magic", "version", "ego", "epsilon", "mechanisms", "roster")
_MECH_BITS = {"mech1": 1, "mech2": 2, "mech3": 4}


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


def _hello(view: PartyView, a_idx: int, config: ProtocolConfig) -> bytes:
    """This side's hello for the session on ego a_idx under config."""
    mask = sum(bit for mech, bit in _MECH_BITS.items() if mech in config.mech_mask)
    return _HELLO.pack(HANDSHAKE_MAGIC, HANDSHAKE_VERSION, a_idx, config.epsilon, mask,
                       view.roster_digest)


def _handshake(sock: socket.socket, hello: bytes) -> None:
    """Either role's greeting: send this side's hello, then check the
    peer's. Magic and version are checked before the rest is read, so
    an older peer's shorter hello is refused at once; then the first
    field that differs is named."""
    sock.sendall(hello)
    head = _recv_exact(sock, 5)
    if head[:4] != HANDSHAKE_MAGIC:
        raise HandshakeError("peer sent bad magic")
    if head[4] != HANDSHAKE_VERSION:
        raise HandshakeError(f"peer speaks version {head[4]}, expected {HANDSHAKE_VERSION}")
    peer = _HELLO.unpack(head + _recv_exact(sock, _HELLO.size - 5))
    for name, ours, theirs in zip(_HELLO_FIELDS, _HELLO.unpack(hello), peer):
        if ours != theirs:
            detail = "" if name == "roster" else f": ours {ours!r}, the peer's {theirs!r}"
            raise HandshakeError(f"peers disagree on the session's {name}{detail}")


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
                    config: ProtocolConfig, seed: int | np.random.Generator,
                    transcript: list[tuple[str, bytes]] | None = None) -> float | None:
    """Run one party's half of a session over a framed TCP connection.

    role must be the view's party: X connects to address, Y listens on
    it. seed is this party's own: a Generator, used as it is, or an int,
    from which the half builds only its role's child, the generator that
    run_session(..., np.random.default_rng(seed)) spawns for it (X the
    first, Y the second). The half builds no other generator, so X
    given a seed of its own cannot regenerate and subtract Y's noise.
    Handing both halves run_session's int seed, or each role its spawned
    child, replays an in-process session bit for bit. X returns the EBC
    estimate; Y returns None. Each party only ever holds its own view,
    so the other side's internal edges are absent from its process by
    construction. Both halves must be handed the same ego, epsilon and
    mechanism mask, and views of the same node roster (labels and
    party mask); the handshake raises HandshakeError on both sides
    otherwise. Y waiting longer than
    IO_TIMEOUT_S for X to connect, or either side waiting that long for
    the peer's next bytes, raises ProtocolError; X that has not
    connected within IO_TIMEOUT_S raises ConnectionError.
    """
    if role != view.party:
        raise ValueError(f"role must be the view's party {view.party!r}, got {role!r}")
    a_idx = _x_ego_index(view, a)
    if not isinstance(seed, np.random.Generator):
        seed = np.random.SeedSequence(seed, spawn_key=(0 if role == "X" else 1,))
    rng = np.random.default_rng(seed)
    rng_x, rng_y = (rng, None) if role == "X" else (None, rng)
    hello = _hello(view, a_idx, config)
    open_link = _connect if role == "X" else _accept
    try:
        with open_link(address) as sock:
            _handshake(sock, hello)
            result = _play(view, a_idx, config, rng_x, rng_y, sock,
                           transcript if transcript is not None else [])
    except TimeoutError as exc:
        raise ProtocolError(f"no word from the peer for {IO_TIMEOUT_S} s") from exc
    return None if result is None else result.value
