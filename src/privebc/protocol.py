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
from typing import Callable

import numpy as np

from .backward import BackwardMsg, DegenerateEgoError, _reply
from .forward import ForwardMsg, _release_set
from .graphs import (
    EgoContext,
    PartitionedGraph,
    PartyView,
    _ego_context_idx,
    _ego_sums,
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
# Wire format v4
# ---------------------------------------------------------------------------
# frame   = varint length | u8 version | u8 type | payload
# length counts every byte after the length field itself. A varint is
# an unsigned LEB128 integer below 2^32: seven bits a byte, least
# significant group first, the top bit set on every byte but the last.
# It takes 1 to 5 bytes, and only its shortest form is accepted, so each
# value has exactly one encoding.
# type 1 (forward):  varint n | ceil(n / 8) bytes: R's membership bits
#                    over X^- in ascending index order, most significant
#                    bit first; padding bits zero
# type 2 (backward): varint rows | varint cols | u8 width code |
#                    rows * cols big-endian integers of that width,
#                    row-major | S_Y as a big-endian f8
# Width codes 1, 2, 4 and 8 give the matrix as >i1, >i2, >i4 or >i8, the
# narrowest that holds its values (1 for an empty matrix), and no other
# width is accepted: a frame's length depends on the released values
# only, and every accepted frame is the one encoding of its message. A
# noisy S_Y is its grid count times 2^-20, which an f8 holds exactly for
# any count below 2^53 in magnitude; a noiseless S_Y travels as the
# float it is. S_Y must be finite.
# Both parties know X^-, and the backward matrix's rows and columns are
# the ascending ids of R and of the ego's Y-side neighbours, so no id is
# ever sent.
# Example: the forward frame over |X^-| = 3 with bits 101 is the five
# bytes 04 04 01 03 a0: length 4, version 4, type 1, n = 3, then the
# bits 1010 0000.

WIRE_VERSION = 4
TYPE_FORWARD = 1
TYPE_BACKWARD = 2
HANDSHAKE_MAGIC = b"PEBC"
HANDSHAKE_VERSION = 5

_WIDTHS = (1, 2, 4, 8)
_BIG_ENDIAN = {w: np.dtype(f">i{w}") for w in _WIDTHS}  # the counts' type at each width
_VARINT_MAX = 5  # bytes in the longest varint, that of 2^32 - 1


def _varint(value: int) -> bytes:
    """value, below 2^32, as a varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    return _varint_loop(value)


def _varint_loop(value: int) -> bytes:
    """value, below 2^32, as a varint, seven bits at a time."""
    if value >> 32:
        raise ValueError(f"{value} does not fit a 32-bit varint")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


_ONE_BYTE = tuple(bytes((v,)) for v in range(0x80))  # every one-byte varint


def _varint_size(value: int) -> int:
    """Bytes in value's varint."""
    return max(1, (value.bit_length() + 6) // 7)


def _read_varint(data: bytes, at: int) -> tuple[int, int]:
    """The varint starting at byte `at` of data, and the offset after it."""
    if at < len(data) and data[at] < 0x80:
        return data[at], at + 1
    return _read_varint_loop(data, at)


def _read_varint_loop(data: bytes, at: int) -> tuple[int, int]:
    """_read_varint a byte at a time, with every refusal and its offset."""
    value = 0
    for i in range(_VARINT_MAX):
        if at + i >= len(data):
            raise DecodeError(at + i, "truncated varint")
        byte = data[at + i]
        value |= (byte & 0x7F) << 7 * i
        if byte < 0x80:
            if i and not byte:
                raise DecodeError(at + i, "overlong varint: its last byte is zero")
            if value >> 32:
                raise DecodeError(at, "varint exceeds 32 bits")
            return value, at + i + 1
    raise DecodeError(at + _VARINT_MAX - 1, f"varint unterminated after {_VARINT_MAX} bytes")


def _frame_size(payload: int) -> int:
    """Bytes in a frame whose payload holds `payload` bytes."""
    return _varint_size(2 + payload) + 2 + payload


def _forward_frame_size(n: int) -> int:
    return _frame_size(_varint_size(n) + (n + 7) // 8)


def _backward_frame_size(rows: int, cols: int) -> int:
    """The largest backward frame: every count at width 8."""
    return _frame_size(_varint_size(rows) + _varint_size(cols) + 9 + 8 * rows * cols)


def _width(t: np.ndarray) -> int:
    """Bytes per entry of the narrowest signed integer type holding t."""
    if t.size:
        top, bottom = np.maximum.reduce(t, axis=None), np.minimum.reduce(t, axis=None)
        big = max(int(top), -1 - int(bottom))
        for w in _WIDTHS:
            if big < 1 << (8 * w - 1):
                return w
    return 1


def encode_msg(msg: ForwardMsg | BackwardMsg) -> bytes:
    """Serialize one message as a single wire frame."""
    if isinstance(msg, ForwardMsg):
        payload = _varint(msg.member.size) + np.packbits(msg.member).tobytes()
        return _varint(2 + len(payload)) + bytes((WIRE_VERSION, TYPE_FORWARD)) + payload
    if not isinstance(msg, BackwardMsg):
        raise TypeError(f"cannot encode {type(msg).__name__}")
    t = np.asarray(msg.T)
    if t.ndim != 2:
        raise ValueError(f"T must be a matrix, got {t.ndim} dimensions")
    if t.dtype.kind != "i":
        raise ValueError(f"T must hold signed integers, got {t.dtype}")
    width = _width(t)
    body = t.astype(_BIG_ENDIAN[width])
    shape = _varint(t.shape[0]) + _varint(t.shape[1]) + bytes((width,))
    head = _varint(2 + len(shape) + body.nbytes + 8) + bytes((WIRE_VERSION, TYPE_BACKWARD)) + shape
    # one join copies the body once, however large the frame
    return b"".join((head, body, struct.pack(">d", msg.S_Y)))


def decode_msg(data: bytes) -> ForwardMsg | BackwardMsg:
    """Parse exactly one frame; raises DecodeError with a byte offset."""
    length, at = _read_varint(data, 0)
    if length < 2:
        raise DecodeError(0, f"frame length {length} below header size")
    if len(data) != at + length:
        raise DecodeError(at + min(length, len(data) - at),
                          f"frame claims {at + length} bytes, got {len(data)}")
    version, mtype = data[at], data[at + 1]
    if version != WIRE_VERSION:
        raise DecodeError(at, f"unsupported version {version}")
    if mtype == TYPE_FORWARD:
        n, at = _read_varint(data, at + 2)
        size = (n + 7) // 8
        if len(data) != at + size:
            raise DecodeError(at, f"{n} membership bits need {size} bytes, got {len(data) - at}")
        bits = np.frombuffer(data, dtype=np.uint8, offset=at)
        if n % 8 and bits[-1] & (0xFF >> n % 8):
            raise DecodeError(len(data) - 1, "padding bit set")
        return ForwardMsg(member=np.unpackbits(bits, count=n).view(bool))
    if mtype == TYPE_BACKWARD:
        rows, at = _read_varint(data, at + 2)
        cols, at = _read_varint(data, at)
        if at == len(data):
            raise DecodeError(at, "truncated width field")
        width = data[at]
        if width not in _WIDTHS:
            raise DecodeError(at, f"unknown width code {width:#x}")
        need = at + 1 + rows * cols * width + 8
        if len(data) != need:
            raise DecodeError(at + 1, f"{rows} x {cols} matrix of width {width} needs a "
                                      f"{need}-byte frame, got {len(data)}")
        t = np.frombuffer(data, dtype=_BIG_ENDIAN[width], count=rows * cols, offset=at + 1)
        if _width(t) != width:  # one encoding per frame, as for the varints
            raise DecodeError(at, f"width {width} is wider than the counts need")
        (s_y,) = struct.unpack_from(">d", data, need - 8)
        if not math.isfinite(s_y):
            raise DecodeError(need - 8, "S_Y is not finite")
        return BackwardMsg(T=t.astype(np.int64).reshape(rows, cols), S_Y=s_y)
    raise DecodeError(at + 1, f"unknown message type {mtype}")


# ---------------------------------------------------------------------------
# Session stages (shared by in-process and two-process modes)
# ---------------------------------------------------------------------------

def _forward_stage(ectx: EgoContext, config: ProtocolConfig,
                   rng: np.random.Generator | None, ledger: BudgetLedger) -> ForwardMsg:
    if "mech1" in config.mech_mask:
        msg = _release_set(ectx, config.epsilon / 2.0, rng)  # quality sensitivity 1
        ledger.charge("X", "set-release", config.epsilon)
        return msg
    member = np.zeros(ectx.x_minus_sorted.size, dtype=bool)
    member[ectx.r_star_at] = True
    return ForwardMsg(member=member, x_minus=ectx.x_minus_sorted)


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
    back = _reply(view_y, ectx.y_ego_sorted, x_minus[fwd.member], config.epsilon, rng,
                  noisy_t, noisy_sy)
    if noisy_t:
        ledger.charge("Y", "count-vector", config.epsilon / 2.0)
    if noisy_sy:
        ledger.charge("Y", "partial-sum", config.epsilon / 2.0)
    return back


def _assemble_x(view_x: PartyView, ectx: EgoContext, member: np.ndarray | None,
                back: BackwardMsg | None, config: ProtocolConfig) -> tuple[EbcAccumulator, int]:
    """X-side completion: S_XY over cross pairs, S_X over X-side pairs.

    member is R's bits over X^-, as X sent them (None if X sent none,
    and then no reply came). A reply must be the |R| x d_Y matrix, whose
    rows are R in ascending order. Received counts for i outside R* are
    discarded; counts for i in R* \\ R start from zero. The X-side path
    increment counts intermediates in R* u {a}; S_X counts
    intermediates anywhere in N_a u {a}, all through edges X knows.

    Both come from the ego-sum core over R* against N_a n V_Y in X's
    view (graphs._ego_sums), which gives S_X; k_x adds the path through
    a, which is adjacent to all of N_a, to the paths through R*.
    """
    r_star, y_ego = ectx.r_star_sorted, ectx.y_ego_sorted
    acc = EbcAccumulator()
    skipped = 0
    if back is not None:
        r_at = member.nonzero()[0]  # R's positions in X^-: the reply's rows
        if back.T.shape != (r_at.size, y_ego.size):
            raise ProtocolError(f"backward matrix has shape {back.T.shape}, "
                                f"expected {(r_at.size, y_ego.size)}")
        acc.S_Y = back.S_Y
    if not r_star.size:
        return acc, skipped
    xx, xy, acc.S_X = _ego_sums(view_x.graph, r_star, y_ego)
    if y_ego.size:
        denom = xx @ xy + 1.0  # k_x: X-side 2-path counts through R* u {a}
        if back is not None and r_at.size:
            at = ectx.r_star_at
            # the reply's row of each node of R*, zeroed where X did not send it
            t = back.T.take(r_at.searchsorted(at), 0, mode="clip") * member[at, None]
            if config.clamp_mode == "clamp_nonneg":
                np.maximum(t, 0, out=t)
            denom += t
        open_pairs = xy == 0
        # clamped counts leave every open pair usable, since k_x counts the
        # path through a (denom >= 1); raw ones may leave some unusable
        if config.clamp_mode == "raw":
            usable = open_pairs & (denom > 0.0)
            skipped = int(np.count_nonzero(open_pairs)) - int(np.count_nonzero(usable))
            open_pairs = usable
        acc.S_XY = float(np.add.reduce(1.0 / denom[open_pairs]))
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
          rng_x: Callable[[], np.random.Generator] | None,
          rng_y: Callable[[], np.random.Generator] | None,
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
    rng_x and rng_y give each party's generator, and are called only
    when that party draws; either may be None only if none of its
    party's mechanisms is randomized.
    """
    view_x = _held(held, "X")
    ectx_x = _ego_context_idx(view_x, a_idx) if view_x is not None else None
    ectx_y = _ego_context_idx(held, a_idx) if view_x is None else None  # held is Y's view
    flow = (ectx_x or ectx_y).flow
    mechs = config.mech_mask
    ledger = BudgetLedger()
    fwd = back = None
    if flow != "no-y-nodes":
        if ectx_x is not None:
            fwd = _forward_stage(ectx_x, config, rng_x() if "mech1" in mechs else None, ledger)
            _send(sock, fwd, log)
        else:
            n = ectx_y.x_minus_sorted.size
            fwd = _receive(sock, ForwardMsg, _forward_frame_size(n), log)
            if fwd.member.size != n:
                count_at = _read_varint(log[-1][1], 0)[1] + 2  # after length, version, type
                raise DecodeError(count_at, f"forward bits cover {fwd.member.size} nodes, "
                                            f"X^- has {n}")
    if flow == "":
        view_y = _held(held, "Y")
        if view_y is not None:
            if ectx_y is None:
                ectx_y = _ego_context_idx(view_y, a_idx)
            draws = "mech2" in mechs or "mech3" in mechs
            back = _backward_stage(view_y, ectx_y, fwd, config, rng_y() if draws else None,
                                   ledger)
            _send(sock, back, log)
        else:
            rows = int(np.count_nonzero(fwd.member))
            back = _receive(sock, BackwardMsg,
                            _backward_frame_size(rows, ectx_x.y_ego_sorted.size), log)
    if ectx_x is None:
        return None
    member = None if fwd is None else fwd.member
    acc, skipped = _assemble_x(view_x, ectx_x, member, back, config)
    return SessionResult(value=acc.total, parts=acc, skipped_terms=skipped,
                         degenerate=flow, non_private=config.non_private,
                         budget=ledger, frames=tuple([frame for _, frame in log]),
                         r_size=(ectx_x.r_star_sorted.size if member is None
                                 else int(np.count_nonzero(member))))


def run_session(pg: PartitionedGraph, a: object, config: ProtocolConfig,
                rng: np.random.Generator) -> SessionResult:
    """Run one full in-process session between the two party views.

    X draws from rng's first spawned child and Y from its second;
    handing those children to the two halves of run_two_process replays
    the session bit for bit. Like rng.spawn(2), this spawns both
    children's seed sequences from rng's, but it seeds a child's bit
    generator only if its party draws.
    """
    a_idx = _x_ego_index(pg, a)
    bits = type(rng.bit_generator)
    seq_x, seq_y = rng.bit_generator.seed_seq.spawn(2)
    return _play(pg, a_idx, config, lambda: np.random.Generator(bits(seq_x)),
                 lambda: np.random.Generator(bits(seq_y)), None, [])


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

# hello v5 = magic | u8 version | u32 ego's dense index | f8 epsilon |
#            u8 mechanism mask | 32-byte SHA-256 of the node roster
# (big-endian, 50 bytes). Each side sends its own and refuses a peer's
# that differs in any field: the two halves then run the same session
# on the same roster, or none. The hello's version names the frames'
# too: v5 is the hello of wire v4, so a peer with v3 frames (hello v4)
# is refused here, before it can send a u32 length.
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
    before any of its body is read. The length varint is read a byte at
    a time, and refused once it runs past _VARINT_MAX bytes."""
    head = _recv_exact(sock, 1)
    while head[-1] & 0x80 and len(head) < _VARINT_MAX:
        head += _recv_exact(sock, 1)
    length, at = _read_varint(head, 0)
    if at + length > max_size:
        raise ProtocolError(f"peer announced a {at + length}-byte frame, at most {max_size} allowed")
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
    rng_x, rng_y = (lambda: rng, None) if role == "X" else (None, lambda: rng)
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
