"""Simple undirected graphs, party partitions, ego networks, and exact EBC.

Node labels are opaque strings internalized to dense integer indices in
sorted-label order. Adjacency is kept once, as per-node sorted index
arrays (CSR). Graphs, partitions and party views are immutable after
construction and safe to share across concurrent readers.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import _kernels


class _lazy:
    """A computed attribute, kept in the instance's __dict__ on first
    read: functools.cached_property without the per-property lock that
    Python 3.11 takes on every first read. A party's session reads a
    handful of these on fresh objects, where that lock costs more than
    the values; two concurrent first reads may each compute one, and
    both get the same value."""

    def __init__(self, fn):
        self._fn = fn
        self._name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._fn(obj)
        return value


class GraphParseError(ValueError):
    """Malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownNodeError(KeyError):
    """A node label that is not part of the graph."""


class WrongPartyError(ValueError):
    """An ego node that does not belong to party X."""


@dataclass(frozen=True)
class LoadReport:
    """What the edge-list parser dropped or ignored."""

    data_lines: int = 0
    comment_lines: int = 0
    self_loops: int = 0
    duplicates: int = 0


class _LabelHash:
    """The roster digest's label part: SHA-256 over the node count, then
    every label, length-prefixed in index order. Hashed on first use and
    shared by every graph on one node set, so each view of it adds only
    its party mask."""

    __slots__ = ("_labels", "_sha")

    def __init__(self, labels: tuple[str, ...]):
        self._labels = labels
        self._sha = None

    def copy(self):
        """A fresh hash object that has read the label part."""
        if self._sha is None:
            parts = [struct.pack(">I", len(self._labels))]
            for label in self._labels:
                raw = label.encode()
                parts += (struct.pack(">I", len(raw)), raw)
            self._sha = hashlib.sha256(b"".join(parts))
        return self._sha.copy()


class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges."""

    __slots__ = ("labels", "n", "edge_count", "load_report",
                 "_index", "_indptr", "_indices", "_label_hash", "__weakref__")

    def __init__(self, nodes: Iterable[object], edges: Iterable[tuple[object, object]],
                 load_report: LoadReport | None = None):
        labels = sorted({str(v) for v in nodes})
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        nbrs: list[set[int]] = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            su, sv = str(u), str(v)
            if su == sv:
                raise ValueError(f"self-loop on node {su!r}")
            try:
                iu, iv = index[su], index[sv]
            except KeyError as exc:
                raise UnknownNodeError(f"edge endpoint {exc.args[0]!r} not in node set") from None
            if iv not in nbrs[iu]:
                nbrs[iu].add(iv)
                nbrs[iv].add(iu)
                count += 1
        self.labels: tuple[str, ...] = tuple(labels)
        self.n = n
        self.edge_count = count
        self.load_report = load_report
        self._index = index
        self._label_hash = _LabelHash(self.labels)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        self._indptr[1:] = np.fromiter(map(len, nbrs), np.int64, n).cumsum()
        self._indices = np.array([j for s in nbrs for j in sorted(s)], dtype=np.int64)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[object, object]],
                   isolated: Iterable[object] = ()) -> "Graph":
        edges = [(str(u), str(v)) for u, v in edges]
        nodes = {u for u, _ in edges} | {v for _, v in edges} | {str(x) for x in isolated}
        return cls(nodes, edges)

    @classmethod
    def _from_csr(cls, base: "Graph", indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """A graph on base's node set whose edges are given as CSR arrays
        (sorted, symmetric, and a subset of base's edges)."""
        g = cls.__new__(cls)
        g.labels = base.labels
        g.n = base.n
        g.edge_count = indices.size // 2
        g.load_report = None
        g._index = base._index
        g._label_hash = base._label_hash
        g._indptr = indptr
        g._indices = indices
        return g

    def index_of(self, label: object) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise UnknownNodeError(f"unknown node {label!r}") from None

    def label_of(self, idx: int) -> str:
        return self.labels[idx]

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(_neighbor_array(self, i).tolist())

    def degree(self, i: int) -> int:
        return int(self._indptr[i + 1] - self._indptr[i])

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._indices

    def edges_iter(self) -> Iterator[tuple[int, int]]:
        """All edges as index pairs (i, j) with i < j."""
        owner = np.arange(self.n).repeat(np.diff(self._indptr))
        upper = owner < self._indices
        yield from zip(owner[upper].tolist(), self._indices[upper].tolist())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


# Lines of an edge list that start with one of these are comments.
COMMENT_PREFIXES = ("#", "%")


def load_edge_list(source: str | Path | TextIO | bytes) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Lines starting with a COMMENT_PREFIXES entry are skipped; data lines
    need at least two tokens (extra columns such as weights are ignored).
    Self-loops and duplicate edges are dropped and counted in the
    returned graph's ``load_report``. A path or bytes source must be
    UTF-8: the first line that is not raises GraphParseError.
    """
    # undecodable bytes become lone surrogates, which the line check finds
    if isinstance(source, bytes):
        stream: TextIO = io.StringIO(source.decode("utf-8", "surrogateescape"))
    elif isinstance(source, (str, Path)):
        stream = open(source, "r", encoding="utf-8", errors="surrogateescape")
    else:
        stream = source
    try:
        nodes: set[str] = set()
        edges: set[tuple[str, str]] = set()
        self_loops = dups = comments = data_lines = 0
        for line_no, raw in enumerate(stream, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise GraphParseError(line_no, "not valid UTF-8") from None
            line = raw.strip()
            if not line:
                continue
            if line.startswith(COMMENT_PREFIXES):
                comments += 1
                continue
            toks = line.split()
            if len(toks) < 2:
                raise GraphParseError(line_no, f"expected 2 node tokens, got {len(toks)}")
            u, v = toks[0], toks[1]
            data_lines += 1
            nodes.add(u)
            nodes.add(v)
            if u == v:
                self_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                dups += 1
                continue
            edges.add(key)
        report = LoadReport(data_lines=data_lines, comment_lines=comments,
                            self_loops=self_loops, duplicates=dups)
        return Graph(nodes, sorted(edges), load_report=report)
    finally:
        if isinstance(source, (str, Path)):
            stream.close()


PARTY_X = "X"
PARTY_Y = "Y"


class _PartyInfoMixin:
    """Shared party bookkeeping for full graphs and one-party views."""

    graph: Graph
    _is_x: np.ndarray  # bool per dense index

    def is_x(self, idx: int) -> bool:
        return bool(self._is_x[idx])

    @_lazy
    def roster_digest(self) -> bytes:
        """SHA-256 of the roster both parties hold: every label, length-
        prefixed in index order, then the party mask's bits."""
        sha = self.graph._label_hash.copy()
        sha.update(np.packbits(self._is_x).tobytes())
        return sha.digest()

    @_lazy
    def vx_indices(self) -> np.ndarray:
        return self._is_x.nonzero()[0]


class PartyView(_PartyInfoMixin):
    """One party's complete knowledge: the full node/party roster plus
    only the edges incident to its own nodes.

    The other party's internal edges are physically absent from the
    view's graph, so code running against a view cannot read them.
    """

    def __init__(self, party: str, graph: Graph, is_x_mask: np.ndarray,
                 vx_indices: np.ndarray | None = None):
        self.party = party
        self.graph = graph
        self._is_x = is_x_mask
        if vx_indices is not None:  # X's indices, from the same roster
            self.vx_indices = vx_indices


class PartitionedGraph(_PartyInfoMixin):
    """A graph whose nodes are split between parties X and Y.

    Edge classes are derived: an edge is internal to X (class "X") iff
    both endpoints are X's, internal to Y iff both are Y's, and shared
    ("XY") otherwise. The three classes partition the edge set.
    """

    def __init__(self, graph: Graph, is_x_mask: np.ndarray):
        if is_x_mask.shape != (graph.n,):
            raise ValueError("party mask must have one entry per node")
        self.graph = graph
        self._is_x = is_x_mask.astype(bool)

    def edge_class_counts(self) -> dict[str, int]:
        indptr, indices = self.graph.csr()
        owner = np.arange(self.graph.n).repeat(np.diff(indptr))
        upper = owner < indices
        # each edge once: its count of X endpoints is 0 (Y), 1 (XY) or 2 (X)
        ends = self._is_x[owner[upper]].astype(np.int64) + self._is_x[indices[upper]]
        y, xy, x = np.bincount(ends, minlength=3).tolist()
        return {"X": x, "Y": y, "XY": xy}

    @_lazy
    def _entry_parties(self) -> tuple[np.ndarray, np.ndarray]:
        """Each CSR entry's party bits (True for X): its owner's, and its
        neighbour's."""
        indptr, indices = self.graph.csr()
        return self._is_x.repeat(indptr[1:] - indptr[:-1]), self._is_x[indices]

    def _filtered_graph(self, keep_party_x: bool) -> Graph:
        """The edges with at least one endpoint in the kept party."""
        x_own, x_nb = self._entry_parties
        kept = x_own | x_nb if keep_party_x else ~(x_own & x_nb)
        indptr, indices = self.graph.csr()
        # rows keep their entries in order: a row now starts at the count kept before it
        kept_at = kept.nonzero()[0]
        return Graph._from_csr(self.graph, kept_at.searchsorted(indptr), indices[kept_at])

    @_lazy
    def _view_x(self) -> PartyView:
        return PartyView(PARTY_X, self._filtered_graph(True), self._is_x, self.vx_indices)

    @_lazy
    def _view_y(self) -> PartyView:
        return PartyView(PARTY_Y, self._filtered_graph(False), self._is_x, self.vx_indices)

    def view_x(self) -> PartyView:
        """X's knowledge: all nodes, edges within X plus shared edges."""
        return self._view_x

    def view_y(self) -> PartyView:
        """Y's knowledge: all nodes, edges within Y plus shared edges."""
        return self._view_y


def partition_nodes(g: Graph, seed: int, x_fraction: float) -> PartitionedGraph:
    """Assign each node independently to X with probability x_fraction.

    Deterministic given (seed, x_fraction); the graph structure is
    unchanged.
    """
    if not 0.0 <= x_fraction <= 1.0:
        raise ValueError("x_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random(g.n) < x_fraction
    return PartitionedGraph(g, mask)


@dataclass(eq=False)
class EgoContext:
    """All one party derives about ego a from the view it holds, as
    dense indices in sorted arrays. Nothing writes to one once it is
    built; it is not frozen only because a frozen dataclass sets each
    field through object.__setattr__, a cost every session pays twice.

    x_minus_sorted is X^- = V_X minus {a} and y_ego_sorted is N_a n V_Y;
    both come from the node roster and a's cross edges, which either
    party holds, so X's and Y's contexts agree on them. r_star_sorted is
    R* = N_a n V_X, which needs X's internal edges: it is empty in Y's
    view. R_star gives R* as a set. flow is the session's degenerate
    marker, which fixes the frames it sends: "no-y-nodes" sends none and
    spends no budget, "small-y-ego" (fewer than two Y-side neighbours)
    sends the forward frame only, "" sends both.
    """

    a: int
    r_star_sorted: np.ndarray
    x_minus_sorted: np.ndarray
    y_ego_sorted: np.ndarray
    flow: str

    @_lazy
    def R_star(self) -> frozenset[int]:
        return frozenset(self.r_star_sorted.tolist())

    @_lazy
    def r_star_at(self) -> np.ndarray:
        """R*'s positions in X^-: R* lies inside X^-, both sorted."""
        return self.x_minus_sorted.searchsorted(self.r_star_sorted)


def ego_context(pg: PartitionedGraph | PartyView, a: object) -> EgoContext:
    """Build the ego context for node a, which must belong to party X."""
    return _ego_context_idx(pg, _x_ego_index(pg, a))


def _x_ego_index(pg: PartitionedGraph | PartyView, a: object) -> int:
    a_idx = pg.graph.index_of(a)
    if not pg.is_x(a_idx):
        raise WrongPartyError(f"ego node {a!r} is not in party X")
    return a_idx


def _ego_context_idx(pg: PartitionedGraph | PartyView, a_idx: int) -> EgoContext:
    """The ego context of X's node a_idx, from the edges pg holds."""
    nbrs = _neighbor_array(pg.graph, a_idx)
    in_x = pg._is_x[nbrs]
    y_ego = nbrs[~in_x]
    vx = pg.vx_indices
    if vx.size == pg.graph.n:
        flow = "no-y-nodes"  # X holds every edge
    elif y_ego.size < 2:
        flow = "small-y-ego"  # Y's counts and partial sum are all zero
    else:
        flow = ""
    return EgoContext(a=a_idx, r_star_sorted=nbrs[in_x],
                      x_minus_sorted=vx[vx != a_idx],
                      y_ego_sorted=y_ego, flow=flow)


def _neighbor_array(g: Graph, i: int) -> np.ndarray:
    """i's neighbours as a sorted index array (a view into the CSR)."""
    indptr, indices = g.csr()
    return indices[indptr[i]:indptr[i + 1]]


def _ego_local(g: Graph, a_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """N_a plus a as a sorted index array, and the float 0/1 adjacency
    of the subgraph g induces on it."""
    nbrs = _neighbor_array(g, a_idx)
    pos = int(nbrs.searchsorted(a_idx))
    local = np.concatenate((nbrs[:pos], [a_idx], nbrs[pos:]))
    indptr, indices = g.csr()
    return local, _kernels._block(indptr, indices, local, local, np.float64)


def _pair_sum(adj: np.ndarray, paths: np.ndarray) -> float:
    """Sum of 1 / paths[i, j] over the pairs i < j with adj[i, j] == 0,
    taken in row-major pair order."""
    rows, cols = (adj == 0).nonzero()
    return float(np.add.reduce(1.0 / paths[rows, cols][rows < cols]))


def exact_ebc(g: Graph, a: object) -> float:
    """Exact egocentric betweenness of node a.

    Sum over unordered non-adjacent pairs of a's neighbours of the
    reciprocal number of 2-paths joining them inside the subgraph
    induced on N_a plus a; every such pair has at least the path
    through a itself.
    """
    a_idx = g.index_of(a)
    if g.degree(a_idx) < 2:
        return 0.0
    local, m = _ego_local(g, a_idx)
    others = local != a_idx
    rows = m[others]
    return _pair_sum(rows[:, others], rows @ m[:, others])
