"""Experiment harness: error sweeps, mechanism isolation, timing, degree.

Each experiment family takes an ExperimentConfig and returns a CSV
document (text). Detail rows carry one protocol run each; summary rows
(ego id "SUMMARY") aggregate per (mechanism mask, epsilon) group with
the mean relative error, median elapsed time, and summed skipped-term
diagnostics. Metadata, warnings, and report-only statistics travel as
'#' comment lines so every non-comment row parses back into ResultRow.
With fixed seeds everything except the elapsed-time columns is
byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .graphs import Graph, PartitionedGraph, UnknownNodeError, load_edge_list, partition_nodes
from .graphs import exact_ebc as _exact_ebc
from .protocol import ALL_MECHS, CLAMP_MODES, ProtocolConfig, run_session

_SYNTHETIC_SEED = 0  # graph identity depends only on (n, m)

MASK_TOKENS = {
    "all": ALL_MECHS,
    "mech1": frozenset({"mech1"}),
    "mech2": frozenset({"mech2"}),
    "mech3": frozenset({"mech3"}),
    "none": frozenset(),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def mask_name(mask: frozenset[str]) -> str:
    if mask == ALL_MECHS:
        return "all"
    if not mask:
        return "none"
    return "+".join(sorted(mask))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment family's full parameterization.

    Exactly one of dataset/synthetic picks the graph, and exactly one
    of ego_ids/ego_count picks the egos (stratified selection spreads
    ego_count egos across the X-side degree distribution instead of
    sampling uniformly).
    """

    dataset: str | Path | None = None
    synthetic: tuple[int, int] | None = None
    partition_seed: int = 0
    x_fraction: float = 0.5
    ego_ids: tuple[str, ...] | None = None
    ego_count: int | None = None
    stratified: bool = False
    epsilons: tuple[float, ...] = (0.1, 0.5, 1.0, 1.5, 3.0, 7.0)
    trials: int = 1
    clamp_mode: str = "clamp_nonneg"
    mech_masks: tuple[frozenset[str], ...] = (ALL_MECHS,)
    parallel: int = 0  # 0 = off
    master_seed: int = 0

    def __post_init__(self):
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset/synthetic is required")
        if (self.ego_ids is None) == (self.ego_count is None):
            raise ConfigError("exactly one of ego_ids/ego_count is required")
        if self.ego_count is not None and self.ego_count < 1:
            raise ConfigError("ego_count must be at least 1")
        if self.stratified and self.ego_count is None:
            raise ConfigError("stratified selection needs ego_count")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.epsilons or any(not 0 < e < math.inf for e in self.epsilons):
            raise ConfigError("epsilons must be positive and finite")
        if self.clamp_mode not in CLAMP_MODES:
            raise ConfigError(f"clamp_mode must be one of {CLAMP_MODES}")
        if not self.mech_masks:
            raise ConfigError("at least one mechanism mask is required")
        if self.parallel < 0:
            raise ConfigError("parallel must be 'off' (0) or a worker count")
        if self.master_seed < 0 or self.partition_seed < 0:
            raise ConfigError("seeds must be non-negative")
        if not 0.0 <= self.x_fraction <= 1.0:
            raise ConfigError("x_fraction must be in [0, 1]")
        if self.synthetic is not None:
            n, m = self.synthetic
            if n < 2 or m < 1 or m >= n:
                raise ConfigError("synthetic spec needs 1 <= m < n")

    @property
    def dataset_name(self) -> str:
        if self.dataset is not None:
            return Path(self.dataset).name
        n, m = self.synthetic
        return f"synthetic-ba-n{n}-m{m}"


_FIELDS = ("dataset", "ego_id", "ego_degree", "epsilon", "trial", "mech_mask",
           "true_ebc", "private_ebc", "relative_error", "elapsed_ms", "skipped_terms")

SUMMARY_ID = "SUMMARY"


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; None fields serialize as empty cells.

    relative_error = |private - true| / true when true > 0; egos whose
    true EBC is zero carry an empty relative_error and are excluded
    from averages. Summary rows (ego_id SUMMARY) leave the per-run
    columns empty and reuse relative_error for the group mean,
    elapsed_ms for the group median, and skipped_terms for the total.
    """

    dataset: str
    ego_id: str
    ego_degree: int | None
    epsilon: float
    trial: int | None
    mech_mask: str
    true_ebc: float | None
    private_ebc: float | None
    relative_error: float | None
    elapsed_ms: float | None
    skipped_terms: int | None

    def to_fields(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, f)) for f in _FIELDS]

    @classmethod
    def from_fields(cls, fields: list[str]) -> "ResultRow":
        if len(fields) != len(_FIELDS):
            raise ValueError(f"expected {len(_FIELDS)} columns, got {len(fields)}")
        d, ego, deg, eps, trial, mask, true, priv, rel, ms, skip = fields
        opt = lambda s, typ: None if s == "" else typ(s)
        return cls(dataset=d, ego_id=ego, ego_degree=opt(deg, int),
                   epsilon=float(eps), trial=opt(trial, int), mech_mask=mask,
                   true_ebc=opt(true, float), private_ebc=opt(priv, float),
                   relative_error=opt(rel, float), elapsed_ms=opt(ms, float),
                   skipped_terms=opt(skip, int))

    @property
    def is_summary(self) -> bool:
        return self.ego_id == SUMMARY_ID


def relative_error(true: float, private: float) -> float | None:
    """|private - true| / true, or None when true is not positive."""
    if not true > 0:
        return None
    return abs(private - true) / true


# ---------------------------------------------------------------------------
# Graph and ego preparation
# ---------------------------------------------------------------------------

def load_experiment_graph(config: ExperimentConfig) -> Graph:
    if config.dataset is not None:
        return load_edge_list(config.dataset)
    n, m = config.synthetic
    return Graph(range(n), _ba_edges(n, m, _SYNTHETIC_SEED))


def _ba_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Barabasi-Albert edges on nodes 0..n-1, drawn as networkx's
    barabasi_albert_graph(n, m, seed) draws them, so the edge sets are
    equal: a star on m + 1 nodes, then each new node joins m distinct
    targets picked by random.Random(seed).choice from a list that holds
    every node once per incident edge."""
    if not 1 <= m < n:
        raise ValueError(f"Barabasi-Albert graphs need 1 <= m < n, got m = {m}, n = {n}")
    rng = random.Random(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges += ((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


def prepare_partition(config: ExperimentConfig) -> PartitionedGraph:
    g = load_experiment_graph(config)
    return partition_nodes(g, config.partition_seed, config.x_fraction)


def select_egos(pg: PartitionedGraph, config: ExperimentConfig) -> tuple[list[int], list[str]]:
    """Resolve the configured ego selection to dense X-party indices.

    Returns (indices, warnings); explicit ids that are unknown or not
    in party X are skipped with a warning instead of aborting the run.
    """
    warnings: list[str] = []
    if config.ego_ids is not None:
        out = []
        for label in config.ego_ids:
            try:
                idx = pg.graph.index_of(label)
            except UnknownNodeError:
                warnings.append(f"warning: ego {label!r} unknown; skipped")
                continue
            if not pg.is_x(idx):
                warnings.append(f"warning: ego {label!r} not in party X; skipped")
                continue
            out.append(idx)
        return out, warnings
    vx = pg.vx_indices
    k = config.ego_count
    if k > vx.size:
        raise ConfigError(f"requested {k} egos but party X has {vx.size} nodes")
    if config.stratified:
        order = sorted(vx.tolist(), key=lambda i: (pg.graph.degree(i), i))
        if k == 1:
            picks = [order[len(order) // 2]]
        else:
            picks = [order[round(i * (len(order) - 1) / (k - 1))] for i in range(k)]
        return picks, warnings
    rng = np.random.default_rng(config.master_seed)
    picks = rng.choice(vx, size=k, replace=False)
    return sorted(int(v) for v in picks), warnings


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------

_SHARED: dict = {}

_Task = tuple[int, int, int, int]  # (mask, eps, ego position, trial) indices
_Outcome = tuple[float, float, int, str]  # (private, elapsed_ms, skipped, degenerate)


def _run_single(task: _Task) -> _Outcome:
    """One protocol run, timed around the session alone."""
    mask_idx, eps_idx, ego_pos, trial = task
    pg: PartitionedGraph = _SHARED["pg"]
    cfg: ExperimentConfig = _SHARED["config"]
    ego_idx = _SHARED["egos"][ego_pos]
    label = pg.graph.label_of(ego_idx)
    pconfig = ProtocolConfig(epsilon=cfg.epsilons[eps_idx],
                             clamp_mode=cfg.clamp_mode,
                             mech_mask=cfg.mech_masks[mask_idx])
    seed = np.random.SeedSequence([cfg.master_seed, ego_pos, eps_idx, trial, mask_idx])
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    result = run_session(pg, label, pconfig, rng)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return result.value, elapsed_ms, result.skipped_terms, result.degenerate


def _run_tasks(config: ExperimentConfig, pg: PartitionedGraph,
               egos: list[int]) -> list[tuple[_Task, _Outcome]]:
    """Every task, nested mask > eps > ego > trial, with its outcome."""
    tasks = [(mi, ei, ep, tr)
             for mi in range(len(config.mech_masks))
             for ei in range(len(config.epsilons))
             for ep in range(len(egos))
             for tr in range(config.trials)]
    _SHARED["pg"] = pg
    _SHARED["config"] = config
    _SHARED["egos"] = egos
    try:
        if config.parallel > 0:
            # fork workers inherit the shared state set just above
            with ProcessPoolExecutor(max_workers=config.parallel,
                                     mp_context=get_context("fork")) as pool:
                results = list(pool.map(_run_single, tasks, chunksize=8))
        else:
            results = [_run_single(t) for t in tasks]
    finally:
        _SHARED.clear()
    return list(zip(tasks, results))


def _collect(config: ExperimentConfig) -> tuple[list[ResultRow], list[str], PartitionedGraph]:
    """Run every task, assemble detail + summary rows and comments."""
    pg = prepare_partition(config)
    egos, warnings = select_egos(pg, config)
    if not egos:
        raise ConfigError("no usable ego nodes after selection")
    labels = [pg.graph.label_of(idx) for idx in egos]
    trues = [_exact_ebc(pg.graph, label) for label in labels]

    rows: list[ResultRow] = []
    degenerates: dict[str, str] = {}
    for (mi, ei, ep, tr), (private, elapsed, skipped, degen) in _run_tasks(config, pg, egos):
        if degen:
            degenerates[labels[ep]] = degen
        rows.append(ResultRow(
            dataset=config.dataset_name, ego_id=labels[ep],
            ego_degree=pg.graph.degree(egos[ep]), epsilon=config.epsilons[ei],
            trial=tr, mech_mask=mask_name(config.mech_masks[mi]), true_ebc=trues[ep],
            private_ebc=private, relative_error=relative_error(trues[ep], private),
            elapsed_ms=elapsed, skipped_terms=skipped))

    rows.extend(summarize_rows(rows))
    comments = warnings + [f"degenerate: ego {label!r} path {path}"
                           for label, path in sorted(degenerates.items())]
    return rows, comments, pg


def summarize_rows(detail: list[ResultRow]) -> list[ResultRow]:
    """One SUMMARY row per (mech_mask, epsilon) group, in detail order."""
    groups: dict[tuple[str, float], list[ResultRow]] = {}
    order: list[tuple[str, float]] = []
    for row in detail:
        if row.is_summary:
            continue
        key = (row.mech_mask, row.epsilon)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for mask, eps in order:
        members = groups[(mask, eps)]
        errs = [r.relative_error for r in members if r.relative_error is not None]
        mean_err = math.fsum(errs) / len(errs) if errs else None
        med_ms = statistics.median(r.elapsed_ms for r in members)
        skipped = sum(r.skipped_terms for r in members)
        out.append(ResultRow(dataset=members[0].dataset, ego_id=SUMMARY_ID,
                             ego_degree=None, epsilon=eps, trial=None,
                             mech_mask=mask, true_ebc=None, private_ebc=None,
                             relative_error=mean_err, elapsed_ms=med_ms,
                             skipped_terms=skipped))
    return out


# ---------------------------------------------------------------------------
# CSV emission and parsing
# ---------------------------------------------------------------------------

def _metadata(config: ExperimentConfig, pg: PartitionedGraph, family: str) -> list[str]:
    classes = pg.edge_class_counts()
    if config.ego_ids is not None:
        selection = "explicit:" + ",".join(config.ego_ids)
    elif config.stratified:
        selection = f"degree-stratified:{config.ego_count}"
    else:
        selection = f"random:{config.ego_count}"
    return [
        f"priv-ebc {family} results",
        f"dataset: {config.dataset_name}  nodes: {pg.graph.n}  edges: {pg.graph.edge_count}",
        f"partition-seed: {config.partition_seed}  x-frac: {config.x_fraction}  "
        f"edge-classes: X={classes['X']} Y={classes['Y']} XY={classes['XY']}",
        f"ego-selection: {selection}  master-seed: {config.master_seed}",
        f"epsilons: {','.join(repr(e) for e in config.epsilons)}  trials: {config.trials}",
        f"clamp: {config.clamp_mode}  parallel: {config.parallel if config.parallel else 'off'}",
        f"masks: {','.join(mask_name(m) for m in config.mech_masks)}",
        "note: rows with true_ebc=0 carry empty relative_error and are excluded from averages",
    ]


def render_csv(config: ExperimentConfig, pg: PartitionedGraph,
               rows: list[ResultRow], comments: list[str], family: str) -> str:
    buf = io.StringIO()
    for line in _metadata(config, pg, family) + comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    for row in rows:
        writer.writerow(row.to_fields())
    return buf.getvalue()


def parse_csv(text: str) -> tuple[list[str], list[ResultRow]]:
    """Invert render_csv: ('#' comment bodies, parsed rows)."""
    comments = []
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line.strip():
            data_lines.append(line)
    reader = csv.reader(data_lines)
    header = next(reader)
    if tuple(header) != _FIELDS:
        raise ValueError(f"unexpected header {header}")
    return comments, [ResultRow.from_fields(fields) for fields in reader]


# ---------------------------------------------------------------------------
# Experiment families
# ---------------------------------------------------------------------------

def run_error_sweep(config: ExperimentConfig) -> str:
    """Relative error of the full private protocol across the eps list."""
    config = replace(config, mech_masks=(ALL_MECHS,))
    rows, comments, pg = _collect(config)
    return render_csv(config, pg, rows, comments, "sweep")


def run_mechanism_isolation(config: ExperimentConfig) -> str:
    """Error with noise confined to one mechanism at a time.

    Partial masks are non-private by construction; the mech_mask column
    marks every affected row and the metadata lists them.
    """
    for mask in config.mech_masks:
        if mask_name(mask) not in MASK_TOKENS:
            raise ConfigError(f"isolation masks must be one of {sorted(MASK_TOKENS)}")
    rows, comments, pg = _collect(config)
    partial = [mask_name(m) for m in config.mech_masks if m != ALL_MECHS]
    if partial:
        comments = comments + [f"non-private-masks: {','.join(partial)}"]
    medians = []
    for mask in config.mech_masks:
        errs = sorted(r.relative_error for r in rows
                      if not r.is_summary and r.mech_mask == mask_name(mask)
                      and r.relative_error is not None)
        if errs:
            medians.append(f"{mask_name(mask)}={repr(statistics.median(errs))}")
    if medians:
        comments = comments + ["isolation-medians: " + " ".join(medians)]
    return render_csv(config, pg, rows, comments, "isolate")


def run_timing(config: ExperimentConfig) -> str:
    """Protocol wall-clock per eps; single worker for fair measurement.

    The timer wraps only the protocol session (graph load, partition,
    and the exact-EBC reference are outside it).
    """
    if config.parallel:
        raise ConfigError("timing runs require parallel=off")
    config = replace(config, mech_masks=(ALL_MECHS,))
    rows, comments, pg = _collect(config)
    return render_csv(config, pg, rows, comments, "timing")


def run_degree_sweep(config: ExperimentConfig) -> str:
    """Error vs ego degree at fixed eps, degree-stratified ego choice."""
    if not config.stratified:
        raise ConfigError("degree sweeps require stratified ego selection")
    config = replace(config, mech_masks=(ALL_MECHS,))
    rows, comments, pg = _collect(config)
    detail = [r for r in rows if not r.is_summary and r.relative_error is not None]
    if detail:
        by_degree: dict[int, list[float]] = {}
        for r in detail:
            by_degree.setdefault(r.ego_degree, []).append(r.relative_error)
        global_med = statistics.median(r.relative_error for r in detail)
        max_err = max(r.relative_error for r in detail)
        spread = max(abs(statistics.median(v) - global_med) for v in by_degree.values())
        pct = 100.0 * spread / max_err if max_err > 0 else 0.0
        comments = comments + [
            f"degree-spread: max |bucket median - global median| = {spread!r} "
            f"({pct:.1f}% of max relative error)"]
    return render_csv(config, pg, rows, comments, "degree")
