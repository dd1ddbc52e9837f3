import copy
import math
import struct

import numpy as np
import pytest

from privebc import BackwardMsg, DegenerateEgoError, PrivacyParams, ProtocolConfig, oracle
from privebc import _kernels, dpnum
from privebc.backward import (
    SUM_GRID_BITS,
    _core_blocks,
    _release,
    _reply,
    partial_ebc_y,
    spanning_counts,
)
from privebc.dpnum import geometric_scale
from privebc.forward import ForwardMsg, _membership
from privebc.graphs import _ego_context_idx
from privebc.oracle import _edge_pairs, _has
from privebc.protocol import BudgetLedger, _backward_stage

from .conftest import make_pg, noiseless_cores, random_graph, random_partition

BIG_EPS = PrivacyParams(epsilon=1e9)


def _y_reply(pg, a, R, epsilon, rng):
    """Y's full reply to R through the session's backward stage."""
    view_y = pg.view_y()
    ectx = _ego_context_idx(view_y, pg.graph.index_of(a))
    fwd = ForwardMsg(member=_membership(ectx.x_minus_sorted, np.array(sorted(R), dtype=np.int64)))
    return _backward_stage(view_y, ectx, fwd, ProtocolConfig(epsilon=epsilon), rng, BudgetLedger())


def _pmf(z, scale):
    """The two-sided geometric pmf (1 - q)/(1 + q) q^|z|, q = e^(-1/scale)."""
    q = math.exp(-1.0 / scale)
    return (1.0 - q) / (1.0 + q) * q ** abs(z)


def _std(scale):
    q = math.exp(-1.0 / scale)
    return math.sqrt(2.0 * q) / (1.0 - q)


def _bridge_pg():
    # x1-y1 crosses the cut, y1-y2 sits inside Y
    edges = [("a", "x1"), ("a", "y1"), ("a", "y2"), ("x1", "y1"), ("y1", "y2")]
    return make_pg(edges, x_labels={"a", "x1"})


def test_spanning_counts_single_bridge():
    pg = _bridge_pg()
    g = pg.graph
    x1, y1, y2 = g.index_of("x1"), g.index_of("y1"), g.index_of("y2")
    r = frozenset({x1})
    t = spanning_counts(pg, "a", r, BIG_EPS, np.random.default_rng(0))
    assert t.shape == (1, 2) and y1 < y2  # row x1; columns y1, y2
    # x1-y1-y2 is the only 2-path with a Y-side midpoint
    assert t[0, 1] == pytest.approx(1.0, abs=1e-6)
    assert t[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_spanning_core_matches_reference_counts():
    rng = np.random.default_rng(1)
    for seed in range(20):
        g = random_graph(np.random.default_rng(seed), 10, 0.35)
        pg = random_partition(rng, g)
        for a_idx in pg.vx_indices:
            y_ego = _ego_context_idx(pg, int(a_idx)).y_ego_sorted
            if y_ego.size == 0:
                continue
            xm = sorted(v for v in g.neighbors(int(a_idx)) if pg.is_x(v))
            if not xm:
                continue
            r_sorted = np.array(xm, dtype=np.int64)
            core = noiseless_cores(pg, r_sorted, y_ego)[0]
            mids = [g.label_of(int(v)) for v in y_ego]
            for ri, i in enumerate(r_sorted):
                for ci, j in enumerate(y_ego):
                    want = oracle.two_path_reference(g, mids, g.label_of(int(i)),
                                                     g.label_of(int(j)))
                    assert core[ri, ci] == want


def test_spanning_counts_no_internal_y_edges():
    # without E_Y edges no 2-path can route through Y
    edges = [("a", "x1"), ("a", "y1"), ("a", "y2"), ("x1", "y1"), ("x1", "y2")]
    pg = make_pg(edges, x_labels={"a", "x1"})
    x1 = pg.graph.index_of("x1")
    t = spanning_counts(pg, "a", frozenset({x1}), BIG_EPS, np.random.default_rng(0))
    assert all(v == pytest.approx(0.0, abs=1e-6) for v in t.ravel())


def test_spanning_counts_deterministic_and_empty_r():
    pg = _bridge_pg()
    x1 = pg.graph.index_of("x1")
    params = PrivacyParams(epsilon=1.0)
    t1 = spanning_counts(pg, "a", frozenset({x1}), params, np.random.default_rng(42))
    t2 = spanning_counts(pg, "a", frozenset({x1}), params, np.random.default_rng(42))
    assert t1.tobytes() == t2.tobytes()

    rng = np.random.default_rng(7)
    before = copy.deepcopy(rng.bit_generator.state)
    assert spanning_counts(pg, "a", frozenset(), params, rng).shape == (0, 2)
    assert rng.bit_generator.state == before  # no noise drawn for empty R


def test_core_blocks_match_the_dense_kernels():
    # one gather fills both blocks; each equals its own kernel call, as
    # floats, for R inside X^- (empty included) and any Y-side ego
    rng = np.random.default_rng(29)
    checked = 0
    for seed in range(30):
        g = random_graph(np.random.default_rng(500 + seed), int(rng.integers(3, 26)), 0.35)
        view_y = random_partition(rng, g).view_y()
        indptr, indices = view_y.graph.csr()
        for a in view_y.vx_indices[:3]:
            ectx = _ego_context_idx(view_y, int(a))
            x_minus, y_ego = ectx.x_minus_sorted, ectx.y_ego_sorted
            for r in (x_minus[rng.random(x_minus.size) < 0.5], x_minus[:0]):
                block = _core_blocks(view_y, r, y_ego)
                b, m1 = block[:r.size], block[r.size:]
                assert b.dtype == m1.dtype == np.float64
                assert b.shape == (r.size, y_ego.size) and m1.shape == (y_ego.size,) * 2
                assert np.array_equal(b, _kernels.bipartite_dense(indptr, indices, r, y_ego))
                assert np.array_equal(m1, _kernels.induced_dense(indptr, indices, y_ego))
                checked += r.size > 0 and y_ego.size > 1
    assert checked >= 20


def test_partial_ebc_sole_intermediate_is_ego():
    # y1, y2 share no neighbour but a: one open pair with denominator 1
    pg = make_pg([("a", "y1"), ("a", "y2")], x_labels={"a"})
    got = partial_ebc_y(pg, "a", frozenset(), BIG_EPS, np.random.default_rng(0))
    assert got == pytest.approx(1.0, abs=1e-6)


def test_partial_ebc_clique_is_zero():
    edges = [("a", "y1"), ("a", "y2"), ("a", "y3"),
             ("y1", "y2"), ("y1", "y3"), ("y2", "y3")]
    pg = make_pg(edges, x_labels={"a"})
    got = partial_ebc_y(pg, "a", frozenset(), BIG_EPS, np.random.default_rng(0))
    assert got == pytest.approx(0.0, abs=1e-6)


def test_partial_ebc_counts_r_intermediates():
    # y1-x1-y2 adds a second route beside a: denominator 2
    edges = [("a", "y1"), ("a", "y2"), ("x1", "y1"), ("x1", "y2"), ("a", "x1")]
    pg = make_pg(edges, x_labels={"a", "x1"})
    x1 = pg.graph.index_of("x1")
    with_r = partial_ebc_y(pg, "a", frozenset({x1}), BIG_EPS, np.random.default_rng(0))
    without = partial_ebc_y(pg, "a", frozenset(), BIG_EPS, np.random.default_rng(0))
    assert with_r == pytest.approx(0.5, abs=1e-6)
    assert without == pytest.approx(1.0, abs=1e-6)


def test_partial_sum_core_brute_force():
    rng = np.random.default_rng(2)
    checked = 0
    for seed in range(40):
        g = random_graph(np.random.default_rng(100 + seed), 8, 0.4)
        pg = random_partition(rng, g)
        pairs = _edge_pairs(g)
        for a_idx in pg.vx_indices:
            a_idx = int(a_idx)
            y_ego = _ego_context_idx(pg, a_idx).y_ego_sorted
            if y_ego.size < 2:
                continue
            xm = [v for v in g.neighbors(a_idx) if pg.is_x(v)]
            r_sorted = np.array(sorted(xm), dtype=np.int64)
            got = noiseless_cores(pg, r_sorted, y_ego)[1]
            want = 0.0
            mids = set(int(v) for v in r_sorted) | set(int(v) for v in y_ego)
            for p in range(y_ego.size):
                for q in range(p + 1, y_ego.size):
                    i, j = int(y_ego[p]), int(y_ego[q])
                    if _has(pairs, i, j):
                        continue
                    denom = 1 + sum(1 for k in mids
                                    if _has(pairs, i, k) and _has(pairs, k, j))
                    want += 1.0 / denom
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked >= 30


def test_degenerate_gates():
    lonely = make_pg([("a", "x1"), ("a", "y1"), ("x1", "y1")], x_labels={"a", "x1"})
    none_y = make_pg([("a", "x1")], x_labels={"a", "x1"})
    for pg in (lonely, none_y):
        with pytest.raises(DegenerateEgoError):
            partial_ebc_y(pg, "a", frozenset(), BIG_EPS, np.random.default_rng(0))
        with pytest.raises(DegenerateEgoError):
            _y_reply(pg, "a", frozenset(), BIG_EPS.epsilon, np.random.default_rng(0))


def test_backward_message_key_set_and_high_budget(mixed_pg):
    g = mixed_pg.graph
    a_idx = g.index_of("a")
    y_ego = _ego_context_idx(mixed_pg, a_idx).y_ego_sorted
    xm = frozenset(v for v in g.neighbors(a_idx) if mixed_pg.is_x(v))
    msg = _y_reply(mixed_pg, "a", xm, BIG_EPS.epsilon, np.random.default_rng(3))
    assert isinstance(msg, BackwardMsg)
    assert msg.T.shape == (len(xm), y_ego.size)
    r_sorted = np.array(sorted(xm), dtype=np.int64)
    core, want_s = noiseless_cores(mixed_pg, r_sorted, y_ego)
    for ri, i in enumerate(r_sorted):
        for ci, j in enumerate(y_ego):
            assert msg.T[ri, ci] == pytest.approx(core[ri, ci], abs=1e-6)
    assert msg.S_Y == pytest.approx(want_s, abs=1e-6)


def test_noise_scale_of_count_vector():
    # |R|=2 at eps=1: scale 2*(2*2)/1 = 8, std sqrt(2q)/(1-q) at q = e^(-1/8)
    edges = [("a", "x1"), ("a", "x2"), ("a", "y1"), ("a", "y2")]
    pg = make_pg(edges, x_labels={"a", "x1", "x2"})
    g = pg.graph
    r = frozenset({g.index_of("x1"), g.index_of("x2")})
    params = PrivacyParams(epsilon=1.0)
    rng = np.random.default_rng(4)
    samples = []
    for _ in range(2500):
        t = spanning_counts(pg, "a", r, params, rng)
        samples.extend(t.ravel())  # cores are all zero here
    arr = np.array(samples)
    assert arr.size == 10_000 and arr.dtype == np.int64
    assert abs(arr.mean()) < 0.5
    assert arr.std() == pytest.approx(_std(8.0), rel=0.05)


def test_noise_scale_of_partial_sum():
    # d_Y=3 at eps=1: 2^-20 grid units at scale 2*(2*2^20 + 1)/1, about 4
    # in value units
    edges = [("a", "y1"), ("a", "y2"), ("a", "y3")]
    pg = make_pg(edges, x_labels={"a"})
    params = PrivacyParams(epsilon=1.0)
    rng = np.random.default_rng(5)
    draws = np.array([partial_ebc_y(pg, "a", frozenset(), params, rng)
                      for _ in range(10_000)])
    grid = draws * 2.0**SUM_GRID_BITS
    assert np.array_equal(grid, np.round(grid))  # every release on the grid
    assert draws.mean() == pytest.approx(3.0, abs=0.3)  # core: three 1/1 pairs
    scale = 2.0 * (2 * 2**SUM_GRID_BITS + 1)
    assert draws.std() == pytest.approx(_std(scale) * 2.0**-SUM_GRID_BITS, rel=0.05)


def _toggle_y_edge(edges, u, v):
    e = tuple(sorted((u, v)))
    pool = [tuple(sorted(p)) for p in edges]
    if e in pool:
        pool.remove(e)
    else:
        pool.append(e)
    return pool


def test_count_sensitivity_bound_over_y_edges():
    # flipping one Y-internal edge moves the cores by at most the stated
    # sensitivities: 2|R| for the count vector, d_Y - 1 for the partial sum
    rng = np.random.default_rng(6)
    from privebc import Graph, PartitionedGraph

    checked = 0
    for seed in range(25):
        g = random_graph(np.random.default_rng(200 + seed), 9, 0.35)
        pg = random_partition(rng, g)
        mask = np.array([pg.is_x(i) for i in range(g.n)])
        labelled = [(g.label_of(i), g.label_of(j)) for i, j in g.edges_iter()]
        ys = np.flatnonzero(~mask).tolist()
        for a_idx in (int(v) for v in pg.vx_indices):
            y_ego = _ego_context_idx(pg, a_idx).y_ego_sorted
            xm = sorted(v for v in g.neighbors(a_idx) if pg.is_x(v))
            if y_ego.size < 2 or not xm:
                continue
            r_sorted = np.array(xm, dtype=np.int64)
            for u, v in [(ys[p], ys[q]) for p in range(len(ys))
                         for q in range(p + 1, len(ys))][:4]:
                flipped = _toggle_y_edge(labelled, g.label_of(u), g.label_of(v))
                pg2 = PartitionedGraph(Graph(g.labels, flipped), mask)
                assert np.array_equal(_ego_context_idx(pg2, a_idx).y_ego_sorted, y_ego)
                c1, s1 = noiseless_cores(pg, r_sorted, y_ego)
                c2, s2 = noiseless_cores(pg2, r_sorted, y_ego)
                assert np.abs(c1 - c2).sum() <= 2 * len(xm) + 1e-9
                assert abs(s1 - s2) <= (y_ego.size - 1) + 1e-9
                checked += 1
    assert checked >= 40


def test_density_ratio_bounded_by_budget():
    # log-likelihood ratio of one release under two neighbouring Y graphs
    edges = [("a", "x1"), ("a", "y1"), ("a", "y2"), ("a", "y3"),
             ("x1", "y1"), ("y1", "y2"), ("y2", "y3")]
    x_labels = {"a", "x1"}
    pg1 = make_pg(edges, x_labels)
    pg2 = make_pg(_toggle_y_edge(edges, "y1", "y3"), x_labels)
    g = pg1.graph
    a_idx = g.index_of("a")
    r = frozenset({g.index_of("x1")})
    r_sorted = np.array(sorted(r), dtype=np.int64)
    y_ego = _ego_context_idx(pg1, a_idx).y_ego_sorted
    assert np.array_equal(y_ego, _ego_context_idx(pg2, a_idx).y_ego_sorted)

    eps = 1.3
    scale_t = geometric_scale(4 * len(r), eps)
    scale_s = geometric_scale(2 * ((y_ego.size - 1) * 2**SUM_GRID_BITS + 1), eps)
    c1, s1 = noiseless_cores(pg1, r_sorted, y_ego)
    c2, s2 = noiseless_cores(pg2, r_sorted, y_ego)
    c1, c2 = c1.ravel(), c2.ravel()
    g1 = round(s1 * 2**SUM_GRID_BITS)
    g2 = round(s2 * 2**SUM_GRID_BITS)

    rng = np.random.default_rng(8)
    for _ in range(200):
        msg = _y_reply(pg1, "a", r, eps, rng)
        t = msg.T.ravel()
        grid = round(msg.S_Y * 2**SUM_GRID_BITS)
        assert grid == msg.S_Y * 2**SUM_GRID_BITS
        # log pmf ratios of the release under the two graphs
        ratio_t = sum(math.log(_pmf(v - a, scale_t) / _pmf(v - b, scale_t))
                      for v, a, b in zip(t.tolist(), c1.tolist(), c2.tolist()))
        ratio_s = math.log(_pmf(grid - g1, scale_s) / _pmf(grid - g2, scale_s))
        assert ratio_t <= eps / 2 + 1e-9
        assert ratio_s <= eps / 2 + 1e-9
        assert ratio_t + ratio_s <= eps + 1e-9


def test_noiseless_flags_bypass_sampling():
    pg = _bridge_pg()
    g = pg.graph
    a_idx = g.index_of("a")
    y_ego = _ego_context_idx(pg, a_idx).y_ego_sorted
    r = frozenset({g.index_of("x1")})
    params = PrivacyParams(epsilon=0.1)
    rng = np.random.default_rng(9)
    before = copy.deepcopy(rng.bit_generator.state)
    r_sorted = np.array(sorted(r), dtype=np.int64)
    core, s_core = noiseless_cores(pg, r_sorted, y_ego)
    # flags off is the noiseless route: the generator is never read
    msg = _release(core, s_core, params.epsilon, rng, False, False)
    assert rng.bit_generator.state == before
    assert msg.T[0, 0] == core[0, 0] and msg.T.dtype == np.int64
    assert msg.S_Y == s_core


# ------------------------------------------- the reply against its reference

def _reference_core_blocks(view_y, r_sorted, y_ego):
    """The reply's block as it was first written: y_ego's neighbour lists
    gathered, then located in R and in y_ego by two separate lookups."""
    indptr, indices = view_y.graph.csr()
    out = np.zeros((r_sorted.size + y_ego.size, y_ego.size))
    starts, ends = indptr[y_ego], indptr[y_ego + 1]
    owner = np.repeat(np.arange(y_ego.size), ends - starts)
    neigh = np.concatenate([indices[s:e] for s, e in zip(starts, ends)] + [indices[:0]])
    for first, rows in ((0, r_sorted), (r_sorted.size, y_ego)):
        pos = np.searchsorted(rows, neigh)
        hit = np.zeros(neigh.size, dtype=bool)
        inside = pos < rows.size
        hit[inside] = rows[pos[inside]] == neigh[inside]
        out[first + pos[hit], owner[hit]] = 1.0
    return out


def _reference_geometric(scale, rng):
    """The two-sided geometric sampler as it was first written: one
    scale per entry, expanded to one per uniform."""
    u = rng.random(2 * scale.size)
    z = np.empty(scale.size, dtype=np.int64)
    words = None
    for start in range(0, u.size, dpnum._SLICE):
        cells = u[start:start + dpnum._SLICE]
        first = start // 2
        zs = z[first:first + cells.size // 2]
        c = np.empty(cells.size)
        np.multiply(scale[first:first + zs.size], -(1.0 - dpnum._WIDEN), out=c[0::2])
        c[1::2] = c[0::2]
        lo = cells + dpnum._CELL
        np.log(lo, out=lo)
        lo *= c
        c *= dpnum._CELL
        with np.errstate(divide="ignore"):
            np.divide(c, cells, out=c)
        hi = np.subtract(lo, c, out=c)
        hi *= dpnum._GROW
        np.floor(lo, out=lo)
        np.floor(hi, out=hi)
        np.subtract(lo[0::2], lo[1::2], out=zs, casting="unsafe")
        open_cells = lo != hi
        if open_cells.any():
            if words is None:
                words = iter(rng.bit_generator.random_raw, None)
            for i in np.unique(np.flatnonzero(open_cells) // 2).tolist():
                g1, g2 = (dpnum.resolve_cell(float(scale[first + i]), int(cells[k] * 2.0**53),
                                             words)
                          if open_cells[k] else int(lo[k]) for k in (2 * i, 2 * i + 1))
                zs[i] = g1 - g2
    return z


def _reference_reply(view_y, y_ego, r_sorted, epsilon, rng, noisy_t, noisy_s):
    """Y's reply from the reference block, its two products and a
    per-entry scale array."""
    block = _reference_core_blocks(view_y, r_sorted, y_ego)
    b, m1 = block[:r_sorted.size], block[r_sorted.size:]
    paths = 1.0 + block.T @ block
    rows, cols = np.nonzero(m1 == 0)
    upper = rows < cols
    s_y = float((1.0 / paths[rows[upper], cols[upper]]).sum())
    t = (b @ m1).astype(np.int64)
    n_t = t.size if noisy_t else 0
    scale = np.empty(n_t + noisy_s)
    if n_t:
        scale[:n_t] = geometric_scale(4 * t.shape[0], epsilon)
    if noisy_s:
        scale[-1] = geometric_scale(2 * (((y_ego.size - 1) << SUM_GRID_BITS) + 1), epsilon)
    if scale.size:
        z = _reference_geometric(scale, rng)
        if n_t:
            t += z[:n_t].reshape(t.shape)
        if noisy_s:
            s_y = (round(s_y * 2.0**SUM_GRID_BITS) + int(z[-1])) * 2.0**-SUM_GRID_BITS
    return t, s_y


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _generator(seed, zero_at):
    """A PCG64 generator, whose uniform number zero_at (if not None) is
    exactly 0.0, so that its cell is resolved from further words."""
    rng = np.random.default_rng(seed)
    if zero_at is not None:
        st = rng.bit_generator.state
        state = 0
        for _ in range(zero_at + 1):
            state = (state - st["state"]["inc"]) * pow(_PCG64_MULT, -1, 2**128) % 2**128
        st["state"]["state"] = state
        rng.bit_generator.state = st
    return rng


def test_reply_matches_its_reference_bit_for_bit():
    # T, S_Y and the generator's end state equal the reference's for R =
    # R*, parts of R*, sets reaching outside R* and the empty set, at a
    # low and a high budget, with each noise flag on and off, and with
    # a uniform of 0.0 among the draws
    rng = np.random.default_rng(41)
    seen = set()
    for seed in range(40):
        g = random_graph(np.random.default_rng(900 + seed), int(rng.integers(4, 31)),
                         float(rng.uniform(0.1, 0.5)))
        pg = random_partition(rng, g)
        view_y = pg.view_y()
        for a in pg.vx_indices[:3].tolist():
            ectx_x = _ego_context_idx(pg.view_x(), a)
            y_ego = _ego_context_idx(view_y, a).y_ego_sorted
            if y_ego.size < 2:
                continue
            x_minus, r_star = ectx_x.x_minus_sorted, ectx_x.r_star_sorted
            outside = np.setdiff1d(x_minus, r_star)
            picks = {"R*": r_star, "part of R*": r_star[rng.random(r_star.size) < 0.5],
                     "outside R*": np.union1d(r_star[rng.random(r_star.size) < 0.5],
                                              outside[rng.random(outside.size) < 0.5]),
                     "empty": x_minus[:0]}
            for kind, r in picks.items():
                for eps in (0.1, 7.0):
                    for noisy_t in (False, True):
                        for noisy_s in (False, True):
                            draws = 2 * ((r.size * y_ego.size if noisy_t else 0) + noisy_s)
                            zero_at = int(rng.integers(draws)) if draws and seed % 4 == 0 else None
                            mine, ref = _generator(seed, zero_at), _generator(seed, zero_at)
                            got = _reply(view_y, y_ego, r, eps, mine, noisy_t, noisy_s)
                            want_t, want_s = _reference_reply(view_y, y_ego, r, eps, ref,
                                                              noisy_t, noisy_s)
                            assert got.T.dtype == want_t.dtype == np.int64
                            assert got.T.shape == want_t.shape
                            assert got.T.tolist() == want_t.tolist()
                            assert struct.pack(">d", got.S_Y) == struct.pack(">d", want_s)
                            assert mine.bit_generator.state == ref.bit_generator.state
                            seen.add((kind, r.size > 0, zero_at is not None))
    assert {k for k, _, _ in seen} == {"R*", "part of R*", "outside R*", "empty"}
    assert (True, True) in {(nonempty, zero) for _, nonempty, zero in seen}
