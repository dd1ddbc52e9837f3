"""Acceptance suite: one test per release criterion, at stated tolerance.

Each test prints a CRITERION line with its measurements; `pytest -v`
gives the one-line pass/fail verdict per criterion. Tolerances and
instance sizes are asserted exactly as stated, with no slack added or
removed; a criterion that cannot be met by a correct implementation is
left to fail honestly with its measurements printed.
"""

import math
import os
import statistics
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from privebc import (
    Graph,
    PartitionedGraph,
    PrivacyParams,
    ProtocolConfig,
    exact_ebc,
    ego_context,
    forward_message,
    nonprivate_ebc_protocol,
    private_ebc,
    run_session,
    stratum_distribution,
)
from privebc import oracle
from privebc.backward import SUM_GRID_BITS, _partial_sum_core, _spanning_core_matrix
from privebc.dpnum import geometric_scale
from privebc.experiments import ExperimentConfig, load_experiment_graph, parse_csv, run_error_sweep
from privebc.graphs import _ego_context_idx, partition_nodes

from .conftest import random_graph, random_partition


def _x_star(n_x_minus: int, r_star_size: int) -> tuple[PartitionedGraph, list[int], list[int]]:
    """Graph whose party X is ego 'a' plus n_x_minus nodes, r_star_size
    of them adjacent to a; one Y node keeps the partition two-sided."""
    labels = ["a"] + [f"u{i:02d}" for i in range(n_x_minus)] + ["y0"]
    edges = [("a", f"u{i:02d}") for i in range(r_star_size)] + [("a", "y0")]
    g = Graph(labels, edges)
    mask = np.array([lab != "y0" for lab in g.labels])
    pg = PartitionedGraph(g, mask)
    xm = [g.index_of(f"u{i:02d}") for i in range(n_x_minus)]
    rs = [g.index_of(f"u{i:02d}") for i in range(r_star_size)]
    return pg, sorted(xm), sorted(rs)


# ---------------------------------------------------------------------------
# 1. protocol decomposition is exact
# ---------------------------------------------------------------------------

def test_criterion_1_decomposition_exact():
    import networkx as nx

    t0 = time.perf_counter()
    worst = 0.0
    cases = 0

    for g_nx in nx.graph_atlas_g()[1:]:
        n = g_nx.number_of_nodes()
        labels = [str(v) for v in range(n)]
        g = Graph(labels, [(str(u), str(v)) for u, v in g_nx.edges()])
        truth = [exact_ebc(g, lab) for lab in labels]
        for bits in range(1 << n):
            mask = np.array([(bits >> i) & 1 == 1 for i in range(n)])
            if not mask.any():
                continue
            pg = PartitionedGraph(g, mask)
            for i in range(n):
                if not mask[i]:
                    continue
                got = nonprivate_ebc_protocol(pg, labels[i])
                worst = max(worst, abs(got - truth[i]))
                cases += 1

    rng = np.random.default_rng(2024)
    for seed in range(100):
        g = random_graph(np.random.default_rng(9000 + seed), 50,
                         float(rng.uniform(0.05, 0.3)))
        pg = random_partition(rng, g)
        for a_idx in pg.vx_indices[:3]:
            a = g.label_of(int(a_idx))
            worst = max(worst, abs(nonprivate_ebc_protocol(pg, a) - exact_ebc(g, a)))
            cases += 1

    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 1: {cases} cases, worst |diff| = {worst:.3e}, "
          f"{elapsed:.1f}s {'PASS' if worst <= 1e-9 and elapsed < 120 else 'FAIL'}")
    assert worst <= 1e-9
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. forward sampler matches its exhaustive law
# ---------------------------------------------------------------------------

def test_criterion_2_sampler_distribution():
    t0 = time.perf_counter()
    draws = 100_000
    report: list[tuple[int, float, float, float]] = []
    pointwise_ok = True

    for n, r_size, seed in ((6, 2, 2), (10, 3, 4)):
        pg, xm, rs = _x_star(n, r_size)
        ectx = ego_context(pg, "a")
        assert ectx.x_minus_sorted.size == n and set(ectx.R_star) == set(rs)
        for eps in (0.5, 1.0, 3.0):
            law = oracle.enumerate_exp_pmf(xm, rs, eps)

            # analytic two-stage law vs exhaustive, pointwise
            pmf = stratum_distribution(n, PrivacyParams(epsilon=eps)).pmf_floats()
            for s, m in zip(law.support, law.mass):
                q = oracle.quality(s, rs, xm)
                analytic = pmf[q] / math.comb(n, q)
                if not math.isclose(analytic, m, rel_tol=1e-9, abs_tol=1e-30):
                    pointwise_ok = False

            rng = np.random.default_rng(seed)
            params = PrivacyParams(epsilon=eps)
            counts: Counter = Counter()
            for _ in range(draws):
                counts[forward_message(pg, "a", params, rng=rng).R] += 1
            empirical = {s: counts.get(s, 0) / draws for s in law.support}
            tv = oracle.tv_distance(empirical, law)
            # expected TV of a perfect sampler at this sample size
            floor = 0.5 * math.fsum(math.sqrt(2 * p * (1 - p) / (math.pi * draws))
                                    for p in law.mass)
            report.append((n, eps, tv, floor))

    elapsed = time.perf_counter() - t0
    ok = all(tv < 0.01 for _, _, tv, _ in report) and pointwise_ok and elapsed < 300
    print(f"\nCRITERION 2: pointwise law {'ok' if pointwise_ok else 'BROKEN'}, "
          f"{elapsed:.1f}s {'PASS' if ok else 'FAIL'}")
    for n, eps, tv, floor in report:
        print(f"  |X^-|={n:2d} eps={eps:<3} TV={tv:.4f} "
              f"(sampling-noise floor of a perfect sampler at 1e5 draws ~ {floor:.4f})")
    if not ok:
        print("  note: over the 2^10 = 1024 subsets at |X^-| = 10 the estimator's"
              " own noise floor exceeds the 0.01 bound, so the bound is not"
              " attainable at this sample size by any sampler; the pointwise"
              " 1e-9 law check above is the exactness evidence.")
    assert pointwise_ok
    assert elapsed < 300
    for n, eps, tv, _ in report:
        assert tv < 0.01, f"TV {tv:.4f} at |X^-|={n} eps={eps} (bound 0.01)"


# ---------------------------------------------------------------------------
# 3. stratum identities
# ---------------------------------------------------------------------------

def test_criterion_3_stratum_identities():
    from scipy import stats

    t0 = time.perf_counter()
    # |Q_i| = C(n, i) exhaustively for all n <= 15
    for n in range(16):
        elems = list(range(n))
        rs = elems[: n // 3]
        for i in range(n + 1):
            assert len(oracle.enumerate_stratum(elems, rs, i)) == math.comb(n, i)

    # the stratum pmf equals the Binomial(n, sigma) pmf within 1e-9
    worst_pmf = 0.0
    for n in range(16):
        for eps in (0.1, 1.0, 5.0):
            d = stratum_distribution(n, PrivacyParams(epsilon=eps))
            sigma = 1.0 / (1.0 + math.exp(-eps / 2.0))
            want = stats.binom.pmf(np.arange(n + 1), n, sigma)
            worst_pmf = max(worst_pmf, float(np.max(np.abs(d.pmf_floats() - want))))
    assert worst_pmf <= 1e-9

    # normalizing constant by three routes within 1e-9 relative
    import mpmath

    worst_c = mpmath.mpf(0)
    with mpmath.workprec(200):
        for n in range(16):
            for t in (0.05, 0.5, 2.5):
                direct, stratum, closed = oracle.normalizer_routes(n, t)
                worst_c = max(worst_c,
                              abs(direct - stratum) / closed,
                              abs(direct - closed) / closed)
        assert worst_c <= mpmath.mpf("1e-9")
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 3: strata sizes exact for n<=15, pmf vs binomial "
          f"<= {worst_pmf:.1e}, normalizer routes <= {float(worst_c):.1e}, "
          f"{elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# 4. sensitivity bounds as executable sweeps
# ---------------------------------------------------------------------------

def _edge_subsets(pairs):
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]


def _sweep_flips(x_labels, y_labels):
    """All graphs on the given node split; every Y-internal single-edge
    flip. Yields (R, Y-side ego, cores before, cores after) per flip,
    where cores are the noiseless count matrix and partial sum (None
    when Y's side of the ego network has fewer than two nodes)."""
    labels = x_labels + y_labels
    all_pairs = [(labels[i], labels[j]) for i in range(len(labels))
                 for j in range(i + 1, len(labels))]
    y_pairs = [(u, v) for u, v in all_pairs if u in y_labels and v in y_labels]
    mask = np.array([lab in set(x_labels) for lab in sorted(labels)])
    r_labels = [lab for lab in x_labels if lab != "a"]
    for edges in _edge_subsets(all_pairs):
        pg = PartitionedGraph(Graph(labels, edges), mask)
        g = pg.graph
        a_idx = g.index_of("a")
        y_ego = _ego_context_idx(pg, a_idx).y_ego_sorted
        r_sorted = np.array(sorted(g.index_of(r) for r in r_labels), dtype=np.int64)
        c1 = _spanning_core_matrix(pg, r_sorted, y_ego)
        s1 = _partial_sum_core(pg, r_sorted, y_ego) if y_ego.size >= 2 else None
        edge_set = {tuple(sorted(e)) for e in edges}
        for yp in y_pairs:
            flipped = list(edge_set ^ {tuple(sorted(yp))})
            pg2 = PartitionedGraph(Graph(labels, flipped), mask)
            assert np.array_equal(_ego_context_idx(pg2, a_idx).y_ego_sorted, y_ego)
            c2 = _spanning_core_matrix(pg2, r_sorted, y_ego)
            s2 = _partial_sum_core(pg2, r_sorted, y_ego) if s1 is not None else None
            yield r_sorted, y_ego, (c1, s1), (c2, s2)


def _sensitivity_sweep(x_labels, y_labels):
    """Over _sweep_flips, the worst observed count-vector L1 and
    partial-sum changes normalized by their stated bounds."""
    worst_t = 0.0
    worst_s = 0.0
    checked = 0
    for r_sorted, y_ego, (c1, s1), (c2, s2) in _sweep_flips(x_labels, y_labels):
        if r_sorted.size:
            worst_t = max(worst_t,
                          float(np.abs(c1 - c2).sum()) / (2.0 * r_sorted.size))
        if s1 is not None:
            worst_s = max(worst_s, abs(s1 - s2) / (y_ego.size - 1))
        checked += 1
    return worst_t, worst_s, checked


def test_criterion_4_sensitivity_sweeps():
    t0 = time.perf_counter()

    # quality sensitivity: toggling one element of R* moves q by <= 1,
    # exhaustively over all (R, R*, toggle) for |X^-| <= 5
    worst_q = 0
    for n in range(1, 6):
        xm = frozenset(range(n))
        subsets = [frozenset(s) for s in _edge_subsets(list(range(n)))]
        for rs in subsets:
            for x in range(n):
                rs2 = rs ^ {x}
                for r in subsets:
                    dq = abs(oracle.quality(r, rs, xm) - oracle.quality(r, rs2, xm))
                    worst_q = max(worst_q, dq)
    assert worst_q <= 1

    # flipping an edge at the ego toggles exactly one element of R*
    pg, xm, rs = _x_star(4, 2)
    g = pg.graph
    base = set(ego_context(pg, "a").R_star)
    added = [(g.label_of(i), g.label_of(j)) for i, j in g.edges_iter()]
    added.append(("a", "u03"))
    pg2 = PartitionedGraph(Graph(g.labels, added), np.array([lab != "y0" for lab in g.labels]))
    assert set(ego_context(pg2, "a").R_star) ^ base == {g.index_of("u03")}

    # count-vector and partial-sum bounds over exhaustive edge subsets
    t1, s1_, n1 = _sensitivity_sweep(["a", "x1", "x2"], ["y1", "y2"])
    t2, s2_, n2 = _sensitivity_sweep(["a", "x1"], ["y1", "y2", "y3"])

    # wider random family at six nodes per side, all Y-internal flips
    rng = np.random.default_rng(14)
    x_labels = ["a", "x1", "x2", "x3", "x4", "x5"]
    y_labels = ["y1", "y2", "y3", "y4", "y5", "y6"]
    labels = x_labels + y_labels
    mask = np.array([lab in set(x_labels) for lab in sorted(labels)])
    all_pairs = [(labels[i], labels[j]) for i in range(12) for j in range(i + 1, 12)]
    y_pairs = [(u, v) for u, v in all_pairs if u in y_labels and v in y_labels]
    worst_t3 = worst_s3 = 0.0
    n3 = 0
    for _ in range(250):
        edges = [p for p in all_pairs if rng.random() < 0.5]
        pg = PartitionedGraph(Graph(labels, edges), mask)
        g = pg.graph
        a_idx = g.index_of("a")
        y_ego = _ego_context_idx(pg, a_idx).y_ego_sorted
        r_sorted = np.array(sorted(g.index_of(x) for x in x_labels[1:]), dtype=np.int64)
        c1 = _spanning_core_matrix(pg, r_sorted, y_ego)
        s1 = _partial_sum_core(pg, r_sorted, y_ego) if y_ego.size >= 2 else None
        edge_set = {tuple(sorted(e)) for e in edges}
        for yp in y_pairs:
            flipped = list(edge_set ^ {tuple(sorted(yp))})
            pg2 = PartitionedGraph(Graph(labels, flipped), mask)
            c2 = _spanning_core_matrix(pg2, r_sorted, y_ego)
            worst_t3 = max(worst_t3, float(np.abs(c1 - c2).sum()) / (2.0 * r_sorted.size))
            if s1 is not None:
                s2 = _partial_sum_core(pg2, r_sorted, y_ego)
                worst_s3 = max(worst_s3, abs(s1 - s2) / (y_ego.size - 1))
            n3 += 1

    elapsed = time.perf_counter() - t0
    worst_t = max(t1, t2, worst_t3)
    worst_s = max(s1_, s2_, worst_s3)
    ok = worst_q <= 1 and worst_t <= 1 + 1e-12 and worst_s <= 1 + 1e-12
    print(f"\nCRITERION 4: |dq| max {worst_q}; count-vector L1 / (2|R|) max "
          f"{worst_t:.3f}; partial-sum / (d_Y - 1) max {worst_s:.3f} over "
          f"{n1 + n2 + n3} flips, {elapsed:.1f}s {'PASS' if ok else 'FAIL'}")
    assert worst_t <= 1 + 1e-12
    assert worst_s <= 1 + 1e-12


# ---------------------------------------------------------------------------
# 5. exponential-mechanism ratio bound
# ---------------------------------------------------------------------------

def test_criterion_5_dp_ratio():
    t0 = time.perf_counter()
    worst_ratio_margin = -math.inf
    for eps in (0.5, 1.0):
        bound = math.exp(eps) + 1e-9
        for n in range(1, 7):
            elems = list(range(n))
            laws = {}
            for bits in range(1 << n):
                rs = frozenset(i for i in range(n) if (bits >> i) & 1)
                laws[rs] = oracle.enumerate_exp_pmf(elems, rs, eps)
            for rs, law in laws.items():
                p = law.as_dict()
                for x in range(n):
                    q = laws[rs ^ {x}].as_dict()
                    ratio = max(p[s] / q[s] for s in p)
                    worst_ratio_margin = max(worst_ratio_margin, ratio - bound)
                    assert ratio <= bound, (n, eps, sorted(rs), x, ratio)
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 5: worst ratio - (e^eps + 1e-9) = {worst_ratio_margin:.3e} "
          f"(<= 0), {elapsed:.1f}s PASS")


def _log_geometric_pmf(z, scale):
    """log of the two-sided geometric pmf (1 - q)/(1 + q) q^|z|."""
    log_q = -1.0 / scale
    return math.log(-math.expm1(log_q)) - math.log1p(math.exp(log_q)) + abs(z) * log_q


def test_criterion_5_geometric_noise_ratio():
    # Y's two releases over criterion 4's exhaustive sweeps, with the
    # analytic pmf of the noise the session draws: the count matrix at
    # scale 4|R|/eps and S_Y's 2^-20 grid count at scale
    # 2((d_Y - 1) 2^20 + 1)/eps. Entries are independent and the pmf is
    # log-linear in |z|, so each entry's ratio peaks wherever the release
    # sits at or beyond the first graph's count: t = c1 attains the worst
    # ratio over all releases.
    t0 = time.perf_counter()
    worst_margin = -math.inf
    flips = 0
    for eps in (0.5, 1.0):
        bound = math.exp(eps / 2) + 1e-9
        for x_labels, y_labels in ((["a", "x1", "x2"], ["y1", "y2"]),
                                   (["a", "x1"], ["y1", "y2", "y3"])):
            for r_sorted, y_ego, (c1, s1), (c2, s2) in _sweep_flips(x_labels, y_labels):
                flips += 1
                releases = []
                if r_sorted.size:
                    scale = geometric_scale(4 * r_sorted.size, eps)
                    for a, b in ((c1, c2), (c2, c1)):
                        releases.append(sum(
                            _log_geometric_pmf(0, scale) - _log_geometric_pmf(u - v, scale)
                            for u, v in zip(a.ravel().tolist(), b.ravel().tolist())))
                if s1 is not None:
                    scale = geometric_scale(2 * ((y_ego.size - 1) * 2**SUM_GRID_BITS + 1), eps)
                    g1 = round(s1 * 2**SUM_GRID_BITS)
                    g2 = round(s2 * 2**SUM_GRID_BITS)
                    releases.append(_log_geometric_pmf(0, scale)
                                    - _log_geometric_pmf(g1 - g2, scale))
                for log_ratio in releases:
                    worst_margin = max(worst_margin, math.exp(log_ratio) - bound)
                    assert math.exp(log_ratio) <= bound, (eps, r_sorted, y_ego, log_ratio)
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 5 (geometric): {flips} flips, worst ratio - (e^(eps/2) + 1e-9) = "
          f"{worst_margin:.3e} (<= 0), {elapsed:.1f}s PASS")


# ---------------------------------------------------------------------------
# 6. noiseless limit
# ---------------------------------------------------------------------------

def test_criterion_6_noiseless_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(15)
    cfg = ProtocolConfig(epsilon=1e9)
    worst = 0.0
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        g = random_graph(np.random.default_rng(5000 + seed), 30, 0.25)
        pg = random_partition(rng, g)
        if pg.vx_indices.size == 0:
            continue
        a = g.label_of(int(rng.choice(pg.vx_indices)))
        got = private_ebc(pg, a, cfg, np.random.default_rng(seed))
        worst = max(worst, abs(got - exact_ebc(g, a)))
        done += 1
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 6: 50 instances at eps=1e9, worst |diff| = {worst:.3e}, "
          f"{elapsed:.1f}s {'PASS' if worst <= 1e-3 else 'FAIL'}")
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# 7. linear-time, linear-memory shape
# ---------------------------------------------------------------------------

def _timed_forward(sizes: tuple[int, ...], reps: int) -> list[tuple[float, int]]:
    """(median ms, peak bytes) of the forward release at each size. Both
    sizes are warmed first and their reps then alternate, so a slow
    phase of the host lands on both sizes alike."""
    params = PrivacyParams(epsilon=1.0)
    rng = np.random.default_rng(16)
    graphs = [_x_star(n, n)[0] for n in sizes]
    for pg in graphs:
        forward_message(pg, "a", params, rng=rng)  # warm caches
    times: list[list[float]] = [[] for _ in sizes]
    for _ in range(reps):
        for pg, ts in zip(graphs, times):
            t0 = time.perf_counter()
            forward_message(pg, "a", params, rng=rng)
            ts.append(time.perf_counter() - t0)
    out = []
    for pg, ts in zip(graphs, times):
        tracemalloc.start()
        forward_message(pg, "a", params, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out.append((statistics.median(ts) * 1e3, peak))
    return out


def test_criterion_7_complexity_shape():
    t0 = time.perf_counter()
    (med_small, peak_small), (med_big, peak_big) = _timed_forward((10_000, 20_000), 15)
    ratio = med_big / med_small

    # the exponential-size oracle must stay out of production paths
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from privebc import Graph, PartitionedGraph, PrivacyParams, forward_message
        from privebc import ProtocolConfig, run_session
        labels = ["a"] + [f"u{i:04d}" for i in range(3000)] + ["y0", "y1"]
        edges = [("a", f"u{i:04d}") for i in range(1500)] + [("a", "y0"), ("a", "y1")]
        g = Graph(labels, edges)
        mask = np.array([not lab.startswith("y") for lab in g.labels])
        pg = PartitionedGraph(g, mask)
        forward_message(pg, "a", PrivacyParams(epsilon=1.0), rng=np.random.default_rng(0))
        run_session(pg, "a", ProtocolConfig(epsilon=1.0), np.random.default_rng(0))
        assert "privebc.oracle" not in sys.modules, "oracle imported in production path"
        print("clean")
    """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "clean"

    elapsed = time.perf_counter() - t0
    ok = ratio <= 2.5 and peak_big < 120 * 1024 * 1024
    print(f"\nCRITERION 7: median forward 1e4 nodes {med_small:.1f}ms, 2e4 nodes "
          f"{med_big:.1f}ms, ratio {ratio:.2f} (<= 2.5); peaks "
          f"{peak_small / 1e6:.1f}/{peak_big / 1e6:.1f} MB; oracle never imported; "
          f"{elapsed:.1f}s {'PASS' if ok else 'FAIL'}")
    assert ratio <= 2.5
    assert peak_big < 120 * 1024 * 1024  # far below any 2^n blow-up


# ---------------------------------------------------------------------------
# 8. headline-figure band (dataset) or monotone-error substitute
# ---------------------------------------------------------------------------

def test_criterion_8_error_levels():
    t0 = time.perf_counter()
    pgp = os.environ.get("PRIVEBC_PGP_PATH")
    if pgp and os.path.exists(pgp):
        cfg = ExperimentConfig(dataset=pgp, ego_count=60, epsilons=(1.5,),
                               trials=1, master_seed=0)
        _, rows = parse_csv(run_error_sweep(cfg))
        errs = [r.relative_error for r in rows
                if not r.is_summary and r.relative_error is not None]
        mean = math.fsum(errs) / len(errs)
        elapsed = time.perf_counter() - t0
        ok = 0.10 <= mean <= 0.45
        print(f"\nCRITERION 8: PGP dataset, mean relative error {mean:.3f} at "
              f"eps=1.5 over 60 egos (band [0.10, 0.45]), {elapsed:.1f}s "
              f"{'PASS' if ok else 'FAIL'}")
        assert 0.10 <= mean <= 0.45
        return

    cfg = ExperimentConfig(synthetic=(400, 3), ego_count=8,
                           epsilons=(0.25, 1.0, 4.0), trials=3, master_seed=11)
    _, rows = parse_csv(run_error_sweep(cfg))
    means = {r.epsilon: r.relative_error for r in rows if r.is_summary}
    elapsed = time.perf_counter() - t0
    ok = means[0.25] > means[1.0] > means[4.0]
    print(f"\nCRITERION 8: no dataset supplied; synthetic substitute, mean "
          f"relative error by eps: 0.25 -> {means[0.25]:.3f}, 1.0 -> "
          f"{means[1.0]:.3f}, 4.0 -> {means[4.0]:.3f} (must fall), "
          f"{elapsed:.1f}s {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 9. runtime vs privacy budget
# ---------------------------------------------------------------------------

def test_criterion_9_timing_shape():
    t0 = time.perf_counter()
    g = load_experiment_graph(ExperimentConfig(synthetic=(10_000, 15), ego_count=1))
    pg = partition_nodes(g, 0, 0.5)
    a_idx = max((int(i) for i in pg.vx_indices), key=pg.graph.degree)
    a = pg.graph.label_of(a_idx)

    run_session(pg, a, ProtocolConfig(epsilon=1.0), np.random.default_rng(0))  # warm
    # the budgets' reps alternate, so a slow phase of the host lands on all alike
    times: dict[float, list[float]] = {eps: [] for eps in (0.1, 1.0, 7.0)}
    for rep in range(9):
        for eps, ts in times.items():
            rng = np.random.default_rng(100 * rep + 1)
            t1 = time.perf_counter()
            run_session(pg, a, ProtocolConfig(epsilon=eps), rng)
            ts.append(time.perf_counter() - t1)
    medians = {eps: statistics.median(ts) * 1e3 for eps, ts in times.items()}

    band = max(medians.values()) / min(medians.values())
    ok = medians[7.0] < medians[0.1] and band <= 5.0
    elapsed = time.perf_counter() - t0
    print(f"\nCRITERION 9: median session ms by eps: "
          + ", ".join(f"{e} -> {m:.1f}" for e, m in medians.items())
          + f"; band {band:.2f}x (<= 5), eps=7 faster than eps=0.1: "
          f"{medians[7.0] < medians[0.1]}, {elapsed:.1f}s {'PASS' if ok else 'FAIL'}")
    assert medians[7.0] < medians[0.1]
    assert band <= 5.0
