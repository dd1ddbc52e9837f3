from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from privebc import (
    Graph,
    GraphParseError,
    PartitionedGraph,
    UnknownNodeError,
    WrongPartyError,
    ego_context,
    exact_ebc,
    load_edge_list,
    partition_nodes,
)
from privebc.graphs import _ego_context_idx, _ego_local
from privebc.oracle import _edge_pairs, _has, ebc_dense_reference, two_path_reference

from .conftest import make_pg, random_graph, random_partition


# ---------------------------------------------------------------------------
# load_edge_list
# ---------------------------------------------------------------------------

def test_load_basic_with_comment():
    g = load_edge_list(b"# c\n1 2\n2 3\n")
    assert g.n == 3 and g.edge_count == 2
    assert _has(_edge_pairs(g), g.index_of("1"), g.index_of("2"))


def test_load_dedup_and_self_loop():
    g = load_edge_list(b"1 2\n2 1\n1 1\n")
    assert g.n == 2 and g.edge_count == 1
    assert g.load_report.self_loops == 1
    assert g.load_report.duplicates == 1


def test_load_konect_style_weights_ignored():
    weighted = b"% sym weighted\n1 2 3.5\n2 3 1.0\n3 1 2\n"
    unweighted = b"1 2\n2 3\n3 1\n"
    g1 = load_edge_list(weighted)
    g2 = load_edge_list(unweighted)
    # independent parse of the same bytes: first two whitespace tokens
    pairs = set()
    for line in weighted.decode().splitlines():
        if line.startswith(("%", "#")) or not line.strip():
            continue
        u, v = line.split()[:2]
        pairs.add(frozenset((u, v)))
    assert g1.labels == g2.labels
    assert {frozenset((g1.labels[i], g1.labels[j])) for i, j in g1.edges_iter()} == pairs


def test_load_malformed_line_reports_number():
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(b"1 2\nonly_one_token\n")
    assert exc.value.line_no == 2


def test_load_from_path(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n")
    assert load_edge_list(p).edge_count == 2


# ---------------------------------------------------------------------------
# Graph construction rules
# ---------------------------------------------------------------------------

def test_constructor_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(["a", "b"], [("a", "a")])


def test_constructor_rejects_unknown_endpoint():
    with pytest.raises(UnknownNodeError):
        Graph(["a", "b"], [("a", "c")])


def test_edges_are_unordered_and_deduped():
    g = Graph.from_edges([("a", "b"), ("b", "a")])
    assert g.edge_count == 1
    i, j = g.index_of("a"), g.index_of("b")
    assert _has(_edge_pairs(g), i, j) and _has(_edge_pairs(g), j, i)


def test_unknown_node_lookup():
    g = Graph.from_edges([("a", "b")])
    with pytest.raises(UnknownNodeError):
        g.index_of("zzz")


# ---------------------------------------------------------------------------
# partition_nodes
# ---------------------------------------------------------------------------

def test_partition_extreme_fractions():
    g = random_graph(np.random.default_rng(0), 30, 0.2)
    all_x = partition_nodes(g, seed=1, x_fraction=1.0)
    assert all_x.vy_indices.size == 0
    counts = all_x.edge_class_counts()
    assert counts["Y"] == 0 and counts["XY"] == 0 and counts["X"] == g.edge_count
    all_y = partition_nodes(g, seed=1, x_fraction=0.0)
    assert all_y.vx_indices.size == 0


def test_partition_deterministic_and_covering():
    g = random_graph(np.random.default_rng(1), 40, 0.15)
    p1 = partition_nodes(g, seed=7, x_fraction=0.5)
    p2 = partition_nodes(g, seed=7, x_fraction=0.5)
    assert [p1.is_x(i) for i in range(g.n)] == [p2.is_x(i) for i in range(g.n)]
    counts = p1.edge_class_counts()
    assert counts["X"] + counts["Y"] + counts["XY"] == g.edge_count


def test_partition_fraction_out_of_range():
    g = random_graph(np.random.default_rng(2), 5, 0.5)
    with pytest.raises(ValueError):
        partition_nodes(g, seed=0, x_fraction=1.5)


def test_edge_classes_partition_exhaustively():
    rng = np.random.default_rng(3)
    for n, p, frac in ((12, 0.3, 0.4), (40, 0.2, 0.5), (30, 0.1, 0.0), (30, 0.1, 1.0)):
        g = random_graph(rng, n, p)
        pg = partition_nodes(g, seed=4, x_fraction=frac)
        want = {"X": 0, "Y": 0, "XY": 0}
        for i, j in g.edges_iter():
            cls = {(True, True): "X", (False, False): "Y"}.get((pg.is_x(i), pg.is_x(j)), "XY")
            want[cls] += 1
        assert pg.edge_class_counts() == want


# ---------------------------------------------------------------------------
# ego_context
# ---------------------------------------------------------------------------

def test_ego_star_all_x():
    pg = make_pg([("a", "1"), ("a", "2"), ("a", "3")], x_labels={"a", "1", "2", "3"})
    ctx = ego_context(pg, "a")
    g = pg.graph
    assert g.neighbors(ctx.a) == {g.index_of(v) for v in "123"}
    assert ctx.R_star == g.neighbors(ctx.a)
    assert set(ctx.x_minus_sorted.tolist()) == {g.index_of(v) for v in "123"}


def test_ego_mixed_parties():
    pg = make_pg([("a", "1"), ("a", "2")], x_labels={"a", "1"})
    ctx = ego_context(pg, "a")
    g = pg.graph
    assert g.neighbors(ctx.a) == {g.index_of("1"), g.index_of("2")}
    assert ctx.R_star == {g.index_of("1")}


def test_ego_isolated():
    pg = make_pg([("1", "2")], x_labels={"a", "1", "2"}, isolated=["a"])
    ctx = ego_context(pg, "a")
    assert pg.graph.neighbors(ctx.a) == frozenset() and ctx.R_star == frozenset()


def test_ego_wrong_party_and_unknown():
    pg = make_pg([("a", "b")], x_labels={"a"})
    with pytest.raises(WrongPartyError):
        ego_context(pg, "b")
    with pytest.raises(UnknownNodeError):
        ego_context(pg, "zzz")


def test_ego_x_minus_sorted_matches_set():
    pg = make_pg([("a", "b"), ("b", "c")], x_labels={"a", "b", "c"})
    ctx = ego_context(pg, "b")
    assert ctx.x_minus_sorted.tolist() == sorted(pg.graph.index_of(v) for v in "ac")
    assert pg.graph.index_of("b") not in ctx.x_minus_sorted.tolist()


def test_party_contexts_agree_on_what_both_hold():
    # each party builds the ego context from its own view; the roster and
    # the ego's cross edges are in both, so the two agree on X^-, on
    # N_a n V_Y and on the flow, while Y's view holds no edge of R*
    rng = np.random.default_rng(11)
    cases = [make_pg([("a", "x1")], x_labels={"a", "x1"}),  # no Y nodes
             make_pg([("a", "x1"), ("a", "y1"), ("x1", "y1")], x_labels={"a", "x1"})]
    for seed in range(30):
        g = random_graph(np.random.default_rng(300 + seed), 9, 0.4)
        cases.append(random_partition(rng, g, x_fraction=(0.3, 0.6, 1.0)[seed % 3]))
    flows = set()
    for pg in cases:
        g = pg.graph
        view_x, view_y = pg.view_x(), pg.view_y()
        for a_idx in pg.vx_indices.tolist():
            cx, cy = _ego_context_idx(view_x, a_idx), _ego_context_idx(view_y, a_idx)
            y_ego = sorted(v for v in g.neighbors(a_idx) if not pg.is_x(v))
            want_flow = ("no-y-nodes" if pg.vy_indices.size == 0
                         else "small-y-ego" if len(y_ego) < 2 else "")
            for ctx in (cx, cy):
                assert ctx.a == a_idx
                assert ctx.x_minus_sorted.tolist() == sorted(set(pg.vx_indices.tolist()) - {a_idx})
                assert ctx.y_ego_sorted.tolist() == y_ego
                assert ctx.flow == want_flow
            assert cx.r_star_sorted.tolist() == sorted(v for v in g.neighbors(a_idx) if pg.is_x(v))
            assert cy.r_star_sorted.size == 0 and cy.R_star == frozenset()
            flows.add(cx.flow)
    assert flows == {"no-y-nodes", "small-y-ego", ""}


# ---------------------------------------------------------------------------
# 2-path counts: the oracle's, which the session's counts are checked
# against, and the session's own through the ego's dense block
# ---------------------------------------------------------------------------

def test_two_path_empty_mids():
    g = Graph.from_edges([("i", "k"), ("k", "j")])
    assert two_path_reference(g, [], "i", "j") == 0


def test_two_path_single_path():
    g = Graph.from_edges([("i", "k"), ("k", "j")])
    assert two_path_reference(g, ["k"], "i", "j") == 1


def test_two_path_same_endpoint_rejected():
    g = Graph.from_edges([("i", "k")])
    with pytest.raises(ValueError):
        two_path_reference(g, ["k"], "i", "i")


def test_two_path_matches_matrix_square():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 5, 0.5)
        labels = g.labels
        # dense square restricted to mids, built independently
        adj = np.zeros((5, 5))
        for i, j in g.edges_iter():
            adj[i, j] = adj[j, i] = 1
        for mids_bits in range(32):
            mids = [labels[k] for k in range(5) if mids_bits >> k & 1]
            sel = np.zeros(5)
            for m in mids:
                sel[g.index_of(m)] = 1
            sq = adj @ np.diag(sel) @ adj
            for i, j in itertools.permutations(range(5), 2):
                got = two_path_reference(g, mids, labels[i], labels[j])
                assert got == int(sq[i, j])


def test_two_path_at_least_one_through_ego():
    # every count exact_ebc divides by is at least the path through a
    rng = np.random.default_rng(6)
    for _ in range(30):
        g = random_graph(rng, 8, 0.35)
        for a_idx in range(g.n):
            local, m = _ego_local(g, a_idx)
            nbrs = local != a_idx
            paths = m[nbrs] @ m[:, nbrs]
            assert np.all(paths[~np.eye(paths.shape[0], dtype=bool)] >= 1)


def test_two_path_reference_agrees_with_production():
    # the ego block's square counts 2-paths through N_a u {a}
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = random_graph(rng, 7, 0.4)
        for a_idx in range(g.n):
            local, m = _ego_local(g, a_idx)
            paths = m @ m
            mids = [g.label_of(int(v)) for v in local]
            for (p, i), (q, j) in itertools.combinations(enumerate(local.tolist()), 2):
                want = two_path_reference(g, mids, g.label_of(i), g.label_of(j))
                assert paths[p, q] == want


# ---------------------------------------------------------------------------
# exact_ebc
# ---------------------------------------------------------------------------

def test_ebc_star():
    g = Graph.from_edges([("c", "1"), ("c", "2"), ("c", "3")])
    assert exact_ebc(g, "c") == 3.0


def test_ebc_clique_neighbourhood():
    g = Graph.from_edges([("a", x) for x in "123"] + [("1", "2"), ("1", "3"), ("2", "3")])
    assert exact_ebc(g, "a") == 0.0


def test_ebc_one_extra_edge():
    g = Graph.from_edges([("a", x) for x in "123"] + [("1", "2")])
    assert exact_ebc(g, "a") == 2.0


def test_ebc_low_degree_zero():
    g = Graph.from_edges([("a", "b")])
    assert exact_ebc(g, "a") == 0.0
    assert exact_ebc(g, "b") == 0.0


def test_ebc_matches_dense_oracle_atlas():
    # all non-isomorphic graphs up to 7 nodes, every ego
    for nxg in nx.graph_atlas_g()[1:]:
        g = Graph(nxg.nodes(), nxg.edges())
        for a in g.labels:
            got = exact_ebc(g, a)
            want = ebc_dense_reference(g, a)
            assert got >= 0.0
            assert abs(got - want) < 1e-12, (g, a)


def test_ebc_matches_dense_oracle_random_8():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = random_graph(rng, 8, rng.uniform(0.1, 0.7))
        for a in g.labels:
            assert abs(exact_ebc(g, a) - ebc_dense_reference(g, a)) < 1e-12


def test_ebc_relabel_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(rng, 9, 0.3)
        perm = rng.permutation(9)
        relabel = {str(i): f"z{perm[i]:02d}" for i in range(9)}
        g2 = Graph([relabel[l] for l in g.labels],
                   [(relabel[g.labels[i]], relabel[g.labels[j]]) for i, j in g.edges_iter()])
        for a in g.labels:
            assert abs(exact_ebc(g, a) - exact_ebc(g2, relabel[a])) < 1e-12


# ---------------------------------------------------------------------------
# party views
# ---------------------------------------------------------------------------

def test_views_hide_other_party_internal_edges(mixed_pg):
    g = mixed_pg.graph
    vy = mixed_pg.view_y().graph
    vx = mixed_pg.view_x().graph
    in_x, in_y = _edge_pairs(vx), _edge_pairs(vy)
    for i, j in g.edges_iter():
        assert ((i, j) in in_x) == (mixed_pg.is_x(i) or mixed_pg.is_x(j))
        assert ((i, j) in in_y) == (not mixed_pg.is_x(i) or not mixed_pg.is_x(j))
    # same labels, same dense indices in every view
    assert vx.labels == g.labels == vy.labels


def test_view_keeps_all_nodes(mixed_pg):
    assert mixed_pg.view_x().graph.n == mixed_pg.graph.n
    assert mixed_pg.view_y().graph.n == mixed_pg.graph.n
