import math

import numpy as np
import pytest

from privebc import Graph, _kernels
from privebc.oracle import (
    ExhaustivePmf,
    OracleSizeError,
    ebc_dense_reference,
    enumerate_exp_pmf,
    enumerate_stratum,
    normalizer_routes,
    stratum_pmf,
    tv_distance,
    two_path_reference,
)

from .conftest import random_graph


def test_pmf_support_and_total_mass():
    for n in (0, 1, 4, 8):
        law = enumerate_exp_pmf(range(n), range(n // 2), epsilon=1.0)
        assert len(law.support) == 2 ** n
        assert len(set(law.support)) == 2 ** n
        assert math.fsum(law.mass) == pytest.approx(1.0, abs=1e-12)


def test_pmf_singleton_masses():
    # one element, eps=2 -> t=1: P(R*) = e/(1+e), P(other) = 1/(1+e)
    law = enumerate_exp_pmf([3], [3], epsilon=2.0)
    e = math.e
    assert law.mass_of([3]) == pytest.approx(e / (1 + e), rel=1e-12)
    assert law.mass_of([]) == pytest.approx(1 / (1 + e), rel=1e-12)
    with pytest.raises(KeyError):
        law.mass_of([5])


def test_pmf_argmax_is_true_set():
    law = enumerate_exp_pmf(range(7), [1, 4, 6], epsilon=1.0)
    assert law.argmax() == frozenset({1, 4, 6})


def test_pmf_monotone_in_quality():
    n = 6
    rs = [0, 2]
    law = enumerate_exp_pmf(range(n), rs, epsilon=1.0)
    # mass depends on the subset only through its quality, increasingly
    by_q: dict[int, set[float]] = {}
    for s, m in zip(law.support, law.mass):
        q = n - len(s ^ frozenset(rs))
        by_q.setdefault(q, set()).add(round(m, 15))
    assert all(len(v) == 1 for v in by_q.values())
    levels = [max(by_q[q]) for q in sorted(by_q)]
    assert levels == sorted(levels)


def test_pmf_rejects_bad_r_star():
    with pytest.raises(ValueError):
        enumerate_exp_pmf([0, 1], [2], epsilon=1.0)


def test_stratum_totals_match_sampler_pmf():
    n = 10
    law = enumerate_exp_pmf(range(n), range(4), epsilon=1.0)
    totals = law.stratum_totals(range(4))
    pmf = stratum_pmf(n, 0.5)
    assert set(totals) == set(range(n + 1))
    for i in range(n + 1):
        assert totals[i] == pytest.approx(pmf[i], rel=1e-9, abs=1e-30)


def test_enumerate_stratum_extremes():
    xm = range(6)
    rs = [1, 3]
    assert enumerate_stratum(xm, rs, 6) == [frozenset(rs)]
    assert enumerate_stratum(xm, rs, 0) == [frozenset({0, 2, 4, 5})]


def test_enumerate_stratum_counts():
    # quality n-2 means a symmetric difference of size 2: C(6,2) sets
    got = enumerate_stratum(range(6), [0, 1], 4)
    assert len(got) == 15
    assert all(len(s ^ frozenset({0, 1})) == 2 for s in got)


def test_strata_partition_powerset():
    for n, rs in [(5, [0, 4]), (8, [1, 2, 3])]:
        seen: set[frozenset] = set()
        total = 0
        for i in range(n + 1):
            stratum = enumerate_stratum(range(n), rs, i)
            assert math.comb(n, n - i) == len(stratum)
            total += len(stratum)
            assert seen.isdisjoint(stratum)
            seen.update(stratum)
        assert total == 2 ** n


def test_tv_distance_cases():
    a, b = frozenset({1}), frozenset({2})
    assert tv_distance({a: 1.0, b: 0.0}, {a: 1.0, b: 0.0}) == 0.0
    assert tv_distance({a: 1.0, b: 0.0}, {a: 0.0, b: 1.0}) == 1.0
    assert tv_distance({a: 0.7, b: 0.3}, {a: 0.3, b: 0.7}) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        tv_distance({a: 1.0}, {a: 0.5, b: 0.5})


def test_tv_distance_accepts_pmf_objects():
    law = enumerate_exp_pmf(range(3), [0], epsilon=1.0)
    assert tv_distance(law, law) == 0.0
    assert tv_distance(law, law.as_dict()) == 0.0


def test_normalizer_routes_agree():
    import mpmath

    for n in (0, 1, 5, 10):
        for t in (0.05, 1.0, 5.0):
            direct, stratum, closed = normalizer_routes(n, t)
            with mpmath.workprec(200):
                assert abs(direct - stratum) / closed < mpmath.mpf("1e-30")
                assert abs(direct - closed) / closed < mpmath.mpf("1e-30")


def test_size_guards():
    with pytest.raises(OracleSizeError):
        enumerate_exp_pmf(range(21), [], epsilon=1.0)
    with pytest.raises(OracleSizeError):
        enumerate_stratum(range(21), [], 0)
    with pytest.raises(OracleSizeError):
        normalizer_routes(21, 1.0)


def test_two_path_reference_matches_fast_count():
    # the fast count is the session's: a product of dense 0/1 blocks
    rng = np.random.default_rng(13)
    for seed in range(15):
        g = random_graph(np.random.default_rng(400 + seed), 9, 0.4)
        labels = list(g.labels)
        mid_idx = np.sort(rng.choice(9, 4, replace=False))
        mids = [labels[k] for k in mid_idx]
        indptr, indices = g.csr()
        for _ in range(10):
            i, j = np.sort(rng.choice(9, 2, replace=False))
            b = _kernels.bipartite_dense(indptr, indices, np.array([i, j]), mid_idx)
            want = int(b[0].astype(np.int64) @ b[1])
            got = two_path_reference(g, mids, labels[int(i)], labels[int(j)])
            assert got == want


def test_dense_reference_star():
    g = Graph.from_edges([("a", "b"), ("a", "c"), ("a", "d")])
    assert float(ebc_dense_reference(g, "a")) == pytest.approx(3.0)
    assert float(ebc_dense_reference(g, "b")) == 0.0
