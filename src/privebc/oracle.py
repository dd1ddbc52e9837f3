"""Brute-force references for the test suite.

Everything here recomputes what the production modules compute, by a
deliberately different route: the quality function on sets instead of
membership bits, direct-space probabilities via mpmath, the stratum
law's pmf by its closed form, exhaustive subset enumeration instead of
sampling, dense pure-python matrix walks instead of CSR kernels. These
paths are exponential or cubic by design and guarded against large
inputs; they exist to be obviously correct, not fast.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import mpmath
import numpy as np

from .graphs import Graph

GUARD_LIMIT = 20
_PREC_BITS = 150


class OracleSizeError(ValueError):
    """Refusal to run an exponential enumeration on a large input."""


def _check_size(n: int) -> None:
    if n > GUARD_LIMIT:
        raise OracleSizeError(f"exhaustive enumeration over {n} elements refused "
                              f"(limit {GUARD_LIMIT})")


def quality(R: Iterable[int], R_star: Iterable[int], X_minus: Iterable[int]) -> int:
    """q(R) = |R n R*| + |X^- \\ (R u R*)|, i.e. |X^-| - |R delta R*|."""
    r = frozenset(R)
    rs = frozenset(R_star)
    xm = frozenset(X_minus)
    if not r <= xm or not rs <= xm:
        raise ValueError("R and R_star must be subsets of X_minus")
    return len(r & rs) + len(xm - (r | rs))


@dataclass(frozen=True)
class ExhaustivePmf:
    """Exact response law of the set release, one entry per subset.

    support lists every subset of X^- (as frozensets of node indices)
    in mask-enumeration order; mass holds the matching probabilities,
    which sum to one.
    """

    support: tuple[frozenset[int], ...]
    mass: tuple[float, ...]

    def mass_of(self, subset: Iterable[int]) -> float:
        key = frozenset(subset)
        for s, m in zip(self.support, self.mass):
            if s == key:
                return m
        raise KeyError(f"{sorted(key)} not in support")

    def as_dict(self) -> dict[frozenset[int], float]:
        return dict(zip(self.support, self.mass))

    def argmax(self) -> frozenset[int]:
        best = max(range(len(self.mass)), key=self.mass.__getitem__)
        return self.support[best]

    def stratum_totals(self, R_star: Iterable[int]) -> dict[int, float]:
        """Total mass per quality level: q(S) = |X^-| - |S delta R*|."""
        universe = frozenset().union(*self.support) if self.support else frozenset()
        rs = frozenset(R_star)
        n = len(universe)
        totals: dict[int, float] = {}
        for s, m in zip(self.support, self.mass):
            q = n - len(s ^ rs)
            totals[q] = totals.get(q, 0.0) + m
        return totals


def enumerate_exp_pmf(X_minus: Iterable[int], R_star: Iterable[int],
                      epsilon: float, delta: float = 1.0) -> ExhaustivePmf:
    """Exact exponential-mechanism law over all subsets of X^-.

    Weights e^{q(S) eps / (2 delta)} are evaluated directly at extended
    precision and normalized by the constant C, which is computed both
    by direct summation and by the stratum formula sum_i C(n,i) e^{it};
    a relative disagreement beyond 1e-9 aborts.
    """
    elems = sorted(int(v) for v in frozenset(X_minus))
    n = len(elems)
    _check_size(n)
    rs = frozenset(int(v) for v in R_star)
    if not rs <= set(elems):
        raise ValueError("R_star must be a subset of X_minus")
    m_star = 0
    for pos, v in enumerate(elems):
        if v in rs:
            m_star |= 1 << pos
    with mpmath.workprec(_PREC_BITS):
        t = mpmath.mpf(epsilon) / (2 * mpmath.mpf(delta))
        weights = []
        c_direct = mpmath.mpf(0)
        for mask in range(1 << n):
            q = n - bin(mask ^ m_star).count("1")
            w = mpmath.e ** (t * q)
            weights.append(w)
            c_direct += w
        c_stratum = mpmath.fsum(mpmath.binomial(n, i) * mpmath.e ** (t * i)
                                for i in range(n + 1))
        if abs(c_direct - c_stratum) / c_stratum > mpmath.mpf("1e-9"):
            raise RuntimeError("normalizer routes disagree beyond 1e-9: "
                               f"{c_direct} vs {c_stratum}")
        support = []
        mass = []
        for mask, w in enumerate(weights):
            support.append(frozenset(elems[pos] for pos in range(n) if mask >> pos & 1))
            mass.append(float(w / c_direct))
    return ExhaustivePmf(support=tuple(support), mass=tuple(mass))


def enumerate_stratum(X_minus: Iterable[int], R_star: Iterable[int],
                      i: int) -> list[frozenset[int]]:
    """All subsets of X^- at quality exactly i, by powerset filtering."""
    elems = sorted(int(v) for v in frozenset(X_minus))
    n = len(elems)
    _check_size(n)
    rs = frozenset(int(v) for v in R_star)
    if not rs <= set(elems):
        raise ValueError("R_star must be a subset of X_minus")
    out = []
    for size in range(n + 1):
        for combo in itertools.combinations(elems, size):
            s = frozenset(combo)
            if n - len(s ^ rs) == i:
                out.append(s)
    return out


def tv_distance(p: ExhaustivePmf | Mapping, q: ExhaustivePmf | Mapping) -> float:
    """Total variation distance between two pmfs on the same support."""
    pd = p.as_dict() if isinstance(p, ExhaustivePmf) else dict(p)
    qd = q.as_dict() if isinstance(q, ExhaustivePmf) else dict(q)
    if set(pd) != set(qd):
        raise ValueError("distributions live on different supports")
    return 0.5 * math.fsum(abs(pd[k] - qd[k]) for k in pd)


def normalizer_routes(n: int, t: float) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """The normalizing constant three independent ways.

    Direct subset summation (with R* empty, a subset's quality is n
    minus its popcount), the stratum sum over quality levels, and the
    closed form (1 + e^t)^n. All three must coincide.
    """
    _check_size(n)
    with mpmath.workprec(_PREC_BITS):
        tt = mpmath.mpf(t)
        direct = mpmath.fsum(mpmath.e ** (tt * (n - bin(mask).count("1")))
                             for mask in range(1 << n))
        stratum = mpmath.fsum(mpmath.binomial(n, i) * mpmath.e ** (tt * i)
                              for i in range(n + 1))
        closed = (1 + mpmath.e ** tt) ** n
        return direct, stratum, closed


def stratum_pmf(n: int, t: float) -> np.ndarray:
    """P(I = i) for i = 0, ..., n, as floats, of the stratum law
    Binomial(n, sigma), sigma = 1/(1 + e^-t), where t = eps/(2*delta0):
    each term by the closed form C(n, i) sigma^i (1 - sigma)^(n - i) at
    _PREC_BITS, with C(n, i) an exact integer."""
    terms = []
    choose = 1  # C(n, i)
    with mpmath.workprec(_PREC_BITS):
        e = mpmath.exp(-mpmath.mpf(t))
        sigma, rest = 1 / (1 + e), e / (1 + e)
        for i in range(n + 1):
            terms.append(float(choose * sigma**i * rest**(n - i)))
            choose = choose * (n - i) // (i + 1)
    return np.array(terms)


def _edge_pairs(g: Graph) -> set[tuple[int, int]]:
    return set(g.edges_iter())


def _has(pairs: set[tuple[int, int]], i: int, j: int) -> bool:
    return (i, j) in pairs if i < j else (j, i) in pairs


def two_path_reference(g: Graph, mids: Iterable[object], i: object, j: object) -> int:
    """2-path count by explicit edge-pair lookups, one intermediate at a
    time; independent of the CSR/set-intersection production route."""
    pairs = _edge_pairs(g)
    ii, jj = g.index_of(i), g.index_of(j)
    if ii == jj:
        raise ValueError("endpoints must differ")
    count = 0
    for m in mids:
        k = g.index_of(m)
        if _has(pairs, ii, k) and _has(pairs, k, jj):
            count += 1
    return count


def ebc_dense_reference(g: Graph, a: object) -> float:
    """Exact EBC via a dense pure-python adjacency walk.

    Builds the full n x n 0/1 matrix from the edge list, squares it by
    triple loop restricted to intermediates in N_a u {a}, then sums
    reciprocals over non-adjacent neighbour pairs.
    """
    pairs = _edge_pairs(g)
    a_idx = g.index_of(a)
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for (u, v) in pairs:
        adj[u][v] = 1
        adj[v][u] = 1
    nbrs = [v for v in range(n) if adj[a_idx][v]]
    allowed = set(nbrs) | {a_idx}
    total = mpmath.mpf(0)
    with mpmath.workprec(_PREC_BITS):
        for pos_i in range(len(nbrs)):
            for pos_j in range(pos_i + 1, len(nbrs)):
                u, v = nbrs[pos_i], nbrs[pos_j]
                if adj[u][v]:
                    continue
                paths = 0
                for k in range(n):
                    if k in allowed and adj[u][k] and adj[k][v]:
                        paths += 1
                total += mpmath.mpf(1) / paths
    return float(total)
