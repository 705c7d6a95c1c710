"""Graph statistics and the two classical tests used by the harness.

The Kolmogorov-Smirnov p-value uses the asymptotic Kolmogorov distribution
at the finite-sample effective size ne = n1 n2 / (n1 + n2), with the usual
small-sample correction (en + 0.12 + 0.11/en) * D.  The chi-square tail is
the regularized upper incomplete gamma function, computed by series or
continued fraction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .pairs import Graph


@dataclass(frozen=True)
class GraphStats:
    edge_count: int
    degree_histogram: dict
    triangle_count: int
    max_degree: int

    def as_dict(self) -> dict:
        return {
            "edge_count": self.edge_count,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "triangle_count": self.triangle_count,
            "max_degree": self.max_degree,
        }


def graph_stats(graph: Graph) -> GraphStats:
    """Exact edge count, degree histogram, triangle count, and max degree.

    Triangles are counted on the degree-ordered orientation: each edge
    points from the lower to the higher (degree, index) endpoint, so every
    triangle is seen exactly once, from its lowest vertex, by intersecting
    out-neighbour sets, and no out-set holds more than ~sqrt(2m) vertices.
    """
    n = graph.n_vertices
    degrees = [0] * n
    for i, j in graph.edges:
        degrees[i] += 1
        degrees[j] += 1
    out = [set() for _ in range(n)]
    for i, j in graph.edges:
        if (degrees[i], i) < (degrees[j], j):
            out[i].add(j)
        else:
            out[j].add(i)
    triangles = sum(len(out[u] & out[v]) for u in range(n) for v in out[u])
    return GraphStats(
        edge_count=graph.n_edges,
        degree_histogram=dict(Counter(degrees)),
        triangle_count=triangles,
        max_degree=max(degrees, default=0),
    )


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, 2 sum (-1)^(k-1) e^(-2 k^2 lam^2)."""
    if lam < 1e-16:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-16 * abs(total) or term == 0.0:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(xs, ys) -> tuple:
    """Two-sided two-sample Kolmogorov-Smirnov statistic and p-value."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    n1, n2 = len(xs), len(ys)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be nonempty")
    both = np.concatenate([xs, ys])
    cdf1 = np.searchsorted(xs, both, side="right") / n1
    cdf2 = np.searchsorted(ys, both, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    p = kolmogorov_sf((en + 0.12 + 0.11 / en) * d)
    return d, p


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by power series (x < a + 1)."""
    if x <= 0.0:
        return 0.0
    ap = a
    summ = 1.0 / a
    delta = summ
    for _ in range(10000):
        ap += 1.0
        delta *= x / ap
        summ += delta
        if abs(delta) < abs(summ) * 1e-15:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_frac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by continued fraction (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if x <= 0.0:
        return 1.0
    a = dof / 2.0
    half = x / 2.0
    if half < a + 1.0:
        q = 1.0 - _gamma_series(a, half)
    else:
        q = _gamma_cont_frac(a, half)
    return min(1.0, max(0.0, q))


def chi_square_gof(observed, expected, n: int) -> tuple:
    """Pearson goodness-of-fit statistic and p-value against given cell probabilities."""
    observed = list(observed)
    expected = list(expected)
    if len(observed) != len(expected):
        raise ValueError("observed and expected must have the same length")
    if sum(observed) != n:
        raise ValueError("observed counts must sum to the declared sample size")
    if abs(sum(expected) - 1.0) > 1e-9:
        raise ValueError("expected probabilities must sum to 1")
    if n * min(expected) < 5:
        raise ValueError("underpopulated bins: need N * min(expected) >= 5")
    stat = sum((o - n * e) ** 2 / (n * e) for o, e in zip(observed, expected))
    return stat, chi2_sf(stat, len(observed) - 1)
