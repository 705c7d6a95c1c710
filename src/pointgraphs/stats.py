"""Graph statistics and the two classical tests used by the harness.

The Kolmogorov-Smirnov p-value uses the asymptotic Kolmogorov distribution
at the finite-sample effective size ne = n1 n2 / (n1 + n2), with the usual
small-sample correction (en + 0.12 + 0.11/en) * D.  The chi-square tail is
the regularized upper incomplete gamma function, computed by series or
continued fraction.
"""

from __future__ import annotations

import math
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


# Triangles are counted over tiles of this many rank columns, so the
# out-neighbour bit rows of one tile take at most TILE_COLUMNS / 8 bytes
# per vertex.
TILE_COLUMNS = 2**9
# A tile's edges are handled in blocks whose gathered bit rows take about
# this many 64-bit words (128 KiB), whatever the graph's size.
GATHER_WORDS = 2**14


def graph_stats(graph: Graph) -> GraphStats:
    """Exact edge count, degree histogram, triangle count, and max degree:
    the batch of one (see graph_stats_batch)."""
    return graph_stats_batch([graph])[0]


def graph_stats_batch(graphs) -> list:
    """GraphStats of each graph of a list, computed for all of them at once.

    The graphs are laid out one after another, vertex i of graph g at
    offset(g) + i, as one disjoint union whose degrees come from one
    bincount and whose triangles (see _triangle_counts) are summed per
    graph.  Memory is O(V + E) over the batch plus one tile.
    """
    graphs = list(graphs)
    sizes = np.array([g.n_vertices for g in graphs], dtype=np.int64)
    n_edges = [g.n_edges for g in graphs]
    offsets = np.cumsum(sizes) - sizes
    ends = np.concatenate([g.ends for g in graphs]) if graphs else np.zeros((0, 2), np.int64)
    ends += np.repeat(offsets, n_edges)[:, None]
    degrees = np.bincount(ends.ravel(), minlength=int(sizes.sum()))
    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    triangles = _triangle_counts(ends, degrees, graph_of, len(graphs)).tolist()
    width = int(degrees.max(initial=0)) + 1
    keys, counts = np.unique(graph_of * width + degrees, return_counts=True)
    key_graph, key_degree = np.divmod(keys, width)
    cuts = np.searchsorted(key_graph, np.arange(len(graphs) + 1)).tolist()
    key_degree, counts = key_degree.tolist(), counts.tolist()
    histograms = [dict(zip(key_degree[lo:hi], counts[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]
    return [
        GraphStats(
            edge_count=m, degree_histogram=h, triangle_count=t, max_degree=max(h, default=0)
        )
        for m, h, t in zip(n_edges, histograms, triangles)
    ]


def _triangle_counts(ends, degrees, graph_of, n_graphs: int) -> np.ndarray:
    """Triangles of each graph of a disjoint union with edges ``ends``.

    Vertices are ranked by (graph, degree, index) and each edge points from
    its lower- to its higher-ranked endpoint, so every triangle is seen
    exactly once, from its lowest vertex u, as the out-neighbours that u
    and its out-neighbour v share (Schank & Wagner 2005; Latapy 2008).  The
    shared out-neighbours are counted as the popcount of the AND of packed
    bit rows, over tiles of TILE_COLUMNS rank columns: a tile's rows belong
    to the vertices with an out-neighbour in it, and the edges u -> v
    between two such vertices gather their pairs of rows.
    """
    counts = np.zeros(n_graphs, dtype=np.int64)
    n = len(degrees)
    if len(ends) == 0:
        return counts
    order = np.lexsort((degrees, graph_of))  # stable: ties keep index order
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    graph_of_rank = graph_of[order]
    tail, head = rank[ends[:, 0]], rank[ends[:, 1]]
    swap = tail > head
    tail[swap], head[swap] = head[swap], tail[swap]
    by_head = head * n + tail  # sorted: edges grouped by head, then by tail
    by_head.sort()
    by_tail = tail * n + head  # sorted, mod n: the heads of each tail, in order
    by_tail.sort()
    by_tail %= n
    head_ptr = np.concatenate(([0], np.cumsum(np.bincount(head, minlength=n))))
    tail_ptr = np.concatenate(([0], np.cumsum(np.bincount(tail, minlength=n))))
    del tail, head, swap
    local = np.full(n, -1, dtype=np.int64)  # row of each vertex in this tile
    for c0 in range(0, n, TILE_COLUMNS):
        c1 = min(c0 + TILE_COLUMNS, n)
        lo, hi = int(head_ptr[c0]), int(head_ptr[c1])
        if lo == hi:
            continue
        # the vertices with a row (np.unique would import numpy.ma, ~1 MiB)
        srcs = np.sort(by_head[lo:hi] % n)
        srcs = srcs[np.diff(srcs, prepend=-1) != 0]
        local[srcs] = np.arange(len(srcs))
        words = (c1 - c0 + 63) // 64
        step = max(1, GATHER_WORDS // words)
        rows = np.zeros((len(srcs), words), dtype=np.uint64)
        for b in range(lo, hi, step):
            cols, tails = np.divmod(by_head[b : min(b + step, hi)], n)
            cols -= c0
            bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
            np.bitwise_or.at(rows, (local[tails], cols >> 6), bits)
        # the out-edges u -> v of the rows' vertices, kept when v has a row:
        # position p of their concatenation is out-edge p - before[u] of u
        first = tail_ptr[srcs]
        out_deg = tail_ptr[srcs + 1] - first
        upto = np.cumsum(out_deg)
        first -= upto - out_deg
        for p in range(0, int(upto[-1]), step):
            at = np.arange(p, min(p + step, int(upto[-1])))
            u = np.searchsorted(upto, at, side="right")
            v = local[by_tail[first[u] + at]]
            keep = v >= 0
            u, v = u[keep], v[keep]
            shared = np.bitwise_count(rows[u] & rows[v]).ravel()
            # u ascends, so each graph's edges form one run: sum per run
            graph = graph_of_rank[srcs[u]]
            runs = np.flatnonzero(np.diff(graph, prepend=-1))
            counts[graph[runs]] += np.add.reduceat(shared, runs * words, dtype=np.int64)
        local[srcs] = -1
    return counts


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
