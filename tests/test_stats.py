import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pointgraphs import (
    WindowKind,
    chi2_sf,
    chi_square_gof,
    graph_stats,
    kolmogorov_sf,
    ks_two_sample,
    make_graph,
    make_window,
    sample,
    spec_from_dict,
)
from pointgraphs.stats import TILE_COLUMNS
from tests.test_pairs import FIG_GRAPH

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_graph_stats_fig_graph():
    s = graph_stats(FIG_GRAPH)
    assert s.edge_count == 4
    # per-vertex degrees are 1, 3, 2, 2
    assert s.degree_histogram == {1: 1, 2: 2, 3: 1}
    assert s.triangle_count == 1  # {2, 3, 4}
    assert s.max_degree == 3


def test_graph_stats_empty():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    s = graph_stats(make_graph(w, (), set()))
    assert (s.edge_count, s.triangle_count, s.max_degree) == (0, 0, 0)
    assert s.degree_histogram == {}


def test_graph_stats_k4():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    s = graph_stats(make_graph(w, (1, 2, 3, 4), edges))
    assert s.edge_count == 6
    assert s.triangle_count == 4
    assert s.degree_histogram == {3: 4}


def test_ks_identical_samples():
    xs = [0.3, 0.7, 0.1, 0.9]
    stat, p = ks_two_sample(xs, list(xs))
    assert stat == 0.0 and p == 1.0


def test_ks_disjoint_samples():
    stat, p = ks_two_sample([0.0], [1.0])
    assert stat == 1.0
    assert p < 1.0


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_detects_shifted_distribution():
    rng = np.random.default_rng(1)
    _, p = ks_two_sample(rng.normal(0, 1, 500), rng.normal(1, 1, 500))
    assert p < 1e-6


def test_ks_null_simulation():
    # under the null the test should essentially never reject at 0.001
    rng = np.random.default_rng(20240501)
    ok = 0
    reps = 1000
    for _ in range(reps):
        _, p = ks_two_sample(rng.random(10_000), rng.random(10_000))
        if p > 0.001:
            ok += 1
    assert ok >= 0.99 * reps


def test_kolmogorov_sf_reference_points():
    assert kolmogorov_sf(0.0) == 1.0
    # classical two-sided critical value at alpha = 0.05
    assert kolmogorov_sf(1.358) == pytest.approx(0.05, abs=2e-3)
    assert kolmogorov_sf(1.627) == pytest.approx(0.01, abs=1e-3)
    assert kolmogorov_sf(10.0) < 1e-80


def test_chi2_sf_reference_points():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)
    assert chi2_sf(5.991, 2) == pytest.approx(0.05, abs=5e-4)
    assert chi2_sf(18.475, 7) == pytest.approx(0.01, abs=5e-4)
    assert chi2_sf(200.0, 3) < 1e-40


def test_chi_square_exact_fit():
    stat, p = chi_square_gof([25, 25, 25, 25], [0.25] * 4, 100)
    assert stat == 0.0 and p == 1.0


def test_chi_square_extreme_miss():
    n = 1000
    stat, p = chi_square_gof([n, 0], [0.5, 0.5], n)
    assert stat == pytest.approx(n)
    assert p < 1e-100


def test_chi_square_validations():
    with pytest.raises(ValueError):
        chi_square_gof([10, 10], [0.5, 0.5], 30)  # counts do not sum to N
    with pytest.raises(ValueError):
        chi_square_gof([10, 10], [0.6, 0.6], 20)  # probs do not sum to 1
    with pytest.raises(ValueError):
        chi_square_gof([20, 0], [0.999, 0.001], 20)  # underpopulated bin


def test_chi_square_null_simulation():
    rng = np.random.default_rng(7)
    reps, n = 500, 40_000
    probs = [1.0 / 8] * 8
    ok = 0
    for _ in range(reps):
        counts = rng.multinomial(n, probs)
        _, p = chi_square_gof(list(counts), probs, n)
        if p > 0.01:
            ok += 1
    assert ok >= 0.98 * reps


def test_chi_square_power():
    rng = np.random.default_rng(8)
    counts = rng.multinomial(40_000, [0.2, 0.3, 0.3, 0.2])
    _, p = chi_square_gof(list(counts), [0.25] * 4, 40_000)
    assert p < 1e-10


def _gnp(n: int, p: float, seed: int):
    nx = pytest.importorskip("networkx")
    ref = nx.gnp_random_graph(n, p, seed=seed)
    return make_graph(make_window(WindowKind.INTEGER_PREFIX, n), range(1, n + 1), ref.edges())


def _sampled(config: str, n: float, seed: int):
    data = json.loads((CONFIGS / f"{config}.json").read_text())
    return sample(spec_from_dict(dict(data, seed=seed)), n)


INT6 = make_window(WindowKind.INTEGER_PREFIX, 6)
# G(n, p) graphs keyed "n-p-seed", then sampled and edge-case graphs
ORACLE_GRAPHS = {
    **{f"{n}-{p}-{seed}": (lambda n=n, p=p, seed=seed: _gnp(n, p, seed))
       for n, p, seed in [(12, 0.5, 1), (40, 0.3, 2), (80, 0.1, 3), (60, 0.9, 4)]},
    "dense-graphon-300": lambda: _sampled("graphon_grid", 300, 42),
    "sparse-rotinv-400": lambda: _sampled("rotinv", 400.0, 7),
    "isolated-vertices": lambda: make_graph(INT6, range(1, 7), {(1, 4), (4, 5), (1, 5)}),
    "no-edges": lambda: make_graph(INT6, range(1, 7), ()),
    "no-vertices": lambda: make_graph(INT6, (), ()),
    "wider-than-one-tile": lambda: _gnp(2 * TILE_COLUMNS + 37, 0.02, 5),
}


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_graph_stats_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    graph = ORACLE_GRAPHS[name]()
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n_vertices))
    ref.add_edges_from(graph.edges)
    s = graph_stats(graph)
    degrees = [d for _, d in ref.degree()]
    assert s.triangle_count == sum(nx.triangles(ref).values()) // 3
    assert s.edge_count == ref.number_of_edges()
    assert s.max_degree == max(degrees, default=0)
    assert s.degree_histogram == {d: degrees.count(d) for d in set(degrees)}


def test_wide_oracle_graph_spans_several_tiles_and_has_triangles():
    graph = ORACLE_GRAPHS["wider-than-one-tile"]()
    assert graph.n_vertices > 2 * TILE_COLUMNS
    assert graph_stats(graph).triangle_count > 0


def test_graph_stats_memory_is_linear_in_vertices_and_edges():
    # A random graph with 10^5 vertices and 3 * 10^5 edges.  The counts take
    # ~53 bytes per vertex and edge (numpy 2.4); an n x n bit matrix would
    # take 1.2 GB.  The bound allows 80 bytes per vertex and edge.
    n, m = 10**5, 3 * 10**5
    rng = np.random.default_rng(11)
    ends = np.sort(rng.integers(0, n, size=(2 * m, 2)), axis=1)
    keys = np.unique(ends[:, 0] * n + ends[:, 1])
    keys = rng.permutation(keys[keys // n < keys % n])[:m]
    ii, jj = np.divmod(keys, n)
    graph = make_graph(make_window(WindowKind.INTEGER_PREFIX, n), range(1, n + 1),
                       np.stack((ii, jj), axis=1))
    tracemalloc.start()
    try:
        s = graph_stats(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.edge_count == m and sum(s.degree_histogram.values()) == n
    assert peak < 80 * (n + m)


# --- independent oracles (scipy) -----------------------------------------------


def _ks_samples():
    rng = np.random.default_rng(31)
    yield rng.random(300), rng.random(450)
    yield rng.normal(0.0, 1.0, 200), rng.normal(0.3, 1.0, 200)
    # integer statistics with heavy ties, as the harness feeds them
    yield rng.integers(0, 3, 500), rng.integers(0, 3, 500)
    yield rng.integers(0, 3, 1000), rng.binomial(2, 0.55, 1000)
    yield rng.integers(0, 50, 250), rng.integers(0, 50, 400)
    yield rng.poisson(20.0, 1000), rng.poisson(21.0, 1000)


@pytest.mark.parametrize("xs, ys", list(_ks_samples()))
def test_ks_matches_scipy(xs, ys):
    stats = pytest.importorskip("scipy.stats")
    d, p = ks_two_sample(xs, ys)
    # The same largest gap between the two empirical CDFs, a multiple of
    # 1 / (n1 n2); the two codes round its division differently.
    want = stats.ks_2samp(xs, ys).statistic
    scale = len(xs) * len(ys)
    assert round(d * scale) == round(want * scale)
    assert d == pytest.approx(want, rel=0.0, abs=1e-12)
    assert abs(p - stats.ks_2samp(xs, ys, method="asymp").pvalue) < 0.01


@pytest.mark.parametrize(
    "x, k",
    [(0.5, 1), (3.841, 1), (1.0, 2), (5.991, 2), (2.0, 3), (7.815, 3), (200.0, 3),
     (18.475, 7), (30.0, 10), (5.0, 31), (80.0, 31), (1e-3, 4)],
)
def test_chi2_sf_matches_scipy(x, k):
    stats = pytest.importorskip("scipy.stats")
    assert chi2_sf(x, k) == pytest.approx(stats.chi2.sf(x, k), rel=1e-10, abs=0.0)
