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
)
from tests.test_pairs import FIG_GRAPH


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


@pytest.mark.parametrize("n, p, seed", [(12, 0.5, 1), (40, 0.3, 2), (80, 0.1, 3), (60, 0.9, 4)])
def test_graph_stats_matches_networkx(n, p, seed):
    nx = pytest.importorskip("networkx")
    ref = nx.gnp_random_graph(n, p, seed=seed)
    graph = make_graph(
        make_window(WindowKind.INTEGER_PREFIX, n), range(1, n + 1), set(ref.edges())
    )
    s = graph_stats(graph)
    degrees = [d for _, d in ref.degree()]
    assert s.triangle_count == sum(nx.triangles(ref).values()) // 3
    assert s.edge_count == ref.number_of_edges()
    assert s.max_degree == max(degrees)
    assert s.degree_histogram == {d: degrees.count(d) for d in set(degrees)}
