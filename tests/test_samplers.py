import collections.abc
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import kstest

from pointgraphs import (
    Constant,
    FamilySpec,
    GraphexIndicator,
    GraphexProduct,
    GraphonGrid,
    HardDistance,
    HyperbolicSoft,
    PoissonRate,
    RadialSum,
    RadialTable,
    SoftDistance,
    SpecMismatchError,
    WindowKind,
    WindowScaledConstant,
    chi_square_gof,
    extend_sample,
    fingerprint,
    graphex_spec,
    graphon_spec,
    make_graph,
    make_window,
    reseeded,
    restrict_table,
    rotinv_spec,
    sample,
    sample_table,
    spec_from_dict,
    spec_to_dict,
    window_for,
)
from pointgraphs import samplers
from pointgraphs.coins import CoinPRF, derive_seeds
from pointgraphs.kernels import FixedDirectionIndicator, geo_edge_prob
from pointgraphs.windows import contains_column
from tests import reference
from tests.test_pairs import trial_graph


def mc_mean(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


# --- graphon -----------------------------------------------------------------


def test_graphon_constant_one_gives_single_edge():
    g = sample(graphon_spec(Constant(1.0), seed=1), 2)
    assert g.vertices == (1, 2)
    assert g.edges == {(0, 1)}


def test_graphon_constant_zero_gives_empty_graph():
    for n in (1, 4, 9):
        g = sample(graphon_spec(Constant(0.0), seed=1), n)
        assert g.edges == frozenset()
        assert g.vertices == tuple(range(1, n + 1))


def test_graphon_latents_in_unit_interval():
    g = sample(graphon_spec(Constant(0.5), seed=7), 50)
    assert all(0.0 <= x < 1.0 for x in g.latents)


def test_graphon_needs_integer_window():
    with pytest.raises(ValueError):
        sample(graphon_spec(Constant(0.5), seed=7), 2.5)


def test_graphon_sampling_is_deterministic():
    spec = graphon_spec(Constant(0.5), seed=99)
    assert sample(spec, 12) == sample(spec, 12)


def test_graphon_labeled_distribution_uniform_smoke():
    # Constant(1/2) on three vertices puts mass 1/8 on each labeled graph;
    # the full-strength version of this check is an acceptance criterion.
    from pointgraphs import enumerate_labeled_distribution

    spec = graphon_spec(Constant(0.5), seed=2024)
    dist = enumerate_labeled_distribution(spec, 3, 5000)
    assert dist.probs == tuple([0.125] * 8)
    _, p = chi_square_gof(dist.counts, dist.probs, 5000)
    assert p > 0.001


def test_graphon_grid_blocks_respected():
    grid = GraphonGrid(((1.0, 0.0), (0.0, 1.0)))
    g = sample(graphon_spec(grid, seed=5), 40)
    cell = [0 if x < 0.5 else 1 for x in g.latents]
    edges = set(g.edges)
    for i in range(40):
        for j in range(i + 1, 40):
            if cell[i] == cell[j]:
                assert (i, j) in edges
            else:
                assert (i, j) not in edges


def test_graphon_marginal_edge_probability():
    # edge indicator (1,2) under Constant(p) is Bernoulli(p)
    p, trials = 0.3, 100_000
    spec = graphon_spec(Constant(p), seed=4242)
    table = sample_table(spec, 2, derive_seeds(spec.seed, np.arange(trials)))
    hits = len(table.ends)  # (0, 1) is the one pair of each trial
    margin = 3 * math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < margin


def test_graphon_restriction_is_induced_subgraph():
    spec = graphon_spec(Constant(0.4), seed=31)
    big = sample(spec, 9)
    small = sample(spec, 5)
    got = restrict_table(big, window_for(spec, 5))
    assert got.vertices == small.vertices
    assert got.edges == small.edges
    assert got.latents.tolist() == small.latents.tolist()


def test_window_scaled_constant_breaks_projectivity():
    spec = graphon_spec(WindowScaledConstant(0.8), seed=3)
    mismatch = 0
    for seed in derive_seeds(spec.seed, np.arange(200)).tolist():
        s = reseeded(spec, seed)
        if restrict_table(sample(s, 8), window_for(s, 4)).edges != sample(s, 4).edges:
            mismatch += 1
    assert mismatch > 0


# --- graphex -----------------------------------------------------------------


def test_graphex_zero_kernel_gives_empty_graph():
    spec = graphex_spec(GraphexIndicator(0.0), y_max=1.0, seed=4)
    g = sample(spec, 3.0)
    assert g.vertices == () and g.edges == frozenset()


def test_graphex_kernel_support_validated():
    with pytest.raises(ValueError):
        graphex_spec(GraphexIndicator(3.0), y_max=2.0, seed=0)
    with pytest.raises(ValueError):
        graphex_spec(GraphexProduct(2.5), y_max=2.0, seed=0)


def test_graphex_labels_and_marks_in_range():
    spec = graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=8)
    for t in range(50):
        g = sample(reseeded(spec, t), 2.5)
        assert all(0.0 <= x < 2.5 for x in g.vertices)
        assert all(0.0 <= y < 2.0 for y in g.latents)
        assert list(g.vertices) == sorted(g.vertices)


def test_graphex_prunes_zero_degree_vertices():
    spec = graphex_spec(GraphexIndicator(0.5), y_max=1.0, seed=12)
    for t in range(50):
        g = sample(reseeded(spec, t), 3.0)
        touched = {i for e in g.edges for i in e}
        assert touched == set(range(g.n_vertices))


def test_graphex_edge_count_matches_closed_form_moment():
    # unordered pairs of a unit-rate process thinned to marks <= c:
    # E[#edges] = (n c)^2 / 2, here 0.5
    spec = graphex_spec(GraphexIndicator(0.5), y_max=1.0, seed=777)
    table = sample_table(spec, 2.0, derive_seeds(spec.seed, np.arange(5000)))
    mean, se = mc_mean(np.diff(table.edge_starts()))
    assert abs(mean - 0.5) < 3 * se


def one_sample_ks_vs_uniform(values):
    values = np.sort(np.asarray(values, dtype=float))
    n = len(values)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - values), np.max(values - lo)))


def test_graphex_point_process_is_unit_rate_poisson():
    # with W identically 1 on the strip, only lone points are pruned, so
    # E[#vertices] = E[K] - P(K = 1) with K ~ Poisson(n * y_max)
    n, y_max = 8.0, 1.0
    spec = graphex_spec(GraphexIndicator(1.0), y_max=y_max, seed=314)
    table = sample_table(spec, n, derive_seeds(spec.seed, np.arange(3000)))
    xs = table.labels
    lam = n * y_max
    want = lam - lam * math.exp(-lam)
    mean, se = mc_mean(np.diff(table.starts))
    assert abs(mean - want) < 3 * se
    # positions are uniform over [0, n); with >= 20,000 of them a uniform
    # sample exceeds D = 0.02 with probability ~1e-8 (Kolmogorov tail)
    assert len(xs) >= 20_000
    assert one_sample_ks_vs_uniform(xs / n) < 0.02


def test_rotinv_volume_coordinates_are_uniform():
    # for a homogeneous process the ball-volume coordinate V_d r^d is U(0, n)
    import pointgraphs

    n = 12.0
    spec = rotinv_spec(Constant(0.0), dim=3, point=PoissonRate(2.0), seed=271)
    table = sample_table(spec, n, derive_seeds(spec.seed, np.arange(1000)))
    vols = pointgraphs.unit_ball_volume(3) * table.latents**3 / n
    # with >= 20,000 points a uniform sample exceeds D = 0.02 with
    # probability ~1e-8 (Kolmogorov tail)
    assert len(vols) >= 20_000
    assert one_sample_ks_vs_uniform(vols) < 0.02


def test_graphon_latents_are_uniform():
    spec = graphon_spec(Constant(0.0), seed=161)
    xs = sample_table(spec, 50, derive_seeds(spec.seed, np.arange(100))).latents
    assert one_sample_ks_vs_uniform(xs) < 0.03


def test_graphex_restriction_preserves_edge_configuration():
    spec = graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=6)
    for seed in derive_seeds(spec.seed, np.arange(100)).tolist():
        s = reseeded(spec, seed)
        big = sample(s, 4.0)
        small = sample(s, 1.0)
        w1 = window_for(s, 1.0)
        assert restrict_table(big, w1) == small


# --- rotation-invariant -------------------------------------------------------


def test_rotinv_zero_kernel_keeps_points_only():
    spec = rotinv_spec(Constant(0.0), dim=2, point=PoissonRate(3.0), seed=13)
    g = sample(spec, 5.0)
    assert g.edges == frozenset()
    assert g.n_vertices > 0
    assert contains_column(g.window, g.labels).all()


def test_rotinv_point_count_is_poisson_rate_volume():
    spec = rotinv_spec(Constant(0.0), dim=2, point=PoissonRate(3.0), seed=21)
    table = sample_table(spec, 4.0, derive_seeds(spec.seed, np.arange(2000)))
    mean, se = mc_mean(np.diff(table.starts))
    assert abs(mean - 12.0) < 3 * se


def rotinv_directions(dim: int, trials: int) -> np.ndarray:
    """The unit vectors x / |x| of the points of rotinv samples, one row each."""
    spec = rotinv_spec(Constant(0.0), dim=dim, point=PoissonRate(3.0), seed=60 + dim)
    x = sample_table(spec, 8.0, derive_seeds(spec.seed, np.arange(trials))).labels
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rotinv_directions_have_second_moment_identity_over_d(dim):
    # for u uniform on the sphere S^(d-1), E[u u^T] = I / d, with
    # Var(u_i^2) = 3 / (d (d + 2)) - 1 / d^2 and Var(u_i u_j) = 1 / (d (d + 2))
    # (i != j); every entry lies within five standard errors of its mean
    u = rotinv_directions(dim, 1000)
    moments = (u[:, :, None] * u[:, None, :]).mean(axis=0)
    var = np.full((dim, dim), 1 / (dim * (dim + 2)))
    np.fill_diagonal(var, 3 / (dim * (dim + 2)) - 1 / dim**2)
    assert len(u) > 20_000
    assert np.all(np.abs(moments - np.eye(dim) / dim) < 5 * np.sqrt(var / len(u)))


def test_rotinv_direction_coordinate_is_uniform_in_3d():
    # Archimedes: a coordinate of a uniform point of S^2 is uniform on [-1, 1]
    u = rotinv_directions(3, 1000)
    for i in range(3):
        assert kstest(u[:, i], "uniform", args=(-1.0, 2.0)).pvalue > 0.001


def test_rotinv_latents_are_radii():
    spec = rotinv_spec(Constant(0.5), dim=3, point=PoissonRate(2.0), seed=34)
    g = sample(spec, 6.0)
    for v, r in zip(g.vertices, g.latents):
        assert math.sqrt(sum(c * c for c in v)) == pytest.approx(r, rel=1e-12)


def test_rotinv_radial_table_controls_shells():
    # only the first unit-volume shell is populated
    spec = rotinv_spec(Constant(0.0), dim=2, point=RadialTable((4.0,)), seed=55)
    vd = math.pi  # unit-ball volume in 2d
    seen = 0
    for t in range(50):
        g = sample(reseeded(spec, t), 5.0)
        seen += g.n_vertices
        for r in g.latents:
            assert vd * r**2 < 1.0
    assert seen > 0


def test_rotinv_constant_kernel_edge_moment():
    # E[#edges] = p E[K(K-1)]/2 with K ~ Poisson(lam*n), so p (lam n)^2 / 2
    lam, n, p = 2.0, 3.0, 0.3
    spec = rotinv_spec(Constant(p), dim=2, point=PoissonRate(lam), seed=88)
    table = sample_table(spec, n, derive_seeds(spec.seed, np.arange(3000)))
    mean, se = mc_mean(np.diff(table.edge_starts()))
    assert abs(mean - p * (lam * n) ** 2 / 2.0) < 3 * se


def test_rotinv_hard_distance_edges_match_geometry():
    spec = rotinv_spec(HardDistance(0.6), dim=2, point=PoissonRate(3.0), seed=101)
    g = sample(spec, 8.0)
    pts = list(g.vertices)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.dist(pts[i], pts[j])
            assert ((i, j) in g.edges) == (d <= 0.6)


def test_rotinv_restriction_exact():
    spec = rotinv_spec(SoftDistance(0.7, 2.0), dim=2, point=PoissonRate(3.0), seed=44)
    for seed in derive_seeds(spec.seed, np.arange(50)).tolist():
        s = reseeded(spec, seed)
        big = sample(s, 8.0)
        small = sample(s, 2.0)
        got = restrict_table(big, window_for(s, 2.0))
        assert got.vertices == small.vertices
        assert got.edges == small.edges
        assert got.latents.tolist() == small.latents.tolist()


@st.composite
def _projective_cases(draw):
    """A valid spec of any family (broken fixtures aside) and windows n < m."""
    seed = draw(st.integers(0, 2**64 - 1))
    family = draw(st.sampled_from(["graphon", "graphex", "rotinv"]))
    if family == "graphon":
        g = draw(st.integers(1, 3))
        cells = draw(st.lists(st.floats(0, 1), min_size=g * g, max_size=g * g))
        grid = tuple(tuple(cells[min(a, b) * g + max(a, b)] for b in range(g)) for a in range(g))
        kernel = draw(st.sampled_from([Constant(cells[0]), GraphonGrid(grid)]))
        n = draw(st.integers(1, 30))
        return graphon_spec(kernel, seed), n, draw(st.integers(n + 1, 40))
    if family == "graphex":
        y_max = draw(st.floats(1e-3, 3.0))
        kernel = draw(draw(st.sampled_from([
            st.builds(GraphexIndicator, st.floats(0, y_max)),
            st.builds(GraphexProduct, st.floats(1e-3, y_max)),
        ])))
        n = draw(st.floats(1e-3, 6.0))
        return graphex_spec(kernel, y_max, seed), n, draw(st.floats(n, 8.0, exclude_min=True))
    kernel = draw(draw(st.sampled_from([
        st.builds(HardDistance, st.sampled_from([0.0, 1e-9]) | st.floats(0, 2.0)),
        st.builds(SoftDistance, st.floats(1e-3, 3.0), st.floats(0.1, 4.0)),
        st.builds(RadialSum, st.floats(-1.0, 4.0)),
        st.builds(HyperbolicSoft, st.floats(0.0, 5.0), st.just(1e-3) | st.floats(1e-3, 2.0)),
        st.just(FixedDirectionIndicator()),
    ])))
    point = draw(draw(st.sampled_from([
        st.builds(PoissonRate, st.just(50.0) | st.floats(1e-3, 50.0)),
        st.builds(RadialTable, st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6)),
    ])))
    n = draw(st.floats(1e-3, 3.0))
    spec = rotinv_spec(kernel, draw(st.integers(2, 6)), point, seed)
    return spec, n, draw(st.floats(n, 4.0, exclude_min=True))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_projective_cases())
@example((rotinv_spec(HardDistance(1e-9), 6, PoissonRate(50.0), seed=1), 1.5, 4.0))
@example((rotinv_spec(HyperbolicSoft(1.0, 1e-3), 3, PoissonRate(50.0), seed=2), 0.7, 3.2))
@example((rotinv_spec(SoftDistance(0.05, 4.0), 6, RadialTable((50.0, 0.0, 50.0)), seed=2**64 - 1),
          2.5, 4.0))
@example((graphex_spec(GraphexProduct(2.5), y_max=3.0, seed=3), 2.7, 7.9))
def test_sample_at_m_restricts_to_sample_at_n(case):
    spec, n, m = case
    restricted = restrict_table(sample(spec, m), window_for(spec, n))
    assert restricted == sample(spec, n)


def _scalar_types(graph) -> set:
    comps = [c for v in graph.vertices for c in (v if isinstance(v, tuple) else (v,))]
    comps += graph.latents.tolist() + [i for e in graph.edges for i in e]
    return {type(c) for c in comps}


@pytest.mark.parametrize(
    "spec, sizes",
    [
        (graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=5), (1, 7, 30)),
        (graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=6), (0.5, 3.0, 9.0)),
        (rotinv_spec(SoftDistance(0.7, 2.0), dim=2, point=PoissonRate(3.0), seed=7), (1.0, 6.0)),
        (rotinv_spec(HardDistance(0.5), dim=3, point=RadialTable((2.0, 0.0, 4.0)), seed=8),
         (0.5, 2.0, 5.0)),
    ],
    ids=lambda v: v.family if isinstance(v, FamilySpec) else str(v),
)
def test_trusted_construction_matches_validating_constructor(spec, sizes):
    for n in sizes:
        g = sample(spec, n)
        smaller = (n // 2, n // 3) if spec.family == "graphon" else (n / 2, n / 3)
        graphs = [g] + [
            restrict_table(g, window_for(spec, m)) for m in smaller if m > 0
        ]
        for h in graphs:
            made = make_graph(h.window, h.vertices, h.edges, h.latents, h.family, h.fingerprint)
            assert made == h
            assert type(h.vertices) is tuple and isinstance(h.edges, collections.abc.Set)
            assert h.edges == frozenset(map(tuple, h.ends.tolist()))
            assert h.latents.dtype == np.float64 and h.latents.shape == (h.n_vertices,)
            assert _scalar_types(h) <= {int, float}


def _held_bytes(a: np.ndarray) -> int:
    # a view keeps the whole of the array it was cut from
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


def test_edge_tables_are_sized_for_their_contents():
    # an edge is one row of two int64 indices; a frozenset of tuples took
    # 4 to 6.7 table slots of 16 bytes per edge, plus the tuples
    spec = graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=42)
    g = sample(spec, 300)
    graphs = [
        g,
        restrict_table(g, window_for(spec, 299)),
        make_graph(g.window, g.vertices, g.edges),
        sample(graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=42), 60.0),
        sample(reseeded(spec, int(derive_seeds(7, [3])[0])), 100),
    ]
    assert g.n_edges > 19_000
    for h in graphs:
        assert _held_bytes(h.ends) <= 64 * h.n_edges + 1024


def test_restrict_graph_rejects_window_of_another_kind():
    g = sample(graphon_spec(Constant(0.5), seed=1), 6)
    with pytest.raises(ValueError, match="kind"):
        restrict_table(g, make_window(WindowKind.REAL_INTERVAL, 3.0))
    ball = sample(rotinv_spec(Constant(0.5), dim=2, point=PoissonRate(3.0), seed=1), 4.0)
    with pytest.raises(ValueError, match="dimension"):
        restrict_table(ball, make_window(WindowKind.EUCLIDEAN_BALL, 2.0, dim=3))
    with pytest.raises(ValueError, match="exceeds"):
        restrict_table(g, make_window(WindowKind.INTEGER_PREFIX, 7))
    assert restrict_table(ball, ball.window) == ball  # the graph's own window is allowed


# --- geometric kernel forms ----------------------------------------------------


def geo_prob_matrix(kernel, pts, radii):
    """The whole pair matrix: the broadcasting kernel on [:, None] views."""
    return geo_edge_prob(kernel, pts[:, None], radii[:, None], pts[None, :], radii[None, :])


def test_geo_kernel_matrices():
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [-1.5, 0.0]])
    radii = np.array([1.0, 2.0, 1.5])
    hard = geo_prob_matrix(HardDistance(2.3), pts, radii)
    assert hard[0, 1] == 1.0  # dist sqrt(5) ~ 2.236
    assert hard[0, 2] == 0.0 and hard[1, 2] == 0.0  # dists 2.5 exactly
    soft = geo_prob_matrix(SoftDistance(1.0, 2.0), pts, radii)
    assert soft[0, 1] == pytest.approx(math.exp(-5.0))
    rad = geo_prob_matrix(RadialSum(3.0), pts, radii)
    assert rad[0, 1] == 1.0 and rad[1, 2] == 0.0
    fixed = geo_prob_matrix(FixedDirectionIndicator(), pts, radii)
    assert fixed[0, 1] == 0.0 and fixed[0, 0] == 1.0 and fixed[0, 2] == 0.0


def test_hyperbolic_kernel_formula():
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])  # right angle between directions
    radii = np.array([1.0, 2.0])
    got = geo_prob_matrix(HyperbolicSoft(R=2.0, T=0.5), pts, radii)[0, 1]
    dh = math.acosh(math.cosh(1.0) * math.cosh(2.0))  # cos(pi/2) kills the second term
    want = 1.0 / (1.0 + math.exp((dh - 2.0) / 1.0))
    assert got == pytest.approx(want, rel=1e-12)


# --- tiled edge drawing --------------------------------------------------------


def _rotinv(kernel):
    return rotinv_spec(kernel, dim=2, point=PoissonRate(3.0), seed=91)


@pytest.mark.parametrize(
    "spec, n",
    [
        (graphon_spec(Constant(0.4), seed=81), 30),
        (graphon_spec(GraphonGrid(((0.9, 0.1, 1.0), (0.1, 0.0, 0.5), (1.0, 0.5, 0.3))), 82), 30),
        (graphon_spec(WindowScaledConstant(1.0), seed=83), 30),
        (graphex_spec(GraphexIndicator(0.5), y_max=2.0, seed=84), 12.0),
        (graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=85), 12.0),
        (_rotinv(Constant(0.2)), 10.0),
        (_rotinv(HardDistance(0.6)), 10.0),
        (_rotinv(SoftDistance(0.5, 1.5)), 10.0),
        (_rotinv(RadialSum(2.0)), 10.0),
        (_rotinv(HyperbolicSoft(2.5, 0.4)), 10.0),
        (_rotinv(FixedDirectionIndicator()), 10.0),
    ],
    ids=lambda v: f"{v.family}-{type(v.kernel).__name__}" if isinstance(v, FamilySpec) else str(v),
)
def test_tiled_edges_match_whole_matrix_reference(monkeypatch, spec, n):
    """Many small tiles give the edges of one whole-matrix evaluation plus keyed coins."""
    monkeypatch.setattr(samplers, "TILE_PAIRS", 64)
    draw, seen = samplers._draw_edges, []

    def spy(prf, keys, block):
        tiles = []

        def recorded(rows, cols):
            tiles.append((rows, cols, block(rows, cols)))
            return tiles[-1][2]

        edges = draw(prf, keys, recorded)
        seen.append((prf, keys, block, edges, tiles))
        return edges

    monkeypatch.setattr(samplers, "_draw_edges", spy)
    sample(spec, n)
    ((prf, keys, block, edges, tiles),) = seen
    k = len(keys)
    pmat = block(slice(0, k), slice(0, k))
    assert len(tiles) >= 3
    for rows, cols, tile in tiles:
        assert np.array_equal(tile, pmat[rows, cols])  # bit for bit
    # vertex keys as the reference coins take them: an int or a tuple of ints
    vertex = [tuple(key) if isinstance(key, list) else key for key in keys.rows.tolist()]
    want = []
    for i in range(k):
        for j in range(i + 1, k):
            p = pmat[i, j]
            if p >= 1.0 or (p > 0.0 and reference.edge_coin(prf.seed, vertex[i], vertex[j]) < p):
                want.append((i, j))
    ii, jj = edges
    assert ii.dtype == jj.dtype == np.int64
    assert list(zip(ii.tolist(), jj.tolist())) == want
    # the per-trial cut by searchsorted needs the pairs strictly increasing
    assert np.all(ii < jj)
    assert np.all((np.diff(ii) > 0) | ((np.diff(ii) == 0) & (np.diff(jj) > 0)))


def test_edge_coins_are_drawn_only_for_unsure_pairs(monkeypatch):
    """Tiles whose pairs are all certain, or that keep no pair, draw no edge
    coin; a dense graphon draws one batch per row block of its triangle."""
    draw, calls = samplers.edge_coin_batch, []

    def spy(prf, ids_a, ids_b):
        calls.append(len(ids_a))
        return draw(prf, ids_a, ids_b)

    monkeypatch.setattr(samplers, "edge_coin_batch", spy)
    hard = sample(rotinv_spec(HardDistance(0.5), 3, PoissonRate(3.0), 7), 400)
    assert hard.n_edges > 0 and calls == []
    dense = sample(graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=1), 300)
    assert dense.n_edges > 0 and len(calls) == 6 and sum(calls) == 300 * 299 // 2


_BATCH_CASES = [
    (graphon_spec(Constant(0.4), seed=81), (1, 2, 30)),
    (graphon_spec(GraphonGrid(((0.9, 0.1, 1.0), (0.1, 0.0, 0.5), (1.0, 0.5, 0.3))), 82),
     (1, 2, 30)),
    (graphon_spec(WindowScaledConstant(1.0), seed=83), (1, 2, 30)),
    (graphex_spec(GraphexIndicator(0.5), y_max=2.0, seed=84), (0.5, 12.0)),
    (graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=85), (0.5, 12.0)),
    (_rotinv(Constant(0.2)), (0.3, 10.0)),
    (_rotinv(HardDistance(0.6)), (0.3, 10.0)),
    (_rotinv(SoftDistance(0.5, 1.5)), (0.3, 10.0)),
    (_rotinv(RadialSum(2.0)), (0.3, 10.0)),
    (_rotinv(HyperbolicSoft(2.5, 0.4)), (0.3, 10.0)),
    (_rotinv(FixedDirectionIndicator()), (0.3, 10.0)),
    (rotinv_spec(SoftDistance(1.0, 2.0), dim=9, point=PoissonRate(2.0), seed=86), (0.5, 6.0)),
]


# row blocks of 64 pairs, of the package's 2^14 and of 2^16 pairs, each with
# packed tiles of 64 pairs, of the package's 2^11 and of 2^14 pairs (named by
# the row block): neither budget may move a bit
@pytest.mark.parametrize(
    "tile, packed_pairs",
    [pytest.param(64, 64, id="64"),
     pytest.param(samplers.TILE_PAIRS, samplers.PACKED_PAIRS, id=str(samplers.TILE_PAIRS)),
     pytest.param(2**16, 2**14, id=str(2**16))],
)
@pytest.mark.parametrize(
    "spec, sizes",
    _BATCH_CASES,
    ids=lambda v: f"{v.family}-{type(v.kernel).__name__}" if isinstance(v, FamilySpec) else None,
)
def test_batch_sampler_matches_batch_of_one(monkeypatch, spec, sizes, tile, packed_pairs):
    """One batched call gives, seed for seed, the graphs of sample(reseeded(spec, s), n):
    trial t of the table, cut out, equals the sample of seed t."""
    monkeypatch.setattr(samplers, "TILE_PAIRS", tile)
    monkeypatch.setattr(samplers, "PACKED_PAIRS", packed_pairs)
    draw, triangles = samplers._draw_edges, samplers._triangles
    points, packed = set(), []

    def draw_spy(prf, keys, block):
        points.update(np.diff(keys.starts).tolist())
        return draw(prf, keys, block)

    def triangles_spy(starts):
        packed.append(len(starts) - 1)
        return triangles(starts)

    monkeypatch.setattr(samplers, "_draw_edges", draw_spy)
    monkeypatch.setattr(samplers, "_triangles", triangles_spy)
    edge_seeds = np.array([0, 2**64 - 1], np.uint64)
    seeds = np.concatenate((derive_seeds(spec.seed, np.arange(40)), edge_seeds))
    for n in sizes:
        table = samplers.sample_table(spec, n, seeds)
        assert table.n_trials == len(seeds)
        for t, s in enumerate(seeds.tolist()):
            graph = sample(reseeded(spec, s), n)
            assert trial_graph(table, t, fingerprint(reseeded(spec, s))) == graph
    # trials with no point and with one point, and a tile holding the whole
    # triangles of several trials
    assert {1} <= points if spec.family == "graphon" else {0, 1} <= points
    assert max(packed) > 2


def test_packed_trials_beside_a_trial_past_the_budget():
    """Small trials go into packed tiles, and a trial past PACKED_PAIRS into
    row blocks between them; each trial's edges are its scalar coins' edges."""
    sizes = [3, 2, 0, 4, 70, 1, 5, 3]  # 70 points: 2,415 pairs > 2^11
    assert 70 * 69 // 2 > samplers.PACKED_PAIRS > sum(k * (k - 1) // 2 for k in sizes if k < 70)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    keys = samplers._TrialKeys(np.arange(starts[-1]) * 7 + 1, starts)
    x = (np.arange(starts[-1]) % 9) / 4.0  # p = min(x_i * x_j, 1): some 0, some 1
    seeds = derive_seeds(5, np.arange(len(sizes)))
    tiles = []

    def block(rows, cols):
        tiles.append((rows, cols))
        a, b = samplers._pair_views(x, rows, cols)
        return np.minimum(a * b, 1.0)

    ii, jj = samplers._draw_edges(CoinPRF(seeds), keys, block)
    packed = [rows for rows, _ in tiles if not isinstance(rows, slice)]
    blocks = [rows for rows, _ in tiles if isinstance(rows, slice)]
    assert len(packed) == 2 and blocks  # trials 0-3, then the big one, then 5-7
    assert all(starts[4] <= b.start < starts[5] for b in blocks)
    want = []
    for t, seed in enumerate(seeds.tolist()):
        for i in range(starts[t], starts[t + 1]):
            for j in range(i + 1, starts[t + 1]):
                p = min(x[i] * x[j], 1.0)
                key_i, key_j = keys.rows[i].tolist(), keys.rows[j].tolist()
                if p >= 1.0 or (p > 0.0 and reference.edge_coin(seed, key_i, key_j) < p):
                    want.append((i, j))
    assert list(zip(ii.tolist(), jj.tolist())) == want


def test_rotinv_sampling_memory_is_tiled():
    # ~1200 points in d=3: a whole k x k x d pair matrix would peak near 80 MiB.
    spec = rotinv_spec(HardDistance(0.5), dim=3, point=PoissonRate(3.0), seed=7)
    tracemalloc.start()
    try:
        graph = sample(spec, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_vertices > 1000
    assert peak < 16 * 2**20


def test_dense_sampling_memory_is_tiled():
    # every one of the 44,850 pairs draws a coin; the graph itself takes
    # ~0.3 MiB, and tiles of 2^16 pairs of kernel, index and coin
    # temporaries would make the peak 4.5 MiB
    spec = graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=42)
    sample(spec, 300)
    tracemalloc.start()
    try:
        graph = sample(spec, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_edges > 19_000
    assert peak < 2.5 * 2**20


# --- extend_sample --------------------------------------------------------------


def test_extend_then_restrict_recovers_graphon_sample():
    spec = graphon_spec(Constant(0.5), seed=61)
    g5 = sample(spec, 5)
    g9 = extend_sample(spec, g5, 5, 9)
    back = restrict_table(g9, window_for(spec, 5))
    assert back.vertices == g5.vertices and back.edges == g5.edges
    assert back.latents.tolist() == g5.latents.tolist()


def test_extend_with_equal_sizes_is_identity():
    spec = graphon_spec(Constant(0.5), seed=62)
    g = sample(spec, 5)
    assert extend_sample(spec, g, 5, 5) == g


def test_extend_rejects_foreign_graph():
    spec = graphon_spec(Constant(0.5), seed=63)
    other = graphon_spec(Constant(0.5), seed=64)
    g = sample(other, 5)
    with pytest.raises(SpecMismatchError):
        extend_sample(spec, g, 5, 9)
    with pytest.raises(SpecMismatchError):
        extend_sample(other, g, 4, 9)  # wrong source size


def test_extend_rejects_graph_from_coin_version_1():
    # a v1 graph carries the fingerprint of the spec alone, without COIN_VERSION
    spec = graphon_spec(Constant(0.5), seed=66)
    blob = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    v1 = dataclasses.replace(
        sample(spec, 5), fingerprint=hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    )
    with pytest.raises(SpecMismatchError):
        extend_sample(spec, v1, 5, 9)


def test_extend_names_what_an_empty_sample_or_graph_lacks():
    # an edited graph is refused, naming its first difference, also where
    # one side holds no vertex or no edge at all
    dense = graphon_spec(Constant(0.0), seed=67)
    g = sample(dense, 3)
    assert g.n_vertices == 3 and g.n_edges == 0
    first = (1, g.latents[0].item())
    sparse = graphex_spec(GraphexIndicator(1.5), y_max=2.0, seed=65)
    empty = sample(sparse, 0.01)
    assert empty.n_vertices == 0
    cases = [
        (dense, 3, make_graph(g.window, g.labels, [(0, 2)], g.latents, g.family, g.fingerprint),
         "edge (1, 3) is only in the graph"),
        (dense, 3, make_graph(g.window, (), (), None, g.family, g.fingerprint),
         f"vertex 0 (label, latent) is None in the graph, {first!r} in the sample"),
        (sparse, 0.01, make_graph(empty.window, (0.005,), (), (0.5,), "graphex", empty.fingerprint),
         "vertex 0 (label, latent) is (0.005, 0.5) in the graph, None in the sample"),
    ]
    for spec, n, graph, named in cases:
        with pytest.raises(SpecMismatchError, match=re.escape(named)):
            extend_sample(spec, graph, n, 2 * n)


def test_extend_keeps_graphex_window_edges():
    spec = graphex_spec(GraphexIndicator(1.5), y_max=2.0, seed=65)
    g1 = sample(spec, 1.0)
    g4 = extend_sample(spec, g1, 1.0, 4.0)
    w1 = window_for(spec, 1.0)
    assert restrict_table(g4, w1) == g1


# --- specs and fingerprints ------------------------------------------------------


def test_spec_dict_roundtrip():
    specs = [
        graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=1),
        graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=2),
        rotinv_spec(HyperbolicSoft(3.0, 0.4), dim=2, point=PoissonRate(1.5), seed=3),
        rotinv_spec(RadialSum(2.0), dim=3, point=RadialTable((1.0, 2.0)), seed=4),
    ]
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_fingerprint_tracks_seed_and_kernel():
    a = graphon_spec(Constant(0.5), seed=1)
    assert fingerprint(a) == fingerprint(graphon_spec(Constant(0.5), seed=1))
    assert fingerprint(a) != fingerprint(graphon_spec(Constant(0.5), seed=2))
    assert fingerprint(a) != fingerprint(graphon_spec(Constant(0.6), seed=1))


def test_spec_seeds_must_be_64_bit_ints():
    # np.asarray(1.5, dtype=np.uint64) is 1: a float seed would draw seed 1's
    # graph under a fingerprint of its own
    spec = graphon_spec(Constant(0.5), seed=1)
    for seed in (1.5, True, np.float64(3), np.uint64(3), np.array([1], np.uint64)):
        with pytest.raises(TypeError):
            graphon_spec(Constant(0.5), seed)
        with pytest.raises(TypeError):
            reseeded(spec, seed)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            reseeded(spec, seed)
    with pytest.raises(TypeError):
        graphex_spec(GraphexIndicator(0.5), y_max=1.0, seed=1.5)
    with pytest.raises(TypeError):
        rotinv_spec(Constant(0.0), dim=2, point=PoissonRate(1.0), seed=False)


def test_fingerprint_hashes_the_canonical_spec_json():
    specs = [
        graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=1),
        graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=2),
        rotinv_spec(HyperbolicSoft(3.0, 0.4), dim=2, point=PoissonRate(1.5), seed=3),
        rotinv_spec(RadialSum(2.0), dim=3, point=RadialTable((1.0, 2.0)), seed=4),
    ]
    for spec in specs:
        for seed in (0, 7, 2**64 - 1):
            data = dict(spec_to_dict(reseeded(spec, seed)), coin_version=4)
            blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
            assert fingerprint(reseeded(spec, seed)) == hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda v: Constant(v), id="Constant.p"),
        pytest.param(lambda v: GraphonGrid(((v,),)), id="GraphonGrid.values"),
        pytest.param(lambda v: WindowScaledConstant(v), id="WindowScaledConstant.p"),
        pytest.param(lambda v: GraphexIndicator(v), id="GraphexIndicator.c"),
        pytest.param(lambda v: GraphexProduct(v), id="GraphexProduct.a"),
        pytest.param(lambda v: HardDistance(v), id="HardDistance.r0"),
        pytest.param(lambda v: SoftDistance(v, 1.0), id="SoftDistance.scale"),
        pytest.param(lambda v: SoftDistance(1.0, v), id="SoftDistance.shape"),
        pytest.param(lambda v: RadialSum(v), id="RadialSum.threshold"),
        pytest.param(lambda v: HyperbolicSoft(v, 0.5), id="HyperbolicSoft.R"),
        pytest.param(lambda v: HyperbolicSoft(2.0, v), id="HyperbolicSoft.T"),
        pytest.param(lambda v: PoissonRate(v), id="PoissonRate.rate"),
        pytest.param(lambda v: RadialTable((1.0, v)), id="RadialTable.rates"),
        pytest.param(lambda v: graphex_spec(GraphexIndicator(0.2), v, seed=0), id="y_max"),
    ],
)
def test_nonfinite_parameters_rejected(make):
    make(0.5)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            make(value)


def test_kernel_family_pairing_enforced():
    with pytest.raises(ValueError):
        graphon_spec(GraphexIndicator(1.0), seed=0)
    with pytest.raises(ValueError):
        graphex_spec(Constant(0.5), y_max=1.0, seed=0)
    with pytest.raises(ValueError):
        rotinv_spec(GraphexIndicator(1.0), dim=2, point=PoissonRate(1.0), seed=0)
    with pytest.raises(ValueError):
        rotinv_spec(Constant(0.5), dim=1, point=PoissonRate(1.0), seed=0)


# --- label collisions ------------------------------------------------------------


def _constant_coins(prf, tag, *cols):
    return np.full(np.broadcast_shapes(*(np.shape(c) for c in cols)), 0.5)


@pytest.mark.parametrize(
    "patched, spec, n",
    [
        ("coin_position_batch", graphex_spec(GraphexIndicator(1.0), y_max=2.0, seed=95), 4.0),
        ("coin_batch", rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(3.0), seed=96), 3.0),
    ],
    ids=["graphex", "rotinv"],
)
def test_label_collision_is_a_value_error_naming_seed_and_window(monkeypatch, patched, spec, n):
    monkeypatch.setattr(samplers, patched, _constant_coins)
    with pytest.raises(samplers.LabelCollisionError) as info:
        sample(spec, n)
    assert isinstance(info.value, ValueError)
    message = str(info.value)
    assert f"seed {spec.seed}" in message and f"'size': {n}" in message
