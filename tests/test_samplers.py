import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    contains,
    extend_sample,
    fingerprint,
    graphex_spec,
    graphon_spec,
    make_graph,
    make_window,
    reseeded,
    restrict_graph,
    rotinv_spec,
    sample,
    sample_batch,
    spec_from_dict,
    spec_to_dict,
    window_for,
)
from pointgraphs import samplers
from pointgraphs.coins import coin, derive_seed, derive_seeds
from pointgraphs.kernels import FixedDirectionIndicator, geo_edge_prob


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
    graphs = sample_batch(spec, 2, derive_seeds(spec.seed, np.arange(trials)))
    hits = sum(1 for g in graphs if (0, 1) in g.edges)
    margin = 3 * math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < margin


def test_graphon_restriction_is_induced_subgraph():
    spec = graphon_spec(Constant(0.4), seed=31)
    big = sample(spec, 9)
    small = sample(spec, 5)
    got = restrict_graph(big, window_for(spec, 5))
    assert got.vertices == small.vertices
    assert got.edges == small.edges
    assert got.latents == small.latents


def test_window_scaled_constant_breaks_projectivity():
    spec = graphon_spec(WindowScaledConstant(0.8), seed=3)
    mismatch = 0
    for t in range(200):
        s = reseeded(spec, derive_seed(spec.seed, t))
        if restrict_graph(sample(s, 8), window_for(s, 4)).edges != sample(s, 4).edges:
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
    counts = [sample(reseeded(spec, derive_seed(spec.seed, t)), 2.0).n_edges for t in range(5000)]
    mean, se = mc_mean(counts)
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
    sizes, xs = [], []
    for t in range(3000):
        g = sample(reseeded(spec, derive_seed(spec.seed, t)), n)
        sizes.append(g.n_vertices)
        xs.extend(g.vertices)
    lam = n * y_max
    want = lam - lam * math.exp(-lam)
    mean, se = mc_mean(sizes)
    assert abs(mean - want) < 3 * se
    # positions are uniform over [0, n); with >= 20,000 of them a uniform
    # sample exceeds D = 0.02 with probability ~1e-8 (Kolmogorov tail)
    assert len(xs) >= 20_000
    assert one_sample_ks_vs_uniform(np.asarray(xs) / n) < 0.02


def test_rotinv_volume_coordinates_are_uniform():
    # for a homogeneous process the ball-volume coordinate V_d r^d is U(0, n)
    import pointgraphs

    n = 12.0
    spec = rotinv_spec(Constant(0.0), dim=3, point=PoissonRate(2.0), seed=271)
    vols = []
    for t in range(1000):
        g = sample(reseeded(spec, derive_seed(spec.seed, t)), n)
        vd = pointgraphs.unit_ball_volume(3)
        vols.extend(vd * r**3 / n for r in g.latents)
    # with >= 20,000 points a uniform sample exceeds D = 0.02 with
    # probability ~1e-8 (Kolmogorov tail)
    assert len(vols) >= 20_000
    assert one_sample_ks_vs_uniform(vols) < 0.02


def test_graphon_latents_are_uniform():
    spec = graphon_spec(Constant(0.0), seed=161)
    xs = []
    for t in range(100):
        xs.extend(sample(reseeded(spec, derive_seed(spec.seed, t)), 50).latents)
    assert one_sample_ks_vs_uniform(xs) < 0.03


def test_graphex_restriction_preserves_edge_configuration():
    spec = graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=6)
    for t in range(100):
        s = reseeded(spec, derive_seed(spec.seed, t))
        big = sample(s, 4.0)
        small = sample(s, 1.0)
        w1 = window_for(s, 1.0)
        assert restrict_graph(big, w1) == small


# --- rotation-invariant -------------------------------------------------------


def test_rotinv_zero_kernel_keeps_points_only():
    spec = rotinv_spec(Constant(0.0), dim=2, point=PoissonRate(3.0), seed=13)
    g = sample(spec, 5.0)
    assert g.edges == frozenset()
    assert g.n_vertices > 0
    assert all(contains(g.window, v) for v in g.vertices)


def test_rotinv_point_count_is_poisson_rate_volume():
    spec = rotinv_spec(Constant(0.0), dim=2, point=PoissonRate(3.0), seed=21)
    counts = [
        sample(reseeded(spec, derive_seed(spec.seed, t)), 4.0).n_vertices
        for t in range(2000)
    ]
    mean, se = mc_mean(counts)
    assert abs(mean - 12.0) < 3 * se


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
    counts = [
        sample(reseeded(spec, derive_seed(spec.seed, t)), n).n_edges for t in range(3000)
    ]
    mean, se = mc_mean(counts)
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
    for t in range(50):
        s = reseeded(spec, derive_seed(spec.seed, t))
        big = sample(s, 8.0)
        small = sample(s, 2.0)
        got = restrict_graph(big, window_for(s, 2.0))
        assert got.vertices == small.vertices
        assert got.edges == small.edges
        assert got.latents == small.latents


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
    restricted = restrict_graph(sample(spec, m), window_for(spec, n))
    assert restricted == sample(spec, n)


def _scalar_types(graph) -> set:
    comps = [c for v in graph.vertices for c in (v if isinstance(v, tuple) else (v,))]
    comps += list(graph.latents or ()) + [i for e in graph.edges for i in e]
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
            restrict_graph(g, window_for(spec, m)) for m in smaller if m > 0
        ]
        for h in graphs:
            made = make_graph(h.window, h.vertices, h.edges, h.latents, h.family, h.fingerprint)
            assert made == h
            assert type(h.vertices) is tuple and type(h.edges) is frozenset
            assert type(h.latents) is tuple
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
        restrict_graph(g, window_for(spec, 299)),
        make_graph(g.window, g.vertices, g.edges),
        sample(graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=42), 60.0),
        sample_batch(spec, 100, derive_seeds(7, np.arange(8)))[3],
    ]
    assert g.n_edges > 19_000
    for h in graphs:
        assert _held_bytes(h.ends) <= 64 * h.n_edges + 1024


def test_restrict_graph_rejects_window_of_another_kind():
    g = sample(graphon_spec(Constant(0.5), seed=1), 6)
    with pytest.raises(ValueError, match="kind"):
        restrict_graph(g, make_window(WindowKind.REAL_INTERVAL, 3.0))
    ball = sample(rotinv_spec(Constant(0.5), dim=2, point=PoissonRate(3.0), seed=1), 4.0)
    with pytest.raises(ValueError, match="dimension"):
        restrict_graph(ball, make_window(WindowKind.EUCLIDEAN_BALL, 2.0, dim=3))
    with pytest.raises(ValueError, match="exceeds"):
        restrict_graph(g, make_window(WindowKind.INTEGER_PREFIX, 7))
    assert restrict_graph(ball, ball.window) == ball  # the graph's own window is allowed


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
    want = []
    for i in range(k):
        for j in range(i + 1, k):
            p = pmat[i, j]
            if p >= 1.0 or (p > 0.0 and coin(prf, "edge", keys[i], keys[j]) < p):
                want.append((i, j))
    ii, jj = edges
    assert ii.dtype == jj.dtype == np.int64
    assert list(zip(ii.tolist(), jj.tolist())) == want
    # the per-trial cut by searchsorted needs the pairs strictly increasing
    assert np.all(ii < jj)
    assert np.all((np.diff(ii) > 0) | ((np.diff(ii) == 0) & (np.diff(jj) > 0)))


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


@pytest.mark.parametrize("tile", [64, samplers.TILE_PAIRS])
@pytest.mark.parametrize(
    "spec, sizes",
    _BATCH_CASES,
    ids=lambda v: f"{v.family}-{type(v.kernel).__name__}" if isinstance(v, FamilySpec) else None,
)
def test_batch_sampler_matches_batch_of_one(monkeypatch, spec, sizes, tile):
    """One batched call gives, seed for seed, the graphs of sample(reseeded(spec, s), n)."""
    monkeypatch.setattr(samplers, "TILE_PAIRS", tile)
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
    seeds = np.array([derive_seed(spec.seed, t) for t in range(40)] + [0, 2**64 - 1], np.uint64)
    for n in sizes:
        batch = samplers.sample_batch(spec, n, seeds)
        assert len(batch) == len(seeds)
        for s, graph in zip(seeds.tolist(), batch):
            assert graph == sample(reseeded(spec, s), n)
            assert graph.fingerprint == fingerprint(reseeded(spec, s))
    # trials with no point and with one point, and a tile holding the whole
    # triangles of several trials
    assert {1} <= points if spec.family == "graphon" else {0, 1} <= points
    assert max(packed) > 2


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


# --- extend_sample --------------------------------------------------------------


def test_extend_then_restrict_recovers_graphon_sample():
    spec = graphon_spec(Constant(0.5), seed=61)
    g5 = sample(spec, 5)
    g9 = extend_sample(spec, g5, 5, 9)
    back = restrict_graph(g9, window_for(spec, 5))
    assert back.vertices == g5.vertices and back.edges == g5.edges
    assert back.latents == g5.latents


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


def test_extend_keeps_graphex_window_edges():
    spec = graphex_spec(GraphexIndicator(1.5), y_max=2.0, seed=65)
    g1 = sample(spec, 1.0)
    g4 = extend_sample(spec, g1, 1.0, 4.0)
    w1 = window_for(spec, 1.0)
    assert restrict_graph(g4, w1) == g1


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


def test_fingerprint_hashes_the_canonical_spec_json():
    specs = [
        graphon_spec(GraphonGrid(((0.8, 0.2), (0.2, 0.6))), seed=1),
        graphex_spec(GraphexProduct(1.5), y_max=2.0, seed=2),
        rotinv_spec(HyperbolicSoft(3.0, 0.4), dim=2, point=PoissonRate(1.5), seed=3),
        rotinv_spec(RadialSum(2.0), dim=3, point=RadialTable((1.0, 2.0)), seed=4),
    ]
    for spec in specs:
        for seed in (0, 7, 2**64 - 1):
            data = dict(spec_to_dict(reseeded(spec, seed)), coin_version=2)
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
