import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

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
    graph_to_pairs,
    graphex_spec,
    graphon_spec,
    make_window,
    reseeded,
    restrict,
    restrict_graph,
    rotinv_spec,
    sample,
    spec_from_dict,
    spec_to_dict,
    window_for,
)
from pointgraphs import samplers
from pointgraphs.coins import coin, derive_seed
from pointgraphs.kernels import FixedDirectionIndicator, geo_prob_block


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
    hits = sum(
        1
        for t in range(trials)
        if (0, 1) in sample(reseeded(spec, derive_seed(spec.seed, t)), 2).edges
    )
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
    n, y_max = 2.0, 1.0
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
    # positions are uniform over [0, n)
    assert one_sample_ks_vs_uniform(np.asarray(xs) / n) < 0.02


def test_rotinv_volume_coordinates_are_uniform():
    # for a homogeneous process the ball-volume coordinate V_d r^d is U(0, n)
    import pointgraphs

    n = 4.0
    spec = rotinv_spec(Constant(0.0), dim=3, point=PoissonRate(2.0), seed=271)
    vols = []
    for t in range(800):
        g = sample(reseeded(spec, derive_seed(spec.seed, t)), n)
        vd = pointgraphs.unit_ball_volume(3)
        vols.extend(vd * r**3 / n for r in g.latents)
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
        assert restrict(graph_to_pairs(big), w1).pairs == graph_to_pairs(small).pairs


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


# --- geometric kernel forms ----------------------------------------------------


def test_geo_kernel_matrices():
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [-1.5, 0.0]])
    radii = np.array([1.0, 2.0, 1.5])
    hard = geo_prob_block(HardDistance(2.3), pts, radii, pts, radii)
    assert hard[0, 1] == 1.0  # dist sqrt(5) ~ 2.236
    assert hard[0, 2] == 0.0 and hard[1, 2] == 0.0  # dists 2.5 exactly
    soft = geo_prob_block(SoftDistance(1.0, 2.0), pts, radii, pts, radii)
    assert soft[0, 1] == pytest.approx(math.exp(-5.0))
    rad = geo_prob_block(RadialSum(3.0), pts, radii, pts, radii)
    assert rad[0, 1] == 1.0 and rad[1, 2] == 0.0
    fixed = geo_prob_block(FixedDirectionIndicator(), pts, radii, pts, radii)
    assert fixed[0, 1] == 0.0 and fixed[0, 0] == 1.0 and fixed[0, 2] == 0.0


def test_hyperbolic_kernel_formula():
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])  # right angle between directions
    radii = np.array([1.0, 2.0])
    got = geo_prob_block(HyperbolicSoft(R=2.0, T=0.5), pts, radii, pts, radii)[0, 1]
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
    want = set()
    for i in range(k):
        for j in range(i + 1, k):
            p = pmat[i, j]
            if p >= 1.0 or (p > 0.0 and coin(prf, "edge", keys[i], keys[j]) < p):
                want.add((i, j))
    assert edges == want


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
    assert restrict(graph_to_pairs(g4), w1).pairs == graph_to_pairs(g1).pairs


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
