import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from pointgraphs import (
    DyadicSwaps,
    GraphTable,
    GraphexIndicator,
    RandomRotations,
    Transpositions,
    WindowKind,
    apply_table,
    extend_element,
    generator_coins,
    graphex_spec,
    make_graph,
    make_window,
    sample,
    sample_generators,
    serialize_element,
)
from pointgraphs.coins import POSITION_BITS, CoinPRF, coin_batch, gaussians_from_uniforms
from tests.test_pairs import FIG_GRAPH, label_edges


def apply_label(gen_set, g, label):
    """The generator row g of the set acting on one label: apply_table on a
    table of one vertex."""
    one = GraphTable(None, np.array([label]), None, np.zeros((0, 2), np.int64), np.array([0, 1]))
    moved = apply_table(gen_set, np.asarray(g)[None], one).labels.tolist()[0]
    return tuple(moved) if isinstance(moved, list) else moved


def apply_graph(gen_set, g, graph):
    """The generator row g acting on a graph, a table of one trial."""
    return apply_table(gen_set, np.asarray(g)[None], graph)


# a swap row (i, j, k) acts the same under any set of dyadic swaps, and a
# transposition row under any set of transpositions
SWAPS = DyadicSwaps(1024, 40)
PLANE = RandomRotations(2)
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
# the smallest and the largest uniform a coin can take
EXTREMES = (0.0, 1.0 - 2.0**-53)


# up to this many coins per generator, uniforms() lists every corner
CORNER_WIDTH = 10


def uniforms(rng, gen_set, rows):
    """rows of uniforms for sample_generators, after corners of the extreme
    values: every corner while a generator reads at most CORNER_WIDTH
    coins, and 2^CORNER_WIDTH corners drawn with rng beyond that."""
    width = generator_coins(gen_set)
    if width <= CORNER_WIDTH:
        corners = np.array(np.meshgrid(*[EXTREMES] * width)).reshape(width, -1).T
    else:
        corners = rng.choice(EXTREMES, size=(2**CORNER_WIDTH, width))
    return np.vstack([corners, rng.random((rows, width))])


def dyadic_label(rng, n):
    while True:
        x = int(rng.integers(0, math.ceil(n))) + int(
            rng.integers(0, 1 << POSITION_BITS)
        ) * 2.0**-POSITION_BITS
        if x < n:
            return x


# --- apply_label -----------------------------------------------------------


def test_swap_moves_quarter_to_three_quarters():
    assert apply_label(SWAPS, (1, 2, 1), 0.25) == 0.75
    assert apply_label(SWAPS, (1, 2, 1), 0.75) == 0.25


def test_swap_boundary_belongs_to_upper_interval():
    assert apply_label(SWAPS, (1, 2, 1), 0.5) == 1.0  # 0.5 is in (0, 1/2]
    assert apply_label(SWAPS, (1, 2, 1), 0.0) == 0.0  # 0 is in no dyadic interval
    assert apply_label(SWAPS, (1, 2, 1), 1.5) == 1.5  # identity outside support


def test_permutation_identity_outside_support():
    assert apply_label(Transpositions(2), (1, 2), 3) == 3
    assert apply_label(Transpositions(2), (1, 2), 1) == 2


def test_rotation_quarter_turn():
    assert apply_label(PLANE, ROT90, (1.0, 0.0)) == pytest.approx((0.0, 1.0))


def test_apply_label_variant_mismatch():
    with pytest.raises(TypeError):
        apply_label(Transpositions(3), (1, 2), 0.5)
    with pytest.raises(TypeError):
        apply_label(SWAPS, (1, 2, 1), (1.0, 0.0))
    with pytest.raises(TypeError):
        apply_label(PLANE, ROT90, 1)
    with pytest.raises(TypeError):
        apply_label(RandomRotations(3), ROT90, (1.0, 0.0))


# --- apply_graph ------------------------------------------------------------


def test_apply_graph_relabels_fig_graph():
    got = apply_graph(Transpositions(4), (1, 2), FIG_GRAPH)
    assert got.vertices == (2, 1, 3, 4)
    assert got.edges == FIG_GRAPH.edges and got.window == FIG_GRAPH.window
    assert label_edges(got) == {frozenset(e) for e in [(2, 1), (1, 3), (3, 4), (4, 1)]}


def test_apply_graph_identity():
    # a transposition of labels the graph does not hold, and one done twice
    assert apply_graph(Transpositions(6), (5, 6), FIG_GRAPH) == FIG_GRAPH
    once = apply_graph(Transpositions(4), (2, 4), FIG_GRAPH)
    assert once != FIG_GRAPH and apply_graph(Transpositions(4), (2, 4), once) == FIG_GRAPH


def test_apply_graph_swap_missing_labels_is_noop():
    w2 = make_window(WindowKind.REAL_INTERVAL, 2.0)
    g = make_graph(w2, (0.1, 1.9), [(0, 1)], latents=(0.5, 0.25), family="graphex")
    # swaps (0.25,0.5] and (0.5,0.75]
    assert apply_graph(DyadicSwaps(2.0, 2), (2, 3, 2), g) == g


# --- extend_element ---------------------------------------------------------


def test_extend_permutation_fixes_new_points():
    w2 = make_window(WindowKind.INTEGER_PREFIX, 2)
    w4 = make_window(WindowKind.INTEGER_PREFIX, 4)
    rows = np.array([[1, 2], [2, 1]])
    got = extend_element(Transpositions(2), rows, w2, w4)
    assert got is rows
    for g in got:
        assert [apply_label(Transpositions(4), g, x) for x in (1, 2, 3, 4)] == [2, 1, 3, 4]
    with pytest.raises(ValueError, match="degree 3"):
        extend_element(Transpositions(3), rows, w2, w4)


def test_extend_swap_word_unchanged():
    w1 = make_window(WindowKind.REAL_INTERVAL, 1.0)
    w5 = make_window(WindowKind.REAL_INTERVAL, 5.0)
    rows = np.array([[1, 2, 1], [2, 1, 1]])
    assert extend_element(DyadicSwaps(1.0, 1), rows, w1, w5) is rows


def test_extend_rotation_identity_embedding():
    w1 = make_window(WindowKind.EUCLIDEAN_BALL, 1.0, dim=2)
    w9 = make_window(WindowKind.EUCLIDEAN_BALL, 9.0, dim=2)
    rows = ROT90[None]
    assert extend_element(PLANE, rows, w1, w9) is rows
    with pytest.raises(ValueError, match="dimension"):
        extend_element(RandomRotations(3), rows, w1, w9)


def test_extend_rejects_swap_support_outside_window():
    w1 = make_window(WindowKind.REAL_INTERVAL, 1.0)
    w2 = make_window(WindowKind.REAL_INTERVAL, 2.0)
    rows = np.array([[1, 2, 1], [3, 4, 1]])  # the second reaches up to 2
    with pytest.raises(ValueError, match=r"swap \(3, 4, 1\)"):
        extend_element(DyadicSwaps(1.0, 1), rows, w1, w2)


def test_extend_rejects_kind_mismatch():
    w1 = make_window(WindowKind.INTEGER_PREFIX, 1)
    w2 = make_window(WindowKind.INTEGER_PREFIX, 2)
    w4 = make_window(WindowKind.REAL_INTERVAL, 4.0)
    with pytest.raises(ValueError, match="share a kind"):
        extend_element(Transpositions(2), np.array([[1, 2]]), w2, w4)
    with pytest.raises(ValueError, match="nested"):
        extend_element(Transpositions(2), np.array([[1, 2]]), w2, w1)


@pytest.mark.parametrize(
    "gen_set, rows, own",
    [
        (Transpositions(2), np.array([[1, 2]]), WindowKind.INTEGER_PREFIX),
        (DyadicSwaps(1.0, 1), np.array([[1, 2, 1]]), WindowKind.REAL_INTERVAL),
        (PLANE, ROT90[None], WindowKind.EUCLIDEAN_BALL),
    ],
    ids=["transpositions", "dyadic-swaps", "rotations"],
)
def test_extend_rejects_a_set_on_windows_of_another_kind(gen_set, rows, own):
    for kind in [k for k in WindowKind if k is not own]:
        dim = 2 if kind is WindowKind.EUCLIDEAN_BALL else None
        w1, w4 = make_window(kind, 1, dim=dim), make_window(kind, 4, dim=dim)
        with pytest.raises(ValueError, match="act on"):
            extend_element(gen_set, rows, w1, w4)


# --- swaps applied twice ---------------------------------------------------


def test_swap_composed_with_itself_is_identity():
    for x in [0.0, 0.125, 0.25, 0.5, 0.625, 1.0, 1.75]:
        assert apply_label(SWAPS, (1, 2, 1), apply_label(SWAPS, (1, 2, 1), x)) == x


# --- generator sampling -----------------------------------------------------


def test_transpositions_of_two_always_swap():
    gen = Transpositions(2)
    rows = sample_generators(gen, uniforms(np.random.default_rng(0), gen, 20))
    assert rows.dtype == np.int64 and rows.shape == (20 + 4, 2)
    assert {tuple(g) for g in rows.tolist()} == {(1, 2), (2, 1)}


def test_sampled_transpositions_move_two_labels_in_range():
    gen = Transpositions(5)
    for a, b in sample_generators(gen, uniforms(np.random.default_rng(3), gen, 200)).tolist():
        assert a != b and 1 <= min(a, b) and max(a, b) <= 5


def test_dyadic_swaps_n1_kmax1_unique_element():
    gen = DyadicSwaps(1, 1)
    rows = sample_generators(gen, uniforms(np.random.default_rng(0), gen, 20))
    assert rows.dtype == np.int64 and rows.shape == (20 + 8, 3)
    assert {tuple(g) for g in rows.tolist()} == {(1, 2, 1), (2, 1, 1)}


def test_sampled_swaps_fit_in_window():
    gen = DyadicSwaps(2.0, 3)
    for i, j, k in sample_generators(gen, uniforms(np.random.default_rng(7), gen, 200)).tolist():
        assert max(i, j) * 2.0**-k <= 2.0
        assert i != j and k <= 3


def test_sampled_rotations_are_orthogonal():
    for dim in (2, 3, 4):
        gen = RandomRotations(dim)
        qs = sample_generators(gen, np.random.default_rng(11).random((20, generator_coins(gen))))
        assert qs.shape == (20, dim, dim)
        for q in qs:
            assert np.max(np.abs(q.T @ q - np.eye(dim))) < 1e-10
            assert abs(np.linalg.det(q) - 1.0) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_rotations_at_extreme_corners_are_rotations(dim):
    # RandomRotations(5) reads 26 coins a generator: 2^26 corners are too many to list
    gen = RandomRotations(dim)
    us = uniforms(np.random.default_rng(dim), gen, 200)
    assert len(us) == 200 + min(2 ** generator_coins(gen), 2**CORNER_WIDTH)
    qs = sample_generators(gen, us)
    assert np.max(np.abs(np.swapaxes(qs, 1, 2) @ qs - np.eye(dim))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(qs) - 1.0)) <= 1e-14


def keyed_rotations(dim: int, rows: int):
    """rows Haar rotations of R^dim from keyed coins, as the harness draws
    them, and the Gaussian matrices they are built from."""
    gen = RandomRotations(dim)
    us = coin_batch(CoinPRF(dim), "generator", np.arange(rows)[:, None], np.arange(generator_coins(gen)))
    z = gaussians_from_uniforms(us)[:, : dim * dim].reshape(rows, dim, dim)
    return sample_generators(gen, us), z


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_rotations_are_orthogonal_to_1e_14_with_determinant_one(dim):
    gen = RandomRotations(dim)
    # rows of extreme coins give zero Gaussians, so singular and zero matrices
    corners = np.random.default_rng(dim).choice(EXTREMES, size=(64, generator_coins(gen)))
    qs = np.concatenate((keyed_rotations(dim, 2000)[0], sample_generators(gen, corners)))
    gram = np.swapaxes(qs, 1, 2) @ qs - np.eye(dim)
    assert np.max(np.abs(gram)) <= 1e-14
    assert np.max(np.abs(np.linalg.det(qs) - 1.0)) <= 1e-14


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_rotations_match_lapack_qr_with_mezzadri_signs(dim):
    qs, z = keyed_rotations(dim, 2000)
    q, r = np.linalg.qr(z)
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    assert np.max(np.abs(qs - q)) <= 1e-13


def test_plane_rotations_turn_by_a_uniform_angle():
    qs, _ = keyed_rotations(2, 5000)
    turns = np.arctan2(qs[:, 1, 0], qs[:, 0, 0]) / (2 * math.pi) % 1.0
    assert kstest(turns, "uniform").pvalue > 0.001


def test_space_rotation_traces_have_haar_moments():
    # a Haar rotation of R^3 has E tr = 0 and E tr^2 = 1, with variances 1
    # and 2 (E tr^4 = 3); allow five standard errors
    qs, _ = keyed_rotations(3, 20000)
    tr = qs[:, 0, 0] + qs[:, 1, 1] + qs[:, 2, 2]
    assert abs(tr.mean()) < 5 * math.sqrt(1 / len(tr))
    assert abs((tr * tr).mean() - 1.0) < 5 * math.sqrt(2 / len(tr))


def test_a_generator_depends_on_its_own_row_only():
    rng = np.random.default_rng(12)
    for gen in (Transpositions(7), DyadicSwaps(3.0, 4), RandomRotations(3)):
        us = rng.random((50, generator_coins(gen)))
        batch = sample_generators(gen, us)
        alone = np.concatenate([sample_generators(gen, us[i : i + 1]) for i in range(len(us))])
        assert batch.shape == alone.shape and batch.tobytes() == alone.tobytes()


# --- exactness and measure preservation --------------------------------------


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=63), st.data())
def test_swap_involution_exact_on_dyadic_labels(seed, data):
    rng = np.random.default_rng(seed)
    n = 4.0
    k = data.draw(st.integers(min_value=0, max_value=5))
    m = math.floor(n * 2**k)
    i = data.draw(st.integers(min_value=1, max_value=m))
    j = data.draw(st.integers(min_value=1, max_value=m).filter(lambda v: v != i))
    x = dyadic_label(rng, n)
    assert apply_label(SWAPS, (i, j, k), apply_label(SWAPS, (i, j, k), x)) == x


def test_swap_generators_past_exactness_limit_rejected():
    DyadicSwaps(1024, 40)
    with pytest.raises(ValueError, match="1024"):
        DyadicSwaps(1024.5, 3)


def test_swap_twice_restores_every_sampled_label_at_n_1024():
    labels = sample(graphex_spec(GraphexIndicator(0.25), y_max=1.0, seed=11), 1024).vertices
    assert len(labels) > 100 and max(labels) > 1000
    rng = np.random.default_rng(1024)
    for x in labels:
        k = int(rng.integers(0, 41))
        i = max(1, math.ceil(x * 2**k))  # the dyadic interval holding x
        theta = (i, 1024 * 2**k + 1 - i, k)  # and its mirror image
        y = apply_label(SWAPS, theta, x)
        assert y != x and 0.0 < y <= 1024.0
        assert apply_label(SWAPS, theta, y) == x


def test_swap_box_count_identity():
    # counting labels that land in a box after the swap equals counting in
    # the preimage of the box, computed independently
    rng = np.random.default_rng(123)
    theta = (1, 3, 2)
    labels = [dyadic_label(rng, 1.0) for _ in range(5000)]
    moved = [apply_label(SWAPS, theta, x) for x in labels]
    lo, hi = 0.5, 0.75  # the box (preimage under theta is (0, 0.25] here)
    direct = sum(1 for x in moved if lo < x <= hi)
    preimage = sum(1 for x in labels if lo < apply_label(SWAPS, theta, x) <= hi)
    assert direct == preimage
    explicit = sum(1 for x in labels if 0.0 < x <= 0.25)
    assert direct == explicit


def test_swap_preserves_uniformity_ks():
    from pointgraphs import ks_two_sample

    rng = np.random.default_rng(99)
    labels = [dyadic_label(rng, 2.0) for _ in range(4000)]
    # two successive swaps: (1, 4, 2), then (2, 3, 1)
    moved = [apply_label(SWAPS, (2, 3, 1), apply_label(SWAPS, (1, 4, 2), x)) for x in labels]
    fresh = [dyadic_label(rng, 2.0) for _ in range(4000)]
    _, p = ks_two_sample(moved, fresh)
    assert p > 0.001


def test_rotations_preserve_norm():
    rng = np.random.default_rng(17)
    gen = RandomRotations(3)
    for q in sample_generators(gen, rng.random((200, generator_coins(gen)))):
        x = tuple(rng.standard_normal(3) * 5.0)
        before = math.sqrt(sum(c * c for c in x))
        after = math.sqrt(sum(c * c for c in apply_label(gen, q, x)))
        assert abs(before - after) < 1e-10


# --- serialization -----------------------------------------------------------


def test_serialize_forms():
    assert serialize_element(Transpositions(3), np.array([1, 2])) == "swap:(1,2)"
    assert serialize_element(Transpositions(20000), np.array([20000, 2])) == "swap:(20000,2)"
    assert serialize_element(DyadicSwaps(1.0, 1), np.array([1, 2, 1])) == "dyadic:[(1,2,1)]"
    rot = serialize_element(PLANE, ROT90)
    assert rot == "rot:d=2;rows=0,-1;1,0"
