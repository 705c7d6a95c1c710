import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointgraphs import (
    DyadicSwaps,
    DyadicSwapWord,
    GraphexIndicator,
    Permutation,
    RandomRotations,
    Rotation,
    Transpositions,
    WindowKind,
    apply_label,
    apply_pairs,
    extend_element,
    graphex_spec,
    make_window,
    pair_config,
    sample,
    sample_generator,
    serialize_element,
    transposition,
)
from pointgraphs.coins import POSITION_BITS
from tests.test_pairs import FIG_PAIRS

ROT90 = Rotation(np.array([[0.0, -1.0], [1.0, 0.0]]))


def dyadic_label(rng, n):
    while True:
        x = int(rng.integers(0, math.ceil(n))) + int(
            rng.integers(0, 1 << POSITION_BITS)
        ) * 2.0**-POSITION_BITS
        if x < n:
            return x


# --- apply_label -----------------------------------------------------------


def test_swap_moves_quarter_to_three_quarters():
    theta = DyadicSwapWord(((1, 2, 1),))
    assert apply_label(theta, 0.25) == 0.75
    assert apply_label(theta, 0.75) == 0.25


def test_swap_boundary_belongs_to_upper_interval():
    theta = DyadicSwapWord(((1, 2, 1),))
    assert apply_label(theta, 0.5) == 1.0  # 0.5 is in (0, 1/2]
    assert apply_label(theta, 0.0) == 0.0  # 0 is in no dyadic interval
    assert apply_label(theta, 1.5) == 1.5  # identity outside support


def test_permutation_identity_outside_support():
    g = transposition(2, 1, 2)
    assert apply_label(g, 3) == 3
    assert apply_label(g, 1) == 2


def test_rotation_quarter_turn():
    assert apply_label(ROT90, (1.0, 0.0)) == pytest.approx((0.0, 1.0))


def test_apply_label_variant_mismatch():
    with pytest.raises(TypeError):
        apply_label(transposition(3, 1, 2), 0.5)
    with pytest.raises(TypeError):
        apply_label(DyadicSwapWord(((1, 2, 1),)), (1.0, 0.0))
    with pytest.raises(TypeError):
        apply_label(ROT90, 1)


# --- apply_pairs ------------------------------------------------------------


def test_apply_pairs_relabels_fig_graph():
    got = apply_pairs(transposition(4, 1, 2), pair_config(FIG_PAIRS))
    want = {(2, 1), (1, 2), (1, 3), (3, 1), (3, 4), (4, 3), (4, 1), (1, 4)}
    assert got.pairs == frozenset(want)


def test_apply_pairs_identity():
    config = pair_config(FIG_PAIRS)
    assert apply_pairs(Permutation(tuple(range(1, 5))), config).pairs == config.pairs


def test_apply_pairs_swap_missing_labels_is_noop():
    config = pair_config([(0.1, 1.9), (1.9, 0.1)])
    theta = DyadicSwapWord(((2, 3, 2),))  # swaps (0.25,0.5] and (0.5,0.75]
    assert apply_pairs(theta, config).pairs == config.pairs


# --- extend_element ---------------------------------------------------------


def test_extend_permutation_fixes_new_points():
    w2 = make_window(WindowKind.INTEGER_PREFIX, 2)
    w4 = make_window(WindowKind.INTEGER_PREFIX, 4)
    got = extend_element(transposition(2, 1, 2), w2, w4)
    assert got == Permutation((2, 1, 3, 4))


def test_extend_swap_word_unchanged():
    w1 = make_window(WindowKind.REAL_INTERVAL, 1.0)
    w5 = make_window(WindowKind.REAL_INTERVAL, 5.0)
    theta = DyadicSwapWord(((1, 2, 1),))
    assert extend_element(theta, w1, w5) is theta


def test_extend_rotation_identity_embedding():
    w1 = make_window(WindowKind.EUCLIDEAN_BALL, 1.0, dim=2)
    w9 = make_window(WindowKind.EUCLIDEAN_BALL, 9.0, dim=2)
    assert extend_element(ROT90, w1, w9) is ROT90


def test_extend_rejects_swap_support_outside_window():
    w1 = make_window(WindowKind.REAL_INTERVAL, 1.0)
    w2 = make_window(WindowKind.REAL_INTERVAL, 2.0)
    with pytest.raises(ValueError):
        extend_element(DyadicSwapWord(((3, 4, 1),)), w1, w2)  # support up to 2


def test_extend_rejects_kind_mismatch():
    w2 = make_window(WindowKind.INTEGER_PREFIX, 2)
    w4 = make_window(WindowKind.REAL_INTERVAL, 4.0)
    with pytest.raises(ValueError):
        extend_element(transposition(2, 1, 2), w2, w4)


# --- swaps applied twice ---------------------------------------------------


def test_swap_composed_with_itself_is_identity():
    theta = DyadicSwapWord(((1, 2, 1),))
    for x in [0.0, 0.125, 0.25, 0.5, 0.625, 1.0, 1.75]:
        assert apply_label(theta, apply_label(theta, x)) == x


# --- generator sampling -----------------------------------------------------


def test_transpositions_of_two_always_swap():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_generator(Transpositions(2), rng) == Permutation((2, 1))


def test_dyadic_swaps_n1_kmax1_unique_element():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = sample_generator(DyadicSwaps(1, 1), rng)
        assert g == DyadicSwapWord(((1, 2, 1),)) or g == DyadicSwapWord(((2, 1, 1),))


def test_sampled_swaps_fit_in_window():
    rng = np.random.default_rng(7)
    for _ in range(200):
        (i, j, k), = sample_generator(DyadicSwaps(2.0, 3), rng).word
        assert max(i, j) * 2.0**-k <= 2.0
        assert i != j and k <= 3


def test_sampled_rotations_are_orthogonal():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        q = sample_generator(RandomRotations(dim), rng)
        assert np.max(np.abs(q.matrix.T @ q.matrix - np.eye(dim))) < 1e-10
        assert abs(np.linalg.det(q.matrix) - 1.0) < 1e-10


def test_rotation_constructor_rejects_reflection():
    with pytest.raises(ValueError):
        Rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        Rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))


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
    theta = DyadicSwapWord(((i, j, k),))
    x = dyadic_label(rng, n)
    assert apply_label(theta, apply_label(theta, x)) == x


def test_swap_words_past_exactness_limit_rejected():
    # (1501, 2501, 0) would send 1500 + 2^-42 to 2500.0 and leave it there
    with pytest.raises(ValueError, match="exactness limit 1024"):
        DyadicSwapWord(((1501, 2501, 0),))
    with pytest.raises(ValueError, match="exactness limit 1024"):
        DyadicSwapWord(((1, 2049, 1),))  # support reaches 1024.5
    DyadicSwapWord(((1, 1024, 0),))
    DyadicSwapWord(((1, 2**50, 40),))


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
        theta = DyadicSwapWord(((i, 1024 * 2**k + 1 - i, k),))  # and its mirror image
        y = apply_label(theta, x)
        assert y != x and 0.0 < y <= 1024.0
        assert apply_label(theta, y) == x


def test_swap_box_count_identity():
    # counting labels that land in a box after the swap equals counting in
    # the preimage of the box, computed independently
    rng = np.random.default_rng(123)
    theta = DyadicSwapWord(((1, 3, 2),))
    labels = [dyadic_label(rng, 1.0) for _ in range(5000)]
    moved = [apply_label(theta, x) for x in labels]
    lo, hi = 0.5, 0.75  # the box (preimage under theta is (0, 0.25] here)
    direct = sum(1 for x in moved if lo < x <= hi)
    preimage = sum(1 for x in labels if lo < apply_label(theta, x) <= hi)
    assert direct == preimage
    explicit = sum(1 for x in labels if 0.0 < x <= 0.25)
    assert direct == explicit


def test_swap_preserves_uniformity_ks():
    from pointgraphs import ks_two_sample

    rng = np.random.default_rng(99)
    labels = [dyadic_label(rng, 2.0) for _ in range(4000)]
    theta = DyadicSwapWord(((1, 4, 2), (2, 3, 1)))
    moved = [apply_label(theta, x) for x in labels]
    fresh = [dyadic_label(rng, 2.0) for _ in range(4000)]
    _, p = ks_two_sample(moved, fresh)
    assert p > 0.001


def test_rotations_preserve_norm():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = sample_generator(RandomRotations(3), rng)
        x = tuple(rng.standard_normal(3) * 5.0)
        before = math.sqrt(sum(c * c for c in x))
        after = math.sqrt(sum(c * c for c in apply_label(q, x)))
        assert abs(before - after) < 1e-10


# --- serialization -----------------------------------------------------------


def test_serialize_forms():
    assert serialize_element(Permutation((2, 1, 3))) == "perm:[2,1,3]"
    assert serialize_element(DyadicSwapWord(((1, 2, 1),))) == "dyadic:[(1,2,1)]"
    rot = serialize_element(ROT90)
    assert rot.startswith("rot:d=2;rows=") and ";" in rot.split("rows=")[1]
