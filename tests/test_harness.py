import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pointgraphs import harness as certify
from pointgraphs import (
    Constant,
    DyadicSwaps,
    FixedDirectionIndicator,
    GraphexIndicator,
    GraphonGrid,
    HardDistance,
    PoissonRate,
    Transpositions,
    WindowKind,
    WindowScaledConstant,
    ball_radius,
    chi_square_gof,
    extend_element,
    graphex_spec,
    graphon_spec,
    make_window,
    rotinv_spec,
)
from pointgraphs.coins import CoinPRF, coin_batch
from pointgraphs.windows import contains_column
from tests.test_windows import inside


def test_projectivity_exact_graphon_passes():
    spec = graphon_spec(Constant(0.5), seed=11)
    report = certify.test_projectivity(spec, 4, 8, 500)
    assert report.verdict == "Pass"
    assert report.details["mismatches"] == 0
    assert report.test_name == "projectivity_exact"


def test_projectivity_exact_graphex_passes():
    spec = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=12)
    report = certify.test_projectivity(spec, 1.0, 3.0, 500)
    assert report.passed and report.details["mismatches"] == 0


def test_projectivity_exact_rotinv_passes():
    spec = rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=13)
    report = certify.test_projectivity(spec, 2.0, 5.0, 500)
    assert report.passed and report.details["mismatches"] == 0


def test_projectivity_distributional_rotinv_passes():
    spec = rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=14)
    report = certify.test_projectivity(spec, 2.0, 5.0, 2000, alpha=0.01, mode="distributional")
    assert report.passed
    assert set(report.statistics) == {"edge_count", "max_degree", "triangle_count"}


def test_projectivity_distributional_rejects_window_scaled_family():
    spec = graphon_spec(WindowScaledConstant(0.6), seed=15)
    report = certify.test_projectivity(spec, 3, 6, 2000, alpha=0.01, mode="distributional")
    assert report.verdict == "Fail"


def test_projectivity_validates_arguments():
    spec = graphon_spec(Constant(0.5), seed=16)
    with pytest.raises(ValueError):
        certify.test_projectivity(spec, 6, 6, 500)
    with pytest.raises(ValueError):
        certify.test_projectivity(spec, 3, 6, 100)
    with pytest.raises(ValueError):
        certify.test_projectivity(spec, 3, 6, 500, mode="nonsense")


def test_invariance_graphon_passes():
    spec = graphon_spec(Constant(0.4), seed=17)
    report = certify.test_invariance(spec, 5, 600)
    assert report.passed
    assert set(report.statistics) == {"vertex1_degree", "edge_12"}
    assert report.seeds["generators"][0].startswith("swap:(")


def test_invariance_report_seeds_do_not_grow_with_n():
    # a shown transposition is its pair (a, b), not its mapping of {1..n}:
    # only the digits of a and b grow, so 3 generators of 2 labels each
    # add at most 6 bytes per extra digit of n
    sizes = {}
    for n in (20, 2000):
        report = certify.test_invariance(graphon_spec(Constant(0.001), seed=1), n, 3)
        assert all(g.startswith("swap:(") for g in report.seeds["generators"])
        sizes[n] = len(json.dumps(report.seeds))
    assert sizes[2000] - sizes[20] <= 6 * 2
    assert sizes[2000] < 100


def test_invariance_graphon_grid_passes():
    spec = graphon_spec(GraphonGrid(((0.7, 0.1), (0.1, 0.5))), seed=18)
    report = certify.test_invariance(spec, 5, 600)
    assert report.passed


def test_invariance_graphex_passes():
    spec = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=19)
    report = certify.test_invariance(spec, 2.0, 600, k_max=3)
    assert report.passed
    assert "edges_in_left_half" in report.statistics


def test_invariance_rotinv_passes():
    spec = rotinv_spec(HardDistance(0.4), dim=2, point=PoissonRate(2.0), seed=20)
    report = certify.test_invariance(spec, 4.0, 600)
    assert report.passed
    assert report.seeds["generators"][0].startswith("rot:")


def test_invariance_identity_generator_gives_p_one(monkeypatch):
    spec = graphon_spec(Constant(0.4), seed=21)

    def identity(gen_set, us):
        return np.ones((len(us), 2), dtype=np.int64)  # (1, 1) fixes every label

    monkeypatch.setattr(certify, "sample_generators", identity)
    report = certify.test_invariance(spec, 5, 600)
    assert report.passed
    assert all(p == 1.0 for p in report.p_values.values())


def test_invariance_rejects_fixed_direction_kernel():
    spec = rotinv_spec(FixedDirectionIndicator(), dim=2, point=PoissonRate(3.0), seed=22)
    report = certify.test_invariance(spec, 8.0, 800)
    assert report.verdict == "Fail"


def test_compatibility_all_families_exact():
    graphex = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=3)
    for spec, n, m, k_max in [
        (graphon_spec(Constant(0.5), seed=3), 4, 9, 3),
        (graphex, 2.0, 6.0, 4),
        (rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=3), 2.0, 8.0, 3),
        (rotinv_spec(HardDistance(0.5), dim=3, point=PoissonRate(2.0), seed=3), 1.5, 4.0, 3),
    ]:
        report = certify.test_compatibility(spec, n, m, 2000, k_max=k_max)
        assert report.passed, (spec, report.details)
        assert report.details["label_mismatches"] == 0
        assert report.details["pair_mismatches"] == 0


def _leaky_extension(gen_set, gens, window_n, window_m):
    """A wrong embedding, as a map on the canonical extension's rows.  A
    transposition of n moves n + 1 in its place, a dyadic swap moves its
    second interval one unit up, and a rotation is composed with a fixed
    small one.  The first two move labels across the boundary of window
    n; a rotation keeps norms, so it moves labels but keeps pairs."""
    ext = extend_element(gen_set, gens, window_n, window_m)
    if isinstance(gen_set, Transpositions):
        return np.where(ext == window_n.size, window_n.size + 1, ext)
    if isinstance(gen_set, DyadicSwaps):
        shifted = ext.copy()
        shifted[:, 1] += 2 ** ext[:, 2]  # j + 2^k: the interval one unit up
        return shifted
    c, s = math.cos(1e-3), math.sin(1e-3)
    tilt = np.eye(gen_set.dim)
    tilt[:2, :2] = [[c, -s], [s, c]]
    return ext @ tilt


LEAKY_CASES = {
    "graphon": (graphon_spec(Constant(0.5), seed=3), 4, 9),
    "graphex": (graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=3), 2.0, 6.0),
    "rotinv": (rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=3), 2.0, 8.0),
}


@pytest.mark.parametrize("case", sorted(LEAKY_CASES))
def test_compatibility_fails_on_a_leaky_embedding(monkeypatch, case):
    spec, n, m = LEAKY_CASES[case]
    canonical = certify.test_compatibility(spec, n, m, 1000)
    assert canonical.passed and "first_mismatch" not in canonical.details
    monkeypatch.setattr(certify, "extend_element", _leaky_extension)
    report = certify.test_compatibility(spec, n, m, 1000)
    assert report.verdict == "Fail"
    assert report.details["label_mismatches"] > 0
    if case != "rotinv":
        assert report.details["pair_mismatches"] > 0
    first = report.details["first_mismatch"]
    assert 0 <= first["trial"] < 1000
    if case == "graphon":  # only a transposition of n leaks
        pair = first["generator"].removeprefix("swap:(").removesuffix(")").split(",")
        assert str(n) in pair


def test_enumerate_constant_half_is_uniform():
    dist = certify.enumerate_labeled_distribution(graphon_spec(Constant(0.5), seed=26), 3, 800)
    assert dist.probs == tuple([0.125] * 8)
    assert sum(dist.counts) == 800


def test_enumerate_constant_one_is_complete_graph():
    dist = certify.enumerate_labeled_distribution(graphon_spec(Constant(1.0), seed=27), 3, 50)
    assert dist.counts[7] == 50  # all three edges present
    assert dist.probs[7] == 1.0


def test_enumerate_constant_zero_is_empty_graph():
    dist = certify.enumerate_labeled_distribution(graphon_spec(Constant(0.0), seed=28), 3, 50)
    assert dist.counts[0] == 50
    assert dist.probs[0] == 1.0


def test_enumerate_grid_probs_sum_to_one():
    spec = graphon_spec(GraphonGrid(((0.9, 0.2), (0.2, 0.4))), seed=29)
    dist = certify.enumerate_labeled_distribution(spec, 3, 500)
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    assert sum(dist.counts) == 500


def test_enumerate_validations():
    with pytest.raises(ValueError):
        certify.enumerate_labeled_distribution(graphon_spec(Constant(0.5), seed=1), 6, 100)
    geo = rotinv_spec(HardDistance(0.4), dim=2, point=PoissonRate(2.0), seed=2)
    with pytest.raises(ValueError):
        certify.enumerate_labeled_distribution(geo, 3, 100)


def test_reports_are_reproducible_bytes():
    spec = graphon_spec(Constant(0.5), seed=30)
    a = certify.test_projectivity(spec, 3, 6, 500).to_json()
    b = certify.test_projectivity(spec, 3, 6, 500).to_json()
    assert a == b
    payload = json.loads(a)
    for field in ("test_name", "fingerprint", "sizes", "statistics", "p_values", "verdict", "alpha", "seeds"):
        assert field in payload


def test_bonferroni_verdict_rule():
    # the verdict multiplies each p-value by the number of statistics
    assert certify._verdict({"a": 0.004, "b": 0.9}, 0.01) == "Fail"
    assert certify._verdict({"a": 0.006, "b": 0.9}, 0.01) == "Pass"
    assert certify._verdict({"a": 1.0}, 0.01) == "Pass"


@pytest.mark.parametrize("chunk", [1, 64, 2**20])
def test_reports_do_not_depend_on_the_trial_chunks(monkeypatch, chunk):
    cases = [
        lambda: certify.test_projectivity(graphon_spec(Constant(0.5), seed=21), 3, 7, 500),
        lambda: certify.test_projectivity(
            graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=22), 1.0, 2.0, 500,
            mode="distributional",
        ),
        lambda: certify.test_invariance(
            rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=23), 3.0, 100
        ),
    ]
    graphex = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=25)
    rotinv = rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=26)
    cases += [
        lambda: certify.test_invariance(graphon_spec(Constant(0.5), seed=24), 5, 100),
        lambda: certify.test_invariance(graphex, 2.0, 100),
        lambda: certify.test_compatibility(graphon_spec(Constant(0.5), seed=24), 4, 9, 300),
        lambda: certify.test_compatibility(graphex, 2.0, 6.0, 300),
        lambda: certify.test_compatibility(rotinv, 2.0, 8.0, 300),
    ]
    want = [case().to_json() for case in cases]
    monkeypatch.setattr(certify, "CHUNK_PAIRS", chunk)
    assert [case().to_json() for case in cases] == want


def test_harness_memory_does_not_grow_with_trials():
    # the reports of the benchmark's certify-suite: exact projectivity at
    # 500 and 2000 trials, two invariance tests and the negative control
    graphon = graphon_spec(Constant(0.5), seed=24)
    graphex = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=25)
    rotinv = rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(3.0), seed=26)
    negative = graphon_spec(WindowScaledConstant(0.6), seed=27)
    runs = [
        (lambda: certify.test_projectivity(graphon, 5, 20, 500), True),
        (lambda: certify.test_projectivity(graphon, 5, 20, 2000), True),
        (lambda: certify.test_invariance(graphex, 2, 250), True),
        (lambda: certify.test_invariance(rotinv, 8, 100), True),
        (lambda: certify.test_projectivity(negative, 3, 6, 1000, mode="distributional"), False),
    ]
    peaks = []
    for run, passes in runs:
        tracemalloc.start()
        try:
            report = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passed == passes
    # chunks of ~CHUNK_PAIRS pairs, drawn in packed tiles of at most
    # samplers.PACKED_PAIRS pairs: under 0.5 MiB at any trial count
    assert max(peaks) < 2**19, peaks
    assert peaks[1] < 1.5 * peaks[0]


def test_reports_record_the_window_sizes():
    spec = graphon_spec(Constant(0.5), seed=31)
    pairs = [
        (certify.test_invariance(spec, 5, 50), certify.test_invariance(spec, 5.0, 50)),
        (certify.test_projectivity(spec, 3, 6, 500), certify.test_projectivity(spec, 3.0, 6.0, 500)),
        (certify.test_compatibility(spec, 4, 9, 50), certify.test_compatibility(spec, 4.0, 9.0, 50)),
    ]
    for as_int, as_float in pairs:
        assert as_int.to_json() == as_float.to_json()
    assert pairs[0][0].sizes == {"N": 50, "n": 5, "m": None}
    assert pairs[2][0].sizes == {"N": 50, "n": 4, "m": 9}


DRAWS = 10_000


def test_transposition_draws_are_uniform():
    spec = graphon_spec(Constant(0.5), seed=32)
    rows = certify._generators(spec, Transpositions(5), np.arange(DRAWS))
    counts = Counter(tuple(sorted(g)) for g in rows.tolist())  # (a, b) and (b, a) are one
    cells = list(itertools.combinations(range(1, 6), 2))
    assert set(counts) == set(cells)
    _, p = chi_square_gof([counts[c] for c in cells], [1 / len(cells)] * len(cells), DRAWS)
    assert p > 0.001


def test_dyadic_swap_draws_are_uniform_per_depth():
    # depth k uniform over 0..3, then an ordered pair of the 2 * 2^k intervals
    spec = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=33)
    gen = DyadicSwaps(2.0, 3)
    counts = Counter(tuple(g) for g in certify._generators(spec, gen, np.arange(DRAWS)).tolist())
    probs = {}
    for k in range(4):
        m = 2 * 2**k
        for i, j in itertools.permutations(range(1, m + 1), 2):
            probs[i, j, k] = 1 / 4 / (m * (m - 1))
    assert set(counts) <= set(probs)
    cells = sorted(probs)
    _, p = chi_square_gof([counts[c] for c in cells], [probs[c] for c in cells], DRAWS)
    assert p > 0.001


def test_window_labels_stay_inside_the_window_at_extreme_coins():
    extremes = np.array([[0.0], [1.0 - 2.0**-53]])
    for size in (1, 5, 2**40):
        window = make_window(WindowKind.INTEGER_PREFIX, size)
        assert certify._window_labels(window, extremes).tolist() == [1, size]
    for size in (1.0, 2.5, 1024.0, 3e6):
        window = make_window(WindowKind.REAL_INTERVAL, size)
        labels = certify._window_labels(window, extremes).tolist()
        assert labels[0] == 0.0 and all(inside(window, x) for x in labels)
    ball = make_window(WindowKind.EUCLIDEAN_BALL, 4.0, dim=3)
    us = np.array([[u] + [0.5] * 4 for u in (0.0, 1.0 - 1e-12)])
    assert contains_column(ball, certify._window_labels(ball, us)).all()


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ball_labels_stay_inside_the_open_ball_at_the_largest_radius_coin(dim):
    # a radius coin of 1 - 2^-53 rounds r times a unit direction onto or
    # past the sphere unless r is clamped below the radius
    width = 1 + 2 * math.ceil(dim / 2)
    angles = keyed_angles(dim, 400, width - 1)
    us = np.column_stack((np.full(len(angles), 1.0 - 2.0**-53), angles))
    for size in (0.5, 1.0, 4.0, 8.0, 1000.0, 3e6):
        ball = make_window(WindowKind.EUCLIDEAN_BALL, size, dim=dim)
        labels = certify._window_labels(ball, us).tolist()
        assert all(inside(ball, x) for x in labels)
        # and no further inside than the clamp: 2^-48 of the radius
        radius = ball_radius(dim, size)
        assert min(math.hypot(*x) for x in labels) > radius * (1 - 2.0**-45)


def keyed_angles(dim: int, rows: int, width: int) -> np.ndarray:
    """Angle coins keyed by (dim, row, column)."""
    return coin_batch(CoinPRF(dim), "angles", np.arange(rows)[:, None], np.arange(width))
