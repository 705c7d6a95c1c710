import json
import tracemalloc

import pytest

from pointgraphs import harness as certify
from pointgraphs import (
    Constant,
    DyadicSwaps,
    FixedDirectionIndicator,
    GraphexIndicator,
    GraphonGrid,
    HardDistance,
    Permutation,
    PoissonRate,
    RandomRotations,
    Transpositions,
    WindowScaledConstant,
    graphex_spec,
    graphon_spec,
    rotinv_spec,
)


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
    report = certify.test_invariance(spec, Transpositions(5), 5, 600)
    assert report.passed
    assert set(report.statistics) == {"vertex1_degree", "edge_12"}
    assert report.seeds["generators"][0].startswith("perm:")


def test_invariance_graphon_grid_passes():
    spec = graphon_spec(GraphonGrid(((0.7, 0.1), (0.1, 0.5))), seed=18)
    report = certify.test_invariance(spec, Transpositions(5), 5, 600)
    assert report.passed


def test_invariance_graphex_passes():
    spec = graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=19)
    report = certify.test_invariance(spec, DyadicSwaps(2.0, 3), 2.0, 600)
    assert report.passed
    assert "edges_in_left_half" in report.statistics


def test_invariance_rotinv_passes():
    spec = rotinv_spec(HardDistance(0.4), dim=2, point=PoissonRate(2.0), seed=20)
    report = certify.test_invariance(spec, RandomRotations(2), 4.0, 600)
    assert report.passed
    assert report.seeds["generators"][0].startswith("rot:")


def test_invariance_identity_generator_gives_p_one():
    spec = graphon_spec(Constant(0.4), seed=21)
    report = certify.test_invariance(
        spec, Transpositions(5), 5, 600, fixed_generator=Permutation(tuple(range(1, 6)))
    )
    assert report.passed
    assert all(p == 1.0 for p in report.p_values.values())


def test_invariance_rejects_fixed_direction_kernel():
    spec = rotinv_spec(FixedDirectionIndicator(), dim=2, point=PoissonRate(3.0), seed=22)
    report = certify.test_invariance(spec, RandomRotations(2), 8.0, 800)
    assert report.verdict == "Fail"


def test_invariance_generator_family_must_match():
    spec = graphon_spec(Constant(0.4), seed=23)
    with pytest.raises(ValueError):
        certify.test_invariance(spec, RandomRotations(2), 5, 600)
    geo = rotinv_spec(HardDistance(0.4), dim=2, point=PoissonRate(2.0), seed=24)
    with pytest.raises(ValueError):
        certify.test_invariance(geo, RandomRotations(3), 4.0, 600)
    with pytest.raises(ValueError):
        certify.test_invariance(
            graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=25),
            DyadicSwaps(4.0, 3),
            2.0,
            600,
        )


def test_compatibility_all_families_exact():
    for gen_set, n, m in [
        (Transpositions(4), 4, 9),
        (DyadicSwaps(2.0, 4), 2.0, 6.0),
        (RandomRotations(2), 2.0, 8.0),
        (RandomRotations(3), 1.5, 4.0),
    ]:
        report = certify.test_compatibility(gen_set, n, m, 2000, seed=3)
        assert report.passed, (gen_set, report.details)
        assert report.details["label_mismatches"] == 0
        assert report.details["pair_mismatches"] == 0


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
            rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=23),
            RandomRotations(2), 3.0, 100,
        ),
    ]
    want = [case().to_json() for case in cases]
    monkeypatch.setattr(certify, "CHUNK_PAIRS", chunk)
    assert [case().to_json() for case in cases] == want


def test_harness_memory_does_not_grow_with_trials():
    spec = graphon_spec(Constant(0.5), seed=24)
    peaks = []
    for trials in (500, 2000):
        tracemalloc.start()
        try:
            report = certify.test_projectivity(spec, 5, 20, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passed
    # chunks of ~CHUNK_PAIRS pairs: well under 2 MiB at any trial count
    assert max(peaks) < 2 * 2**20
    assert peaks[1] < 1.5 * peaks[0]
