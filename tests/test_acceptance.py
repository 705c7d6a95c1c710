"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import kstest

from pointgraphs import harness as certify
from pointgraphs import (
    Constant,
    DyadicSwaps,
    FixedDirectionIndicator,
    GraphexIndicator,
    GraphexProduct,
    HardDistance,
    PoissonRate,
    RandomRotations,
    SoftDistance,
    WindowScaledConstant,
    ball_radius,
    chi_square_gof,
    generator_coins,
    graphex_spec,
    graphon_spec,
    rotinv_spec,
    sample_generators,
    sample_table,
)
from pointgraphs.cli import run
from pointgraphs.coins import POSITION_BITS, CoinPRF, coin_batch, derive_seeds
from tests.test_groups import apply_label

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report_line(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exact_projectivity():
    t0 = time.time()
    cases = [
        ("graphon (3,6)", graphon_spec(Constant(0.5), seed=101), 3, 6),
        ("graphon (5,20)", graphon_spec(Constant(0.5), seed=102), 5, 20),
        ("graphex (1,4)", graphex_spec(GraphexProduct(2.0), y_max=2.0, seed=103), 1.0, 4.0),
        (
            "rotinv (2,8)",
            rotinv_spec(SoftDistance(0.7, 2.0), dim=2, point=PoissonRate(3.0), seed=104),
            2.0,
            8.0,
        ),
    ]
    mismatches = {}
    for name, spec, n, m in cases:
        report = certify.test_projectivity(spec, n, m, 1000, mode="exact")
        mismatches[name] = report.details["mismatches"]
    elapsed = time.time() - t0
    ok = all(v == 0 for v in mismatches.values()) and elapsed <= 120
    report_line(1, ok, elapsed, f"mismatches={mismatches}")


def test_criterion_2_small_n_oracle_equivalence():
    t0 = time.time()
    details = []
    ok = True
    for p, seed in ((0.5, 201), (0.3, 202)):
        spec = graphon_spec(Constant(p), seed=seed)
        dist = certify.enumerate_labeled_distribution(spec, 3, 40_000)
        _, pval = chi_square_gof(dist.counts, dist.probs, 40_000)
        details.append(f"Constant({p}): chi2 p={pval:.4f}")
        ok = ok and pval > 0.01
    elapsed = time.time() - t0
    ok = ok and elapsed <= 30
    report_line(2, ok, elapsed, "; ".join(details))


def test_criterion_3_invariance_with_power_guards():
    t0 = time.time()
    checks = {}
    report = certify.test_invariance(graphon_spec(Constant(0.5), seed=301), 6, 2000, alpha=0.01)
    checks["graphon/transpositions"] = report.verdict
    report = certify.test_invariance(
        graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=302), 2.0, 2000, alpha=0.01
    )
    checks["graphex/dyadic"] = report.verdict
    report = certify.test_invariance(
        rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(3.0), seed=303),
        8.0,
        2000,
        alpha=0.01,
    )
    checks["rotinv/rotations"] = report.verdict
    # shipped broken fixtures must fail at the same settings
    report = certify.test_projectivity(
        graphon_spec(WindowScaledConstant(0.6), seed=304),
        3,
        6,
        2000,
        alpha=0.01,
        mode="distributional",
    )
    checks["window-scaled graphon"] = report.verdict
    report = certify.test_invariance(
        rotinv_spec(FixedDirectionIndicator(), dim=2, point=PoissonRate(3.0), seed=305),
        8.0,
        2000,
        alpha=0.01,
    )
    checks["fixed-direction kernel"] = report.verdict
    elapsed = time.time() - t0
    ok = (
        checks["graphon/transpositions"] == "Pass"
        and checks["graphex/dyadic"] == "Pass"
        and checks["rotinv/rotations"] == "Pass"
        and checks["window-scaled graphon"] == "Fail"
        and checks["fixed-direction kernel"] == "Fail"
        and elapsed <= 180
    )
    report_line(3, ok, elapsed, str(checks))


def test_criterion_4_compatibility_exact():
    t0 = time.time()
    results = {}
    for name, spec, n, m in [
        ("transpositions", graphon_spec(Constant(0.5), seed=401), 6, 12),
        ("dyadic_swaps", graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=401), 2.0, 8.0),
        ("rotations", rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(3.0), seed=401),
         2.0, 8.0),
    ]:
        report = certify.test_compatibility(spec, n, m, 10_000)
        results[name] = (
            report.details["label_mismatches"],
            report.details["pair_mismatches"],
        )
    elapsed = time.time() - t0
    ok = all(v == (0, 0) for v in results.values()) and elapsed <= 5
    report_line(4, ok, elapsed, f"mismatches={results}")


def test_criterion_5_geometric_mean_degree():
    # Pooled over all interior vertices: total degree / total count is the
    # estimator whose expectation is exactly lam * pi * r0^2 (a per-run mean
    # of means would carry a small negative ratio bias).  The standard error
    # treats runs as independent clusters.
    t0 = time.time()
    lam, r0, volume = 3.0, 0.3, 50.0
    spec = rotinv_spec(HardDistance(r0), dim=2, point=PoissonRate(lam), seed=501)
    inner = ball_radius(2, volume) - r0
    n_runs = 2000
    table = sample_table(spec, volume, derive_seeds(spec.seed, np.arange(n_runs)))
    deg = np.bincount(table.ends.ravel(), minlength=len(table.labels))
    interior = table.latents < inner
    trial = table.row_trials()[interior]
    sums = np.bincount(trial, weights=deg[interior], minlength=n_runs)
    counts = np.bincount(trial, minlength=n_runs).astype(float)
    mean = float(sums.sum() / counts.sum())
    resid = sums - mean * counts
    se = float(math.sqrt(np.sum(resid**2)) / counts.sum())
    want = lam * math.pi * r0 * r0
    elapsed = time.time() - t0
    ok = abs(mean - want) < 3 * se and elapsed <= 60
    report_line(5, ok, elapsed, f"mean={mean:.4f} expected={want:.4f} se={se:.4f}")


def test_criterion_6_graphex_edge_moment_vs_oracle():
    t0 = time.time()
    c, y_max, n = 0.5, 1.0, 3.0
    spec = graphex_spec(GraphexIndicator(c), y_max=y_max, seed=601)
    n_runs = 4000
    table = sample_table(spec, n, derive_seeds(spec.seed, np.arange(n_runs)))
    counts = np.diff(table.edge_starts())
    mean_s = float(np.mean(counts))
    se_s = float(np.std(counts, ddof=1) / math.sqrt(n_runs))
    # independent brute-force oracle at 10x the sample size: drop unit-rate
    # Poisson points on [0,n) x [0,1), connect pairs with both marks <= c
    rng = np.random.default_rng(6601)
    ks = rng.poisson(n * y_max, size=10 * n_runs)
    ms = rng.binomial(ks, c / y_max)
    oracle = ms * (ms - 1) / 2.0
    mean_o = float(np.mean(oracle))
    se_o = float(np.std(oracle, ddof=1) / math.sqrt(len(oracle)))
    gap = abs(mean_s - mean_o)
    bound = 3 * math.sqrt(se_s**2 + se_o**2)
    elapsed = time.time() - t0
    ok = gap < bound and elapsed <= 60
    report_line(
        6, ok, elapsed, f"sampler={mean_s:.4f} oracle={mean_o:.4f} gap={gap:.4f} bound={bound:.4f}"
    )


def keyed_uniforms(seed: int, rows: int, width: int) -> np.ndarray:
    """Rows of coins keyed (seed, "generator", t, k), as the harness draws them."""
    return coin_batch(CoinPRF(seed), "generator", np.arange(rows)[:, None], np.arange(width))


def test_criterion_7_numerical_hygiene():
    t0 = time.time()
    rng = np.random.default_rng(701)
    worst_ortho = 0.0
    worst_det = 0.0
    worst_norm = 0.0
    angles = []
    for dim in (2, 3):
        gen = RandomRotations(dim)
        for q in sample_generators(gen, keyed_uniforms(701 + dim, 5_000, generator_coins(gen))):
            worst_ortho = max(worst_ortho, float(np.max(np.abs(q.T @ q - np.eye(dim)))))
            worst_det = max(worst_det, abs(float(np.linalg.det(q)) - 1.0))
            x = tuple(rng.standard_normal(dim) * 3.0)
            nx = math.sqrt(sum(c * c for c in x))
            ny = math.sqrt(sum(c * c for c in apply_label(gen, q, x)))
            worst_norm = max(worst_norm, abs(nx - ny))
            if dim == 2:
                angles.append(math.atan2(q[1, 0], q[0, 0]) % (2 * math.pi))
    # a Haar rotation of the plane turns by a uniform angle
    ks_p = float(kstest(np.asarray(angles) / (2 * math.pi), "uniform").pvalue)
    swap_failures = 0
    gen = DyadicSwaps(4.0, 5)
    for theta in sample_generators(gen, keyed_uniforms(702, 10_000, generator_coins(gen))):
        x = int(rng.integers(0, 4)) + int(rng.integers(0, 1 << POSITION_BITS)) * 2.0**-POSITION_BITS
        if apply_label(gen, theta, apply_label(gen, theta, x)) != x:
            swap_failures += 1
    elapsed = time.time() - t0
    ok = (
        worst_ortho < 1e-10
        and worst_det < 1e-10
        and worst_norm < 1e-10
        and ks_p > 0.001
        and swap_failures == 0
    )
    report_line(
        7,
        ok,
        elapsed,
        f"ortho={worst_ortho:.2e} det={worst_det:.2e} norm={worst_norm:.2e} "
        f"angle_ks_p={ks_p:.3f} swap_failures={swap_failures}",
    )


def test_criterion_8_cli_byte_determinism(tmp_path):
    t0 = time.time()
    pairs = []
    for tag, argv in [
        (
            "edge list",
            ["sample", "--config", str(CONFIGS / "graphex.json"), "--n", "3"],
        ),
        (
            "report",
            [
                "test-invariance",
                "--config",
                str(CONFIGS / "graphon.json"),
                "--n",
                "5",
                "--trials",
                "600",
            ],
        ),
        (
            "enumeration",
            ["enumerate", "--config", str(CONFIGS / "graphon.json"), "--n", "3", "--trials", "2000"],
        ),
    ]:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert run(argv + ["--out", str(a)]) in (0, 2)
        assert run(argv + ["--out", str(b)]) in (0, 2)
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    # one pair through the real process boundary as well
    proc_a = subprocess.run(
        [sys.executable, "-m", "pointgraphs.cli", "sample", "--config",
         str(CONFIGS / "rotinv.json"), "--n", "4"],
        capture_output=True,
    )
    proc_b = subprocess.run(
        [sys.executable, "-m", "pointgraphs.cli", "sample", "--config",
         str(CONFIGS / "rotinv.json"), "--n", "4"],
        capture_output=True,
    )
    pairs.append(("subprocess edge list", proc_a.stdout == proc_b.stdout and proc_a.returncode == 0))
    elapsed = time.time() - t0
    ok = all(same for _, same in pairs)
    report_line(8, ok, elapsed, str(pairs))
