"""Certification harness: projectivity, invariance, and compatibility.

Projectivity has an exact mode (restrict a coupled larger sample and
demand bit-identical agreement with the smaller one; any mismatch fails)
and a distributional mode (independent seeds, Kolmogorov-Smirnov on graph
statistics).  Invariance draws one random generator per trial and compares
label-dependent statistics of the transformed sample against the plain
one.  Compatibility checks, exactly, that embedding a group element into a
larger window and then acting agrees with acting first.

All verdicts are Bonferroni-corrected over the statistics involved, and a
report is reproducible byte for byte from its seeds.  Trial t samples with
the seed derive_seed(seed, t).  Trials are drawn in chunks, each one
batched sampler call per side that is consumed before the next chunk is
drawn, so memory stays O(tile) whatever the trial count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinPRF, coin_u64, derive_seeds, POSITION_BITS
from .groups import (
    DyadicSwaps,
    GeneratorSet,
    RandomRotations,
    Transpositions,
    apply_graph,
    apply_label,
    apply_pairs,
    extend_element,
    sample_generator,
    serialize_element,
)
from .kernels import Constant, GraphonGrid, WindowScaledConstant, graphon_edge_prob
from .pairs import (
    BallSector,
    IntRange,
    RealRange,
    box_contains,
    pair_config,
    restrict,
    restrict_graph,
)
from .samplers import FamilySpec, fingerprint, mean_pairs, sample_batch, window_for
from .stats import graph_stats, ks_two_sample
from .windows import WindowKind, make_window, unit_ball_volume


@dataclass(frozen=True)
class TestReport:
    test_name: str
    fingerprint: str
    sizes: dict
    statistics: tuple
    p_values: dict
    verdict: str
    alpha: float
    seeds: dict
    details: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "Pass"

    def to_json(self) -> str:
        payload = {
            "test_name": self.test_name,
            "fingerprint": self.fingerprint,
            "sizes": self.sizes,
            "statistics": list(self.statistics),
            "p_values": self.p_values,
            "verdict": self.verdict,
            "alpha": self.alpha,
            "seeds": self.seeds,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _verdict(p_values: dict, alpha: float) -> str:
    k = len(p_values)
    corrected = [min(1.0, p * k) for p in p_values.values()]
    return "Pass" if min(corrected) >= alpha else "Fail"


_PROJ_STATS = ("edge_count", "max_degree", "triangle_count")


def _scalar_stats(graph) -> tuple:
    s = graph_stats(graph)
    return (s.edge_count, s.max_degree, s.triangle_count)


# Trials are sampled in chunks of about this many vertex pairs.  A chunk's
# graphs are Python objects of ~100 bytes an edge, so a chunk is kept to a
# small part of one sampler tile (samplers.TILE_PAIRS): the harness then
# holds about as much memory as one sample, however many trials it runs.
CHUNK_PAIRS = 2**12


def _chunks(spec: FamilySpec, size, N: int):
    """Trial indices 0..N-1 in chunks of about CHUNK_PAIRS pairs at window size."""
    step = max(1, int(CHUNK_PAIRS // max(1.0, mean_pairs(spec, size))))
    for lo in range(0, N, step):
        yield np.arange(lo, min(lo + step, N))


def test_projectivity(
    spec: FamilySpec, n, m, N: int, alpha: float = 0.01, mode: str = "exact"
) -> TestReport:
    """Certify that restricting samples at window m reproduces window n.

    mode="exact" couples both sides through one seed per trial and demands
    bit-identical graphs (edge configurations, for pruning families).
    mode="distributional" uses disjoint seed streams and compares graph
    statistics by KS.
    """
    if not (n < m):
        raise ValueError("need n < m")
    if N < 500:
        raise ValueError("need at least 500 trials")
    win_n = window_for(spec, n)
    prune = spec.family == "graphex"
    if mode == "exact":
        mismatches = 0
        for trials in _chunks(spec, m, N):
            seeds = derive_seeds(spec.seed, trials)
            for big, small in zip(sample_batch(spec, m, seeds), sample_batch(spec, n, seeds)):
                if restrict_graph(big, win_n, prune_isolated=prune) != small:
                    mismatches += 1
        p_values = {"exact_match": 1.0 if mismatches == 0 else 0.0}
        return TestReport(
            test_name="projectivity_exact",
            fingerprint=fingerprint(spec),
            sizes={"N": N, "n": n, "m": m},
            statistics=("exact_match",),
            p_values=p_values,
            verdict="Pass" if mismatches == 0 else "Fail",
            alpha=alpha,
            seeds={"seed": spec.seed},
            details={"mismatches": mismatches},
        )
    if mode != "distributional":
        raise ValueError(f"unknown mode {mode!r}")
    restricted_stats = []
    direct_stats = []
    for trials in _chunks(spec, m, N):
        for big in sample_batch(spec, m, derive_seeds(spec.seed, 2 * trials)):
            restricted_stats.append(
                _scalar_stats(restrict_graph(big, win_n, prune_isolated=prune))
            )
        for small in sample_batch(spec, n, derive_seeds(spec.seed, 2 * trials + 1)):
            direct_stats.append(_scalar_stats(small))
    p_values = {}
    for pos, name in enumerate(_PROJ_STATS):
        _, p = ks_two_sample(
            [row[pos] for row in restricted_stats], [row[pos] for row in direct_stats]
        )
        p_values[name] = p
    return TestReport(
        test_name="projectivity_distributional",
        fingerprint=fingerprint(spec),
        sizes={"N": N, "n": n, "m": m},
        statistics=_PROJ_STATS,
        p_values=p_values,
        verdict=_verdict(p_values, alpha),
        alpha=alpha,
        seeds={"seed": spec.seed},
        details={},
    )


# ---------------------------------------------------------------------------
# Invariance


def _ordered_pairs(graph, in_a: list, in_b: list) -> int:
    """Ordered pairs (x, y) of edge endpoints with x in box a and y in box b,
    from each vertex's membership in the two boxes."""
    return sum((in_a[i] and in_b[j]) + (in_a[j] and in_b[i]) for i, j in graph.edges)


def _members(box, graph) -> list:
    return [box_contains(box, v) for v in graph.vertices]


def _invariance_stats(spec: FamilySpec, n):
    """Label-dependent statistic functions, one dict per graph.  Each box is
    evaluated once per vertex, and pairs are counted from the edges."""
    if spec.family == "graphon":
        full = IntRange(1, int(n))

        def stats(graph):
            is_1, is_2 = _members(IntRange(1, 1), graph), _members(IntRange(2, 2), graph)
            return {
                "vertex1_degree": _ordered_pairs(graph, is_1, _members(full, graph)),
                "edge_12": 1.0 if _ordered_pairs(graph, is_1, is_2) else 0.0,
            }

        return stats
    if spec.family == "graphex":
        half = RealRange(0.0, n / 2.0)
        full = RealRange(0.0, float(n))

        def stats(graph):
            in_half = _members(half, graph)
            return {
                "vertices_left_half": sum(1 for v in graph.vertices if v < n / 2.0),
                "endpoints_left_half": _ordered_pairs(graph, in_half, _members(full, graph)),
                "edges_in_left_half": _ordered_pairs(graph, in_half, in_half),
            }

        return stats
    axis = tuple([1.0] + [0.0] * (spec.dim - 1))
    sector = BallSector(0.0, math.inf, axis=axis, min_cos=0.0)

    def stats(graph):
        in_sector = _members(sector, graph)
        return {
            "vertices_half_space": sum(in_sector),
            "edges_in_half_space": _ordered_pairs(graph, in_sector, in_sector),
        }

    return stats


def _check_generator_family(spec: FamilySpec, gen_set: GeneratorSet, n) -> None:
    if spec.family == "graphon":
        if not isinstance(gen_set, Transpositions) or gen_set.n > n:
            raise ValueError("graphon invariance needs Transpositions within the window")
    elif spec.family == "graphex":
        if not isinstance(gen_set, DyadicSwaps) or gen_set.n > n:
            raise ValueError("graphex invariance needs DyadicSwaps within the window")
    else:
        if not isinstance(gen_set, RandomRotations) or gen_set.dim != spec.dim:
            raise ValueError("rotinv invariance needs RandomRotations of the same dim")


def test_invariance(
    spec: FamilySpec,
    gen_set: GeneratorSet,
    n,
    N: int,
    alpha: float = 0.01,
    fixed_generator=None,
) -> TestReport:
    """Compare statistics of g . sample against sample, one generator per trial.

    The comparison is paired (the same sample appears transformed and
    untransformed), which can only make the KS test conservative under the
    null while leaving gross violations detectable.
    """
    _check_generator_family(spec, gen_set, n)
    stats_fn = _invariance_stats(spec, n)
    master = CoinPRF(spec.seed)
    base_rows, trans_rows = [], []
    shown = []
    for trials in _chunks(spec, n, N):
        graphs = sample_batch(spec, n, derive_seeds(spec.seed, trials))
        for t, graph in zip(trials.tolist(), graphs):
            if fixed_generator is not None:
                g = fixed_generator
            else:
                rng = np.random.default_rng(coin_u64(master, "gen", t))
                g = sample_generator(gen_set, rng)
            if t < 3:
                shown.append(serialize_element(g))
            base_rows.append(stats_fn(graph))
            trans_rows.append(stats_fn(apply_graph(g, graph)))
    names = tuple(base_rows[0].keys())
    p_values = {}
    for name in names:
        _, p = ks_two_sample(
            [row[name] for row in base_rows], [row[name] for row in trans_rows]
        )
        p_values[name] = p
    return TestReport(
        test_name="invariance",
        fingerprint=fingerprint(spec),
        sizes={"N": N, "n": n, "m": None},
        statistics=names,
        p_values=p_values,
        verdict=_verdict(p_values, alpha),
        alpha=alpha,
        seeds={"seed": spec.seed, "generators": shown},
        details={},
    )


# ---------------------------------------------------------------------------
# Compatibility


def _gen_label(gen_set: GeneratorSet, window, rng: np.random.Generator):
    """Random label in the window matching the generator family."""
    if isinstance(gen_set, Transpositions):
        return int(rng.integers(1, int(window.size) + 1))
    if isinstance(gen_set, DyadicSwaps):
        while True:
            a = int(rng.integers(0, math.ceil(window.size)))
            x = a + int(rng.integers(0, 1 << POSITION_BITS)) * 2.0**-POSITION_BITS
            if x < window.size:
                return x
    vd = unit_ball_volume(window.dim)
    r = (rng.uniform(0.0, window.size) / vd) ** (1.0 / window.dim)
    g = rng.standard_normal(window.dim)
    g /= math.sqrt(float(np.sum(g * g)))
    return tuple(float(r * c) for c in g)


def _compat_windows(gen_set: GeneratorSet, n, m):
    if isinstance(gen_set, Transpositions):
        kind, dim = WindowKind.INTEGER_PREFIX, None
    elif isinstance(gen_set, DyadicSwaps):
        kind, dim = WindowKind.REAL_INTERVAL, None
    else:
        kind, dim = WindowKind.EUCLIDEAN_BALL, gen_set.dim
    return make_window(kind, n, dim), make_window(kind, m, dim)


def test_compatibility(
    gen_set: GeneratorSet, n, m, trials: int, seed: int = 0
) -> TestReport:
    """Exact commutation of embeddings with actions and with restriction.

    For random labels x in the small window and random generators g,
    asserts apply(extend(g), x) == apply(g, x) bit for bit, and that
    restricting after acting equals acting after restricting for pair
    configurations with labels in the large window.
    """
    if n > m:
        raise ValueError("need n <= m")
    win_n, win_m = _compat_windows(gen_set, n, m)
    rng = np.random.default_rng(seed)
    label_mismatch = 0
    pair_mismatch = 0
    for _ in range(trials):
        g = sample_generator(gen_set, rng)
        x = _gen_label(gen_set, win_n, rng)
        g_ext = extend_element(g, win_n, win_m)
        if apply_label(g_ext, x) != apply_label(g, x):
            label_mismatch += 1
        a = _gen_label(gen_set, win_m, rng)
        b = _gen_label(gen_set, win_m, rng)
        if a == b:
            continue
        config = pair_config([(a, b), (b, a)])
        left = restrict(apply_pairs(g_ext, config), win_n)
        right = apply_pairs(g_ext, restrict(config, win_n))
        if left.pairs != right.pairs:
            pair_mismatch += 1
    p_values = {
        "labels_exact": 1.0 if label_mismatch == 0 else 0.0,
        "pairs_exact": 1.0 if pair_mismatch == 0 else 0.0,
    }
    alpha = 0.01  # nominal; the p-values are 0/1 indicators of exactness
    return TestReport(
        test_name="compatibility",
        fingerprint=f"{type(gen_set).__name__.lower()}:{gen_set!r}",
        sizes={"N": trials, "n": n, "m": m},
        statistics=("labels_exact", "pairs_exact"),
        p_values=p_values,
        verdict=_verdict(p_values, alpha),
        alpha=alpha,
        seeds={"seed": seed},
        details={"label_mismatches": label_mismatch, "pair_mismatches": pair_mismatch},
    )


# ---------------------------------------------------------------------------
# Small-n exact enumeration


@dataclass(frozen=True)
class EnumeratedDistribution:
    """Empirical counts and exact probabilities over all labeled graphs on [n]."""

    n: int
    trials: int
    counts: tuple
    probs: tuple


def _edge_positions(n: int):
    return list(itertools.combinations(range(1, n + 1), 2))


def _exact_mask_probs(spec: FamilySpec, n: int) -> list:
    positions = _edge_positions(n)
    n_pairs = len(positions)
    kernel = spec.kernel
    if isinstance(kernel, (Constant, WindowScaledConstant)):
        p = graphon_edge_prob(kernel, np.zeros(1), np.zeros(1), n).item()
        return [
            (p ** bin(mask).count("1")) * ((1 - p) ** (n_pairs - bin(mask).count("1")))
            for mask in range(1 << n_pairs)
        ]
    if isinstance(kernel, GraphonGrid):
        g = len(kernel.values)
        if g**n > 200000:
            raise ValueError("grid too fine for exact enumeration")
        probs = [0.0] * (1 << n_pairs)
        weight = 1.0 / g**n
        for cells in itertools.product(range(g), repeat=n):
            for mask in range(1 << n_pairs):
                acc = weight
                for bit, (i, j) in enumerate(positions):
                    w = kernel.values[cells[i - 1]][cells[j - 1]]
                    acc *= w if mask >> bit & 1 else 1.0 - w
                probs[mask] += acc
        return probs
    raise ValueError(f"no exact enumeration for kernel {kernel!r}")


def enumerate_labeled_distribution(spec: FamilySpec, n: int, N: int) -> EnumeratedDistribution:
    """Histogram over all 2^(n(n-1)/2) labeled graphs, with exact probabilities.

    The probabilities come from closed forms or grid integration, never
    from the sampler under test, so the pair is usable as an oracle.
    """
    if spec.family != "graphon":
        raise ValueError("enumeration is defined for graphon families")
    if n > 5:
        raise ValueError("enumeration is limited to n <= 5")
    positions = _edge_positions(n)
    bit_of = {pair: b for b, pair in enumerate(positions)}
    counts = [0] * (1 << len(positions))
    for trials in _chunks(spec, n, N):
        for graph in sample_batch(spec, n, derive_seeds(spec.seed, trials)):
            mask = 0
            for i, j in graph.edges:
                mask |= 1 << bit_of[(graph.vertices[i], graph.vertices[j])]
            counts[mask] += 1
    return EnumeratedDistribution(
        n=n, trials=N, counts=tuple(counts), probs=tuple(_exact_mask_probs(spec, n))
    )
