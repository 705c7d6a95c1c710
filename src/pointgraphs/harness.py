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
    extend_element,
    sample_generator,
    serialize_element,
)
from .kernels import Constant, GraphonGrid, WindowScaledConstant, graphon_edge_prob
from .pairs import BallSector, Graph, IntRange, RealRange, box_contains, restrict_graph
from .samplers import FamilySpec, fingerprint, mean_pairs, sample_batch, window_for
from .stats import graph_stats_batch, ks_two_sample
from .windows import WindowKind, unit_ball_volume


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


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _ks_report(test_name, spec, sizes, seeds, alpha, rows_a, rows_b) -> TestReport:
    """Two-sample KS per statistic between two lists of statistic dicts,
    with the Bonferroni verdict over all of them."""
    names = tuple(rows_a[0])
    p_values = {
        name: ks_two_sample([r[name] for r in rows_a], [r[name] for r in rows_b])[1]
        for name in names
    }
    return TestReport(
        test_name=test_name,
        fingerprint=fingerprint(spec),
        sizes=sizes,
        statistics=names,
        p_values=p_values,
        verdict=_verdict(p_values, alpha),
        alpha=alpha,
        seeds=seeds,
        details={},
    )


_PROJ_STATS = ("edge_count", "max_degree", "triangle_count")


def _scalar_stats(graphs) -> list:
    """One dict of the _PROJ_STATS per graph, from one batched stats call."""
    return [
        {name: getattr(s, name) for name in _PROJ_STATS} for s in graph_stats_batch(graphs)
    ]


# Trials are sampled in chunks of about this many vertex pairs.  A chunk's
# graphs hold 16 bytes an edge plus their Python vertex labels, so a chunk
# is kept to a small part of one sampler tile (samplers.TILE_PAIRS): the
# harness then holds about as much memory as one sample, however many
# trials it runs.
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
    bit-identical graphs (restrict_graph drops graphex vertices left
    without an edge, as the graphex sampler does).  A
    failing exact report names its first mismatching trial and that trial's
    seed, with which `pointgraphs sample` at n and at m reproduces it.
    mode="distributional" uses disjoint seed streams and compares graph
    statistics by KS.
    """
    if not (n < m):
        raise ValueError("need n < m")
    if N < 500:
        raise ValueError("need at least 500 trials")
    _check_alpha(alpha)
    win_n = window_for(spec, n)
    if mode == "exact":
        mismatches = 0
        details = {}
        for trials in _chunks(spec, m, N):
            seeds = derive_seeds(spec.seed, trials)
            bigs, smalls = sample_batch(spec, m, seeds), sample_batch(spec, n, seeds)
            for t, s, big, small in zip(trials.tolist(), seeds.tolist(), bigs, smalls):
                if restrict_graph(big, win_n) != small:
                    mismatches += 1
                    details.setdefault("first_mismatch", {"trial": t, "seed": s})
        details["mismatches"] = mismatches
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
            details=details,
        )
    if mode != "distributional":
        raise ValueError(f"unknown mode {mode!r}")
    restricted_stats = []
    direct_stats = []
    for trials in _chunks(spec, m, N):
        bigs = sample_batch(spec, m, derive_seeds(spec.seed, 2 * trials))
        restricted = [restrict_graph(big, win_n) for big in bigs]
        restricted_stats += _scalar_stats(restricted)
        smalls = sample_batch(spec, n, derive_seeds(spec.seed, 2 * trials + 1))
        direct_stats += _scalar_stats(smalls)
    sizes, seeds = {"N": N, "n": n, "m": m}, {"seed": spec.seed}
    return _ks_report(
        "projectivity_distributional", spec, sizes, seeds, alpha, restricted_stats, direct_stats
    )


# ---------------------------------------------------------------------------
# Invariance


def _ordered_pairs(graph, in_a: np.ndarray, in_b: np.ndarray) -> int:
    """Ordered pairs (x, y) of edge endpoints with x in box a and y in box b,
    from each vertex's membership in the two boxes."""
    if not graph.n_edges:
        return 0
    # row (i, j) against its reverse (j, i): the pairs (i, j) and (j, i)
    return int(np.count_nonzero(in_a[graph.ends] & in_b[graph.ends[:, ::-1]]))


def _endpoints(graph, in_a: np.ndarray) -> int:
    """Edge endpoints in box a, from each vertex's membership in it: the
    degree of a one-vertex box, the endpoint count of a larger one."""
    return int(np.count_nonzero(in_a[graph.ends])) if graph.n_edges else 0


def _members(box, graph) -> np.ndarray:
    """Each vertex's membership in the box, as a bool column."""
    return np.array([box_contains(box, v) for v in graph.vertices], dtype=bool)


def _invariance_stats(spec: FamilySpec, n):
    """Label-dependent statistic functions, one dict per graph.  Each box is
    evaluated once per vertex, and pairs are counted from the edges."""
    if spec.family == "graphon":

        def stats(graph):
            is_1, is_2 = _members(IntRange(1, 1), graph), _members(IntRange(2, 2), graph)
            return {
                "vertex1_degree": _endpoints(graph, is_1),
                "edge_12": 1.0 if _ordered_pairs(graph, is_1, is_2) else 0.0,
            }

        return stats
    if spec.family == "graphex":
        half = RealRange(0.0, n / 2.0)

        def stats(graph):
            in_half = _members(half, graph)
            return {
                "vertices_left_half": int(np.count_nonzero(in_half)),
                "endpoints_left_half": _endpoints(graph, in_half),
                "edges_in_left_half": _ordered_pairs(graph, in_half, in_half),
            }

        return stats
    axis = tuple([1.0] + [0.0] * (spec.dim - 1))
    sector = BallSector(0.0, math.inf, axis=axis, min_cos=0.0)

    def stats(graph):
        in_sector = _members(sector, graph)
        return {
            "vertices_half_space": int(np.count_nonzero(in_sector)),
            "edges_in_half_space": _ordered_pairs(graph, in_sector, in_sector),
        }

    return stats


def _generator_set(spec: FamilySpec, n, k_max: int) -> GeneratorSet:
    """The generators of the family's group at window size n.  The family
    fixes its projective system and so the group; k_max bounds the dyadic
    depth of graphex swaps and is ignored by the other families."""
    if spec.family == "graphon":
        return Transpositions(int(n))
    if spec.family == "graphex":
        return DyadicSwaps(n, k_max)
    return RandomRotations(spec.dim)


def test_invariance(
    spec: FamilySpec, n, N: int, alpha: float = 0.01, k_max: int = 3
) -> TestReport:
    """Compare statistics of g . sample against sample, one generator per trial.

    The generators come from the family's own group (see _generator_set).
    The comparison is paired (the same sample appears transformed and
    untransformed), which can only make the KS test conservative under the
    null while leaving gross violations detectable.
    """
    if N < 1:
        raise ValueError("need at least one trial")
    _check_alpha(alpha)
    gen_set = _generator_set(spec, n, k_max)
    stats_fn = _invariance_stats(spec, n)
    master = CoinPRF(spec.seed)
    base_rows, trans_rows = [], []
    shown = []
    for trials in _chunks(spec, n, N):
        graphs = sample_batch(spec, n, derive_seeds(spec.seed, trials))
        for t, graph in zip(trials.tolist(), graphs):
            rng = np.random.default_rng(coin_u64(master, "gen", t))
            g = sample_generator(gen_set, rng)
            if t < 3:
                shown.append(serialize_element(g))
            base_rows.append(stats_fn(graph))
            trans_rows.append(stats_fn(apply_graph(g, graph)))
    sizes, seeds = {"N": N, "n": n, "m": None}, {"seed": spec.seed, "generators": shown}
    return _ks_report("invariance", spec, sizes, seeds, alpha, base_rows, trans_rows)


# ---------------------------------------------------------------------------
# Compatibility


def _window_label(window, rng: np.random.Generator):
    """Random label in the window."""
    if window.kind is WindowKind.INTEGER_PREFIX:
        return int(rng.integers(1, int(window.size) + 1))
    if window.kind is WindowKind.REAL_INTERVAL:
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


_ONE_EDGE = np.array([[0, 1]], dtype=np.int64)
_ONE_EDGE.flags.writeable = False


def test_compatibility(spec: FamilySpec, n, m, trials: int, k_max: int = 3) -> TestReport:
    """Exact commutation of embeddings with actions and with restriction.

    For random labels x in the family's window at n and random generators g
    of its group, asserts apply(extend(g), x) == apply(g, x) bit for bit,
    and that restricting after acting equals acting after restricting for
    one-edge graphs on two labels in the window at m.  The restriction and
    the action are restrict_graph and apply_graph, the ones projectivity
    and invariance run; an action that merges the two labels counts as a
    pair mismatch.  Labels and generators are drawn from spec.seed.
    """
    if n > m:
        raise ValueError("need n <= m")
    if trials < 1:
        raise ValueError("need at least one trial")
    gen_set = _generator_set(spec, n, k_max)
    win_n, win_m = window_for(spec, n), window_for(spec, m)
    rng = np.random.default_rng(spec.seed)
    label_mismatch = 0
    pair_mismatch = 0
    for _ in range(trials):
        g = sample_generator(gen_set, rng)
        x = _window_label(win_n, rng)
        g_ext = extend_element(g, win_n, win_m)
        if apply_label(g_ext, x) != apply_label(g, x):
            label_mismatch += 1
        a = _window_label(win_m, rng)
        b = _window_label(win_m, rng)
        if a == b:
            continue
        pair = Graph(win_m, (a, b), _ONE_EDGE, family=spec.family)
        moved = apply_graph(g_ext, pair)
        left = restrict_graph(moved, win_n)
        right = apply_graph(g_ext, restrict_graph(pair, win_n))
        if moved.vertices[0] == moved.vertices[1] or left != right:
            pair_mismatch += 1
    p_values = {
        "labels_exact": 1.0 if label_mismatch == 0 else 0.0,
        "pairs_exact": 1.0 if pair_mismatch == 0 else 0.0,
    }
    alpha = 0.01  # nominal; the p-values are 0/1 indicators of exactness
    return TestReport(
        test_name="compatibility",
        fingerprint=fingerprint(spec),
        sizes={"N": trials, "n": n, "m": m},
        statistics=("labels_exact", "pairs_exact"),
        p_values=p_values,
        verdict=_verdict(p_values, alpha),
        alpha=alpha,
        seeds={"seed": spec.seed},
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
            (p ** mask.bit_count()) * ((1 - p) ** (n_pairs - mask.bit_count()))
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
    # the bit of each vertex pair: vertex i of a graphon sample is label i + 1
    bit = np.zeros((n, n), dtype=np.int64)
    for b, (x, y) in enumerate(positions):
        bit[x - 1, y - 1] = 1 << b
    counts = np.zeros(1 << len(positions), dtype=np.int64)
    for trials in _chunks(spec, n, N):
        graphs = sample_batch(spec, n, derive_seeds(spec.seed, trials))
        ends = np.concatenate([g.ends for g in graphs])
        owner = np.repeat(np.arange(len(graphs)), [g.n_edges for g in graphs])
        # distinct bits, so each graph's mask is the sum of its edges' bits
        masks = np.zeros(len(graphs), dtype=np.int64)
        np.add.at(masks, owner, bit[ends[:, 0], ends[:, 1]])
        counts += np.bincount(masks, minlength=len(counts))
    return EnumeratedDistribution(
        n=n, trials=N, counts=tuple(counts.tolist()), probs=tuple(_exact_mask_probs(spec, n))
    )
