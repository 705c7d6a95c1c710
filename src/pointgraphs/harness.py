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
the seed derive_seed(seed, t), and draws its group element and window
labels from coins keyed by (seed, tag, t, draw index), so no draw depends
on another trial's.  Trials are drawn in chunks, each one batched sampler
call per side and one coin batch per tag that is consumed before the next
chunk is drawn, so memory stays O(tile) whatever the trial count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .coins import POSITION_BITS, CoinPRF, coin_batch, derive_seeds, index_from_uniform
from .groups import (
    DyadicSwaps,
    GeneratorSet,
    RandomRotations,
    Transpositions,
    apply_graph,
    apply_label,
    extend_element,
    generator_coins,
    sample_generators,
    serialize_element,
)
from .kernels import Constant, GraphonGrid, WindowScaledConstant, graphon_edge_prob
from .pairs import Graph, restrict_graph
from .samplers import (
    FamilySpec,
    fingerprint,
    gaussian_direction,
    mean_pairs,
    sample_batch,
    window_for,
)
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


def _chunks(N: int, pairs_per_trial: float = 1.0):
    """Trial indices 0..N-1 in chunks of about CHUNK_PAIRS vertex pairs."""
    step = max(1, int(CHUNK_PAIRS // max(1.0, pairs_per_trial)))
    for lo in range(0, N, step):
        yield np.arange(lo, min(lo + step, N))


def _trial_coins(spec: FamilySpec, tag: str, trials: np.ndarray, width: int) -> np.ndarray:
    """Uniforms keyed (spec.seed, tag, t, k): one row per trial t, k < width."""
    return coin_batch(CoinPRF(spec.seed), tag, trials[:, None], np.arange(width))


def _generators(spec: FamilySpec, gen_set: GeneratorSet, trials: np.ndarray) -> list:
    """The group element of each trial, from that trial's own coins."""
    return sample_generators(
        gen_set, _trial_coins(spec, "generator", trials, generator_coins(gen_set))
    )


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
    win_n, win_m = window_for(spec, n), window_for(spec, m)
    if mode == "exact":
        mismatches = 0
        details = {}
        for trials in _chunks(N, mean_pairs(spec, win_m.size)):
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
            sizes={"N": N, "n": win_n.size, "m": win_m.size},
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
    for trials in _chunks(N, mean_pairs(spec, win_m.size)):
        bigs = sample_batch(spec, m, derive_seeds(spec.seed, 2 * trials))
        restricted = [restrict_graph(big, win_n) for big in bigs]
        restricted_stats += _scalar_stats(restricted)
        smalls = sample_batch(spec, n, derive_seeds(spec.seed, 2 * trials + 1))
        direct_stats += _scalar_stats(smalls)
    sizes, seeds = {"N": N, "n": win_n.size, "m": win_m.size}, {"seed": spec.seed}
    return _ks_report(
        "projectivity_distributional", spec, sizes, seeds, alpha, restricted_stats, direct_stats
    )


# ---------------------------------------------------------------------------
# Invariance


def _ordered_pairs(graph, in_a: np.ndarray, in_b: np.ndarray) -> int:
    """Ordered pairs (x, y) of edge endpoints with x in region a and y in
    region b, from each vertex's membership in the two regions."""
    if not graph.n_edges:
        return 0
    # row (i, j) against its reverse (j, i): the pairs (i, j) and (j, i)
    return int(np.count_nonzero(in_a[graph.ends] & in_b[graph.ends[:, ::-1]]))


def _endpoints(graph, in_a: np.ndarray) -> int:
    """Edge endpoints in region a, from each vertex's membership in it: the
    degree of a one-vertex region, the endpoint count of a larger one."""
    return int(np.count_nonzero(in_a[graph.ends])) if graph.n_edges else 0


def _members(inside, graph) -> np.ndarray:
    """Each vertex's membership in the region of the label predicate
    ``inside``, as a bool column."""
    return np.array([inside(v) for v in graph.vertices], dtype=bool)


def _half_space(x) -> bool:
    """Whether the point x has a direction, a finite radius r and a
    nonnegative cosine x[0] / r with the first axis."""
    r = math.sqrt(math.fsum(c * c for c in x))
    return 0.0 < r < math.inf and x[0] / r >= 0.0


def _invariance_stats(spec: FamilySpec, n):
    """Label-dependent statistic functions, one dict per graph.  Each region
    is tested once per vertex, and pairs are counted from the edges."""
    if spec.family == "graphon":

        def stats(graph):
            is_1, is_2 = _members(lambda v: v == 1, graph), _members(lambda v: v == 2, graph)
            return {
                "vertex1_degree": _endpoints(graph, is_1),
                "edge_12": 1.0 if _ordered_pairs(graph, is_1, is_2) else 0.0,
            }

        return stats
    if spec.family == "graphex":
        half = n / 2

        def stats(graph):
            in_half = _members(lambda v: 0.0 <= v < half, graph)
            return {
                "vertices_left_half": int(np.count_nonzero(in_half)),
                "endpoints_left_half": _endpoints(graph, in_half),
                "edges_in_left_half": _ordered_pairs(graph, in_half, in_half),
            }

        return stats

    def stats(graph):
        in_half = _members(_half_space, graph)
        return {
            "vertices_half_space": int(np.count_nonzero(in_half)),
            "edges_in_half_space": _ordered_pairs(graph, in_half, in_half),
        }

    return stats


def _generator_set(spec: FamilySpec, window, k_max: int) -> GeneratorSet:
    """The generators of the family's group in the window.  The family
    fixes its projective system and so the group; k_max bounds the dyadic
    depth of graphex swaps and is ignored by the other families."""
    if spec.family == "graphon":
        return Transpositions(window.size)
    if spec.family == "graphex":
        return DyadicSwaps(window.size, k_max)
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
    win_n = window_for(spec, n)
    gen_set = _generator_set(spec, win_n, k_max)
    stats_fn = _invariance_stats(spec, win_n.size)
    base_rows, trans_rows = [], []
    shown = []
    for trials in _chunks(N, mean_pairs(spec, win_n.size)):
        graphs = sample_batch(spec, n, derive_seeds(spec.seed, trials))
        for t, g, graph in zip(trials.tolist(), _generators(spec, gen_set, trials), graphs):
            if t < 3:
                shown.append(serialize_element(g))
            base_rows.append(stats_fn(graph))
            trans_rows.append(stats_fn(apply_graph(g, graph)))
    sizes = {"N": N, "n": win_n.size, "m": None}
    seeds = {"seed": spec.seed, "generators": shown}
    return _ks_report("invariance", spec, sizes, seeds, alpha, base_rows, trans_rows)


# ---------------------------------------------------------------------------
# Compatibility


def _label_coins(window) -> int:
    """How many uniforms _window_labels reads per label of the window."""
    if window.kind is WindowKind.EUCLIDEAN_BALL:
        return 1 + 2 * math.ceil(window.dim / 2)  # a radius, then Box-Muller pairs
    return 1


def _window_labels(window, us: np.ndarray) -> list:
    """One label of the window per row of a (rows, _label_coins) array of
    uniforms: uniform on {1..n}, on the multiples of 2^-POSITION_BITS in
    [0, n), or on the ball."""
    if window.kind is WindowKind.INTEGER_PREFIX:
        return (index_from_uniform(us[:, 0], window.size) + 1).tolist()
    if window.kind is WindowKind.REAL_INTERVAL:
        steps = float(math.ceil(window.size * 2**POSITION_BITS))
        x = np.floor(us[:, 0] * steps) * 2.0**-POSITION_BITS
        # exact below 2^53 steps (see index_from_uniform); past it, clamped
        return np.minimum(x, np.nextafter(window.size, 0.0)).tolist()
    vd = unit_ball_volume(window.dim)

    def point(u, *angles):
        r = (u * window.size / vd) ** (1.0 / window.dim)
        return tuple(r * c for c in gaussian_direction(angles, window.dim))

    return [point(*row) for row in us.tolist()]


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
    pair mismatch.  Trial t draws its generator and its labels x, a, b
    from coins keyed by (spec.seed, t), one coin batch per chunk of trials.
    """
    if n > m:
        raise ValueError("need n <= m")
    if trials < 1:
        raise ValueError("need at least one trial")
    win_n, win_m = window_for(spec, n), window_for(spec, m)
    gen_set = _generator_set(spec, win_n, k_max)
    width = _label_coins(win_n)
    label_mismatch = 0
    pair_mismatch = 0
    for chunk in _chunks(trials):  # each trial acts on a one-edge graph
        us = _trial_coins(spec, "label", chunk, 3 * width)
        xs = _window_labels(win_n, us[:, :width])
        as_ = _window_labels(win_m, us[:, width : 2 * width])
        bs = _window_labels(win_m, us[:, 2 * width :])
        for g, x, a, b in zip(_generators(spec, gen_set, chunk), xs, as_, bs):
            g_ext = extend_element(g, win_n, win_m)
            if apply_label(g_ext, x) != apply_label(g, x):
                label_mismatch += 1
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
        sizes={"N": trials, "n": win_n.size, "m": win_m.size},
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


def enumerate_labeled_distribution(spec: FamilySpec, n, N: int) -> EnumeratedDistribution:
    """Histogram over all 2^(n(n-1)/2) labeled graphs, with exact probabilities.

    The probabilities come from closed forms or grid integration, never
    from the sampler under test, so the pair is usable as an oracle.
    """
    if spec.family != "graphon":
        raise ValueError("enumeration is defined for graphon families")
    if N < 1:
        raise ValueError("need at least one trial")
    window = window_for(spec, n)
    n = window.size
    if n > 5:
        raise ValueError("enumeration is limited to n <= 5")
    positions = _edge_positions(n)
    # the bit of each vertex pair: vertex i of a graphon sample is label i + 1
    bit = np.zeros((n, n), dtype=np.int64)
    for b, (x, y) in enumerate(positions):
        bit[x - 1, y - 1] = 1 << b
    counts = np.zeros(1 << len(positions), dtype=np.int64)
    for trials in _chunks(N, mean_pairs(spec, window.size)):
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
