"""Certification harness: projectivity, invariance, and compatibility.

Projectivity has an exact mode (restrict a coupled larger sample and
demand bit-identical agreement with the smaller one; any mismatch fails)
and a distributional mode (independent seeds, Kolmogorov-Smirnov on graph
statistics).  Invariance draws one random generator per trial and compares
label-dependent statistics of the transformed sample against the plain
one.  Compatibility checks, exactly, that embedding a group generator into a
larger window and then acting agrees with acting first.

All verdicts are Bonferroni-corrected over the statistics involved, and a
report is reproducible byte for byte from its seeds.  Trial t samples with
the seed that derive_seeds keys on (seed, "trial", t), and draws its group
generator and window labels from coins keyed by (seed, tag, t, draw index),
so no draw depends on another trial's.

Trials run in chunks.  A chunk is one ``GraphTable`` per side, from one
batched sampler call: the label, latent and edge arrays of all its trials,
cut into trials by offsets, with no Python object per trial or per vertex.
Restriction, the group action (one generator per trial), the invariance
statistics, the graph statistics and exact equality each run once per
chunk over the whole table, and every per-trial result is a column; so
are the chunk's generators, one array row per trial (see groups).  The
chunk's coins are drawn in one batch per tag and consumed before the next
chunk is drawn, so memory stays O(chunk) whatever the trial count.
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
    apply_table,
    extend_element,
    generator_coins,
    sample_generators,
    serialize_element,
)
from .kernels import Constant, GraphonGrid, WindowScaledConstant, graphon_edge_prob
from .pairs import GraphTable, differing_trials, restrict_table
from .samplers import (
    FamilySpec,
    fingerprint,
    gaussian_directions,
    mean_pairs,
    sample_table,
    window_for,
)
from .stats import ks_two_sample, table_stats
from .windows import WindowKind, ball_radius, unit_ball_volume


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


def _ks_report(test_name, spec, sizes, seeds, alpha, chunks_a, chunks_b) -> TestReport:
    """Two-sample KS per statistic between two sides, each a list of
    per-chunk dicts of statistic columns, with the Bonferroni verdict over
    all of them."""
    names = tuple(chunks_a[0])
    p_values = {
        name: ks_two_sample(
            np.concatenate([c[name] for c in chunks_a]),
            np.concatenate([c[name] for c in chunks_b]),
        )[1]
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


# Trials are sampled in chunks of about this many vertex pairs.  A chunk's
# table holds 16 bytes an edge and 8 to 8 * dim bytes a vertex and a
# latent, and its sampler call draws the chunk's edges in packed tiles of
# at most samplers.PACKED_PAIRS (2^11) pairs, about four a chunk, whose
# coin temporaries set the harness's peak.  The harness then holds about
# as much memory as one small sample, however many trials it runs, and
# pays its per-chunk numpy overhead a few times per report rather than
# once per trial.
CHUNK_PAIRS = 2**13


def _chunks(N: int, pairs_per_trial: float = 1.0):
    """Trial indices 0..N-1 in chunks of about CHUNK_PAIRS vertex pairs."""
    step = max(1, int(CHUNK_PAIRS // max(1.0, pairs_per_trial)))
    for lo in range(0, N, step):
        yield np.arange(lo, min(lo + step, N))


def _trial_coins(spec: FamilySpec, tag: str, trials: np.ndarray, width: int) -> np.ndarray:
    """Uniforms keyed (spec.seed, tag, t, k): one row per trial t, k < width."""
    return coin_batch(CoinPRF(spec.seed), tag, trials[:, None], np.arange(width))


def _generators(spec: FamilySpec, gen_set: GeneratorSet, trials: np.ndarray) -> np.ndarray:
    """The generator row of each trial, from that trial's own coins."""
    return sample_generators(
        gen_set, _trial_coins(spec, "generator", trials, generator_coins(gen_set))
    )


def test_projectivity(
    spec: FamilySpec, n, m, N: int, alpha: float = 0.01, mode: str = "exact"
) -> TestReport:
    """Certify that restricting samples at window m reproduces window n.

    mode="exact" couples both sides through one seed per trial and demands
    bit-identical graphs (restriction drops graphex vertices left without
    an edge, as the graphex sampler does).  A failing exact report names
    its first mismatching trial and that trial's seed, with which
    `pointgraphs sample` at n and at m reproduces it.
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
            restricted = restrict_table(sample_table(spec, m, seeds), win_n)
            differ = np.flatnonzero(differing_trials(restricted, sample_table(spec, n, seeds)))
            if len(differ) and not mismatches:
                first = int(differ[0])
                details["first_mismatch"] = {"trial": int(trials[first]), "seed": int(seeds[first])}
            mismatches += len(differ)
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
    restricted, direct = [], []
    for trials in _chunks(N, mean_pairs(spec, win_m.size)):
        bigs = sample_table(spec, m, derive_seeds(spec.seed, 2 * trials))
        restricted.append(table_stats(restrict_table(bigs, win_n)))
        direct.append(table_stats(sample_table(spec, n, derive_seeds(spec.seed, 2 * trials + 1))))
    sizes, seeds = {"N": N, "n": win_n.size, "m": win_m.size}, {"seed": spec.seed}
    return _ks_report(
        "projectivity_distributional", spec, sizes, seeds, alpha, restricted, direct
    )


# ---------------------------------------------------------------------------
# Invariance


def _per_trial(table: GraphTable, per_edge: np.ndarray) -> np.ndarray:
    """The sum of a count per edge over each trial's edges."""
    return np.bincount(
        table.edge_trials(), weights=per_edge, minlength=table.n_trials
    ).astype(np.int64)


def _ordered_pairs(table: GraphTable, in_a: np.ndarray, in_b: np.ndarray) -> np.ndarray:
    """Per trial, the ordered pairs (x, y) of edge endpoints with x in region
    a and y in region b, from each row's membership in the two regions."""
    ends = table.ends
    # row (i, j) against its reverse (j, i): the pairs (i, j) and (j, i)
    return _per_trial(table, np.count_nonzero(in_a[ends] & in_b[ends[:, ::-1]], axis=1))


def _endpoints(table: GraphTable, in_a: np.ndarray) -> np.ndarray:
    """Per trial, the edge endpoints in region a, from each row's membership
    in it: the degree of a one-vertex region, the endpoint count of a
    larger one."""
    return _per_trial(table, np.count_nonzero(in_a[table.ends], axis=1))


def _vertices(table: GraphTable, in_a: np.ndarray) -> np.ndarray:
    """Per trial, the vertices in region a."""
    return np.bincount(table.row_trials()[in_a], minlength=table.n_trials)


def _half_space(x) -> np.ndarray:
    """Whether each point (a row of x, or x itself) has a direction, a finite
    radius r and a nonnegative cosine x[0] / r with the first axis."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # a square may overflow to inf, r may be 0
        r = np.sqrt(np.sum(x * x, axis=-1))
        return (0.0 < r) & (r < math.inf) & (x[..., 0] / r >= 0.0)


def _invariance_stats(spec: FamilySpec, n):
    """Label-dependent statistics of a table, one column per statistic with
    a value per trial.  Each region is a predicate over the label column,
    and pairs are counted from the edges."""
    if spec.family == "graphon":

        def stats(table):
            is_1, is_2 = table.labels == 1, table.labels == 2
            return {
                "vertex1_degree": _endpoints(table, is_1),
                "edge_12": (_ordered_pairs(table, is_1, is_2) > 0).astype(float),
            }

        return stats
    if spec.family == "graphex":
        half = n / 2

        def stats(table):
            in_half = (0.0 <= table.labels) & (table.labels < half)
            return {
                "vertices_left_half": _vertices(table, in_half),
                "endpoints_left_half": _endpoints(table, in_half),
                "edges_in_left_half": _ordered_pairs(table, in_half, in_half),
            }

        return stats

    def stats(table):
        in_half = _half_space(table.labels)
        return {
            "vertices_half_space": _vertices(table, in_half),
            "edges_in_half_space": _ordered_pairs(table, in_half, in_half),
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
    base, moved = [], []
    shown = []
    for trials in _chunks(N, mean_pairs(spec, win_n.size)):
        table = sample_table(spec, n, derive_seeds(spec.seed, trials))
        gens = _generators(spec, gen_set, trials)
        shown += [serialize_element(gen_set, g) for t, g in zip(trials.tolist(), gens) if t < 3]
        base.append(stats_fn(table))
        moved.append(stats_fn(apply_table(gen_set, gens, table)))
    sizes = {"N": N, "n": win_n.size, "m": None}
    seeds = {"seed": spec.seed, "generators": shown}
    return _ks_report("invariance", spec, sizes, seeds, alpha, base, moved)


# ---------------------------------------------------------------------------
# Compatibility


def _label_coins(window) -> int:
    """How many uniforms _window_labels reads per label of the window."""
    if window.kind is WindowKind.EUCLIDEAN_BALL:
        return 1 + 2 * math.ceil(window.dim / 2)  # a radius, then Box-Muller pairs
    return 1


def _window_labels(window, us: np.ndarray) -> np.ndarray:
    """One label of the window per row of a (rows, _label_coins) array of
    uniforms, as a label column: uniform on {1..n}, on the multiples of
    2^-POSITION_BITS in [0, n), or on the ball."""
    if window.kind is WindowKind.INTEGER_PREFIX:
        return index_from_uniform(us[:, 0], window.size) + 1
    if window.kind is WindowKind.REAL_INTERVAL:
        steps = float(math.ceil(window.size * 2**POSITION_BITS))
        x = np.floor(us[:, 0] * steps) * 2.0**-POSITION_BITS
        # exact below 2^53 steps (see index_from_uniform); past it, clamped
        return np.minimum(x, np.nextafter(window.size, 0.0))
    e = 1.0 / window.dim
    r = np.array([v**e for v in (us[:, 0] * window.size / unit_ball_volume(window.dim)).tolist()])
    # A radius coin within ~1e-15 of 1 can round r times a unit direction
    # onto or past the sphere: r stays 2^-48 of the radius below it, more
    # than that rounding, so every label lies inside the open ball.
    r = np.minimum(r, ball_radius(window.dim, window.size) * (1.0 - 2.0**-48))
    return r.reshape(-1, 1) * gaussian_directions(us[:, 1:], window.dim)


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether row r of label column a differs from row r of b."""
    ne = a != b
    return ne.any(axis=1) if ne.ndim > 1 else ne


def test_compatibility(spec: FamilySpec, n, m, trials: int, k_max: int = 3) -> TestReport:
    """Exact commutation of embeddings with actions and with restriction.

    For random labels x in the family's window at n and random generators g
    of its group, asserts apply(extend(g), x) == apply(g, x) bit for bit,
    and that restricting after acting equals acting after restricting for
    one-edge graphs on two labels a != b in the window at m.  The
    restriction and the action are restrict_table and apply_table, the ones
    projectivity and invariance run, over one table per chunk of trials;
    an action that merges the two labels counts as a pair mismatch.  Trial
    t draws its generator and its labels x, a, b from coins keyed by
    (spec.seed, t), one coin batch per chunk of trials.  A failing report
    names its first mismatching trial and that trial's generator.
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
    details = {}
    for chunk in _chunks(trials):  # each trial acts on one label and one edge
        us = _trial_coins(spec, "label", chunk, 3 * width)
        gens = _generators(spec, gen_set, chunk)
        exts = extend_element(gen_set, gens, win_n, win_m)
        xs = _window_labels(win_n, us[:, :width])
        ones = np.arange(len(chunk) + 1)
        points = GraphTable(win_n, xs, None, np.zeros((0, 2), dtype=np.int64), ones)
        moved_x = differing_trials(
            apply_table(gen_set, exts, points), apply_table(gen_set, gens, points)
        )
        label_mismatch += int(np.count_nonzero(moved_x))
        as_ = _window_labels(win_m, us[:, width : 2 * width])
        bs = _window_labels(win_m, us[:, 2 * width :])
        kept = np.flatnonzero(_rows_differ(as_, bs))
        exts = exts[kept]
        rows = np.arange(2 * len(kept))
        pair = GraphTable(
            win_m,
            np.stack((as_[kept], bs[kept]), axis=1).reshape(len(rows), *as_.shape[1:]),
            None,
            rows.reshape(-1, 2),
            np.arange(0, len(rows) + 1, 2),
            spec.family,
        )
        moved = apply_table(gen_set, exts, pair)
        left = restrict_table(moved, win_n)
        right = apply_table(gen_set, exts, restrict_table(pair, win_n))
        merged = ~_rows_differ(moved.labels[0::2], moved.labels[1::2])
        bad_pair = kept[merged | differing_trials(left, right)]
        pair_mismatch += len(bad_pair)
        bad = np.concatenate((np.flatnonzero(moved_x), bad_pair))
        if len(bad) and not details:
            t = bad.min()
            generator = serialize_element(gen_set, gens[t])
            details["first_mismatch"] = {"trial": int(chunk[t]), "generator": generator}
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
        details={**details, "label_mismatches": label_mismatch, "pair_mismatches": pair_mismatch},
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
        table = sample_table(spec, n, derive_seeds(spec.seed, trials))
        owner = table.edge_trials()
        ends = table.ends - table.starts[owner][:, None]  # vertex indices in each trial
        # distinct bits, so each graph's mask is the sum of its edges' bits
        masks = np.zeros(len(trials), dtype=np.int64)
        np.add.at(masks, owner, bit[ends[:, 0], ends[:, 1]])
        counts += np.bincount(masks, minlength=len(counts))
    return EnumeratedDistribution(
        n=n, trials=N, counts=tuple(counts.tolist()), probs=tuple(_exact_mask_probs(spec, n))
    )
