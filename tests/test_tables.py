"""Chunk tables: one table per batch of trials, against the per-trial forms.

The harness restricts, acts, computes statistics and compares whole
tables.  Each of those must give, trial for trial, what the one-graph
forms give on the graphs cut from the same table, one per trial.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointgraphs import harness as certify
from pointgraphs import (
    Constant,
    GraphexIndicator,
    HardDistance,
    PoissonRate,
    SoftDistance,
    WindowKind,
    WindowScaledConstant,
    apply_table,
    ball_radius,
    differing_trials,
    fingerprint,
    generator_coins,
    graph_stats,
    graphex_spec,
    graphon_spec,
    make_window,
    reseeded,
    restrict_table,
    rotinv_spec,
    sample,
    sample_generators,
    sample_table,
    spec_from_dict,
    table_stats,
    window_for,
)
from pointgraphs import groups, pairs
from pointgraphs.coins import CoinPRF, coin_batch, derive_seeds
from pointgraphs.edgelist import dumps_graph, loads_graph
from pointgraphs.windows import contains_column
from tests.test_groups import apply_label
from tests.test_pairs import trial_graph

# (spec, n, m) per family; graphex and rotinv draw trials with no point
CASES = {
    "graphon": (graphon_spec(Constant(0.5), seed=1), 4, 9),
    "graphex": (graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=2), 1.5, 4.0),
    "rotinv-2": (rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(2.0), seed=3), 2.0, 6.0),
    "rotinv-3": (
        rotinv_spec(SoftDistance(0.6, 1.5), dim=3, point=PoissonRate(2.0), seed=4), 1.5, 4.0
    ),
}


def _swap_oracle(x: float, swap) -> float:
    """A dyadic swap (i, j, k) on one label, in Python floats."""
    i, j, k = swap
    width = 2.0**-k
    if (i - 1) * width < x <= i * width:
        return x + (j - i) * width
    if (j - 1) * width < x <= j * width:
        return x - (j - i) * width
    return x


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    seed=st.integers(min_value=0, max_value=2**63),
    trials=st.integers(min_value=1, max_value=12),
)
def test_chunk_table_equals_per_trial_calls(case, seed, trials):
    spec, n, m = CASES[case]
    spec = reseeded(spec, seed)
    seeds = derive_seeds(seed, np.arange(trials))
    fingerprints = [fingerprint(reseeded(spec, s)) for s in seeds.tolist()]
    win_n = window_for(spec, n)
    table = sample_table(spec, m, seeds)
    graphs = [trial_graph(table, t, fp) for t, fp in enumerate(fingerprints)]
    assert graphs == [sample(reseeded(spec, s), m) for s in seeds.tolist()]

    # restriction
    restricted = restrict_table(table, win_n)
    assert [trial_graph(restricted, t, fp) for t, fp in enumerate(fingerprints)] == [
        restrict_table(g, win_n) for g in graphs
    ]
    direct = sample_table(spec, n, seeds)
    assert not differing_trials(restricted, direct).any()

    # the group action, one element per trial
    gen_set = certify._generator_set(spec, win_n, 3)
    us = coin_batch(CoinPRF(seed), "g", np.arange(trials)[:, None],
                    np.arange(generator_coins(gen_set)))
    gens = sample_generators(gen_set, us)
    acted = apply_table(gen_set, gens, table)
    moved = [trial_graph(acted, t) for t in range(trials)]
    for g, graph, got in zip(gens, graphs, moved):
        assert got.ends.tobytes() == graph.ends.tobytes()
        assert got.latents.tolist() == graph.latents.tolist()
        assert got.vertices == tuple(apply_label(gen_set, g, v) for v in graph.vertices)
        if isinstance(gen_set, groups.Transpositions):
            a, b = g.tolist()
            assert got.vertices == tuple({a: b, b: a}.get(v, v) for v in graph.vertices)
        elif isinstance(gen_set, groups.DyadicSwaps):
            assert got.vertices == tuple(_swap_oracle(v, g.tolist()) for v in graph.vertices)
        else:  # the sums may round differently from a matrix product
            want = [g @ np.asarray(v) for v in graph.vertices]
            assert np.allclose(np.reshape(got.vertices, (-1, spec.dim)),
                               np.reshape(want, (-1, spec.dim)), rtol=0, atol=1e-12)

    # the statistics: graph statistics and the invariance statistics
    stats = table_stats(table)
    per_graph = [graph_stats(g) for g in graphs]
    for name in stats:
        assert stats[name].tolist() == [getattr(s, name) for s in per_graph]
    invariance = certify._invariance_stats(spec, win_n.size)
    columns = invariance(table)
    for name, column in columns.items():
        assert column.tolist() == [invariance(g)[name][0] for g in graphs]

    # exact equality names exactly the trial that was changed
    filled = np.flatnonzero(np.diff(table.starts))
    if len(filled):
        labels = table.labels.copy()
        labels[table.starts[filled[0]]] += 1
        changed = pairs.GraphTable(table.window, labels, table.latents, table.ends,
                                   table.starts, table.family)
        assert np.flatnonzero(differing_trials(changed, table)).tolist() == [filled[0]]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_one_graph_survives_its_one_trial_table(config):
    spec = spec_from_dict(json.loads((CONFIGS / f"{config}.json").read_text()))
    sizes = {"graphon": (1, 7, 40), "graphex": (0.05, 1.5, 6.0), "rotinv": (0.05, 3.0, 30.0)}
    graphs = [sample(reseeded(spec, s), n) for n in sizes[spec.family] for s in (1, 2)]
    graphs += [restrict_table(g, window_for(spec, sizes[spec.family][0])) for g in graphs]
    if spec.family == "graphex":  # no point of the smallest window has an edge
        assert graphs[0].n_vertices == 0
    assert any(g.n_edges for g in graphs)
    for g in graphs:
        assert g.n_trials == 1 and g.starts.tolist() == [0, g.n_vertices]
        columns = (g.window, g.labels, g.latents, g.ends, g.starts, g.family)
        rebuilt = pairs.GraphTable(*columns, g.fingerprint)
        assert rebuilt == g and hash(rebuilt) == hash(g)
        assert pairs.GraphTable(*columns) != g  # the fingerprint is compared


def test_a_table_of_several_trials_is_their_disjoint_union():
    # graph_stats and the edge list read a table of two trials as one graph,
    # the disjoint union of its trials
    spec = rotinv_spec(HardDistance(0.8), dim=2, point=PoissonRate(4.0), seed=9)
    table = sample_table(spec, 6.0, derive_seeds(spec.seed, np.arange(2)))
    per_trial = table_stats(table)
    assert table.n_trials == 2 and (per_trial["triangle_count"] > 0).all()
    back = loads_graph(dumps_graph(table))
    assert back.n_trials == 1 and back.vertices == table.vertices and back.edges == table.edges
    for stats in (graph_stats(table), graph_stats(back)):
        assert stats.edge_count == table.n_edges == per_trial["edge_count"].sum()
        assert stats.triangle_count == per_trial["triangle_count"].sum()
        assert stats.max_degree == per_trial["max_degree"].max()
    assert graph_stats(back) == graph_stats(table)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_ball_column_membership_equals_fsum_membership(dim):
    """Points within ulps of the sphere are decided by the fsum of their squares."""
    window = make_window(WindowKind.EUCLIDEAN_BALL, 3.0, dim=dim)
    us = coin_batch(CoinPRF(dim), "p", np.arange(3000)[:, None], np.arange(dim))
    directions = (us - 0.5) / np.linalg.norm(us - 0.5, axis=1, keepdims=True)
    # radii spread over a few ulps on either side of the sphere
    ulps = np.arange(-6, 7)[np.arange(3000) % 13]
    points = directions * (ball_radius(dim, 3.0) * (1 + ulps * 2.0**-52))[:, None]
    got = contains_column(window, points)
    r = ball_radius(dim, 3.0)
    assert got.tolist() == [math.fsum(c * c for c in p) < r * r for p in points.tolist()]
    assert 0 < got.sum() < len(got)


def test_differing_trials_sees_labels_latents_edges_and_sizes():
    spec, n, m = CASES["graphon"]
    table = sample_table(spec, m, derive_seeds(5, np.arange(6)))
    assert not differing_trials(table, table).any()
    latents = table.latents.copy()
    latents[table.starts[2]] += 0.5
    changed = pairs.GraphTable(table.window, table.labels, latents, table.ends,
                               table.starts, table.family)
    assert differing_trials(changed, table).tolist() == [False, False, True, False, False, False]
    fewer = restrict_table(table, window_for(spec, m - 1))
    assert differing_trials(fewer, table).all()
    # a latent column on one side only: a trial with no vertex has no latent to differ in
    two = [pairs.GraphTable(table.window, np.array([1, 2]), latents, np.array([[0, 1]]),
                            np.array([0, 0, 2]), table.family)
           for latents in (np.array([0.1, 0.2]), None)]
    assert differing_trials(*two).tolist() == [False, True]


# The four certify-suite reports at its sizes, and at twice its trials.
def _suite(scale: int):
    yield certify.test_projectivity(graphon_spec(Constant(0.5), seed=7), 5, 20, 500 * scale)
    yield certify.test_invariance(
        graphex_spec(GraphexIndicator(1.0), y_max=1.0, seed=7), 2, 250 * scale, alpha=0.001
    )
    yield certify.test_invariance(
        rotinv_spec(HardDistance(0.5), dim=2, point=PoissonRate(3.0), seed=7), 8, 100 * scale,
        alpha=0.001,
    )
    yield certify.test_projectivity(
        graphon_spec(WindowScaledConstant(0.6), seed=7), 3, 6, 1000 * scale, alpha=0.001,
        mode="distributional",
    )


def test_certify_suite_builds_no_graph_per_trial(monkeypatch):
    # a few tables per chunk of trials, never one per trial: doubling the
    # trials doubles the tables only where it doubles the chunks
    built, chunks = [], []
    post_init, chunked = pairs.GraphTable.__post_init__, certify._chunks

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_chunks(*args, **kwargs):
        for chunk in chunked(*args, **kwargs):
            chunks.append(len(chunk))
            yield chunk

    monkeypatch.setattr(pairs.GraphTable, "__post_init__", counting_post_init)
    monkeypatch.setattr(certify, "_chunks", counting_chunks)
    counts = {}
    for scale in (1, 2):
        for index, report in enumerate(_suite(scale)):
            counts[scale, index] = len(built), len(chunks), sum(chunks)
            built.clear()
            chunks.clear()
            assert report.passed == (index < 3)
    for index in range(4):
        (tables, n_chunks, trials), (tables_2, n_chunks_2, trials_2) = (
            counts[scale, index] for scale in (1, 2)
        )
        assert trials_2 == 2 * trials and n_chunks < trials
        assert tables * n_chunks_2 == tables_2 * n_chunks  # the same tables a chunk
        assert tables <= 3 * n_chunks
    assert counts[2, 0][1] == 2 * counts[1, 0][1]  # a report whose chunks double


def test_haar_rotations_check_the_stack_once(monkeypatch):
    calls = []
    check = groups._check_rotations

    def spy(qs):
        calls.append(len(qs))
        check(qs)

    monkeypatch.setattr(groups, "_check_rotations", spy)
    gen_set = certify.RandomRotations(3)
    us = coin_batch(CoinPRF(11), "r", np.arange(500)[:, None], np.arange(generator_coins(gen_set)))
    rotations = sample_generators(gen_set, us)
    assert calls == [500]
    # each one still a rotation
    for q in rotations[:20]:
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        check(rotations[:1] * 1.01)


def test_permutations_and_swaps_act_on_ragged_tables():
    # trials of different sizes, one of them empty
    table = pairs.GraphTable(None, np.array([1, 2, 3, 1, 5, 2]), None,
                             np.zeros((0, 2), np.int64), np.array([0, 3, 3, 6]))
    gens = np.array([[1, 2], [1, 3], [5, 1]])
    assert apply_table(groups.Transpositions(5), gens, table).labels.tolist() == [2, 1, 3, 5, 1, 2]
    reals = pairs.GraphTable(None, np.array([0.25, 0.75, 0.25, 0.0, 1.5]), None,
                             np.zeros((0, 2), np.int64), np.array([0, 2, 2, 5]))
    swaps = np.array([[1, 2, 1], [1, 2, 0], [1, 6, 2]])  # at depths 1, 0 and 2
    got = apply_table(groups.DyadicSwaps(2.0, 2), swaps, reals).labels.tolist()
    assert got == [0.75, 0.25, 1.5, 0.0, 0.25]
    with pytest.raises(TypeError):
        apply_table(groups.Transpositions(5), gens[:3], reals)
