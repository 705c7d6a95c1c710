import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pointgraphs import (
    BallSector,
    IntRange,
    WindowKind,
    contains,
    derive_seeds,
    make_graph,
    make_window,
    restrict_graph,
    sample,
    sample_batch,
    spec_from_dict,
)
from pointgraphs.edgelist import dumps_graph, loads_graph
from pointgraphs.harness import _endpoints, _members, _ordered_pairs
from pointgraphs.pairs import box_contains

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WIN4 = make_window(WindowKind.INTEGER_PREFIX, 4)

# the running example: vertices 1..4, edges {1,2}, {2,3}, {3,4}, {4,2}
FIG_GRAPH = make_graph(WIN4, (1, 2, 3, 4), {(0, 1), (1, 2), (2, 3), (3, 1)})


def label_edges(graph) -> set:
    return {frozenset((graph.vertices[i], graph.vertices[j])) for i, j in graph.edges}


def test_count_fig_examples():
    # ordered pairs of edge endpoints in boxes: each edge is two atoms
    is_2, full = _members(IntRange(2, 2), FIG_GRAPH), _members(IntRange(1, 4), FIG_GRAPH)
    assert _ordered_pairs(FIG_GRAPH, is_2, full) == 3
    assert _endpoints(FIG_GRAPH, is_2) == 3
    assert _ordered_pairs(FIG_GRAPH, full, full) == 2 * FIG_GRAPH.n_edges
    assert _endpoints(FIG_GRAPH, full) == 2 * FIG_GRAPH.n_edges
    empty = make_graph(WIN4, (1, 2, 3, 4), ())
    assert _ordered_pairs(empty, full, full) == 0 and _endpoints(empty, full) == 0


def test_count_additive_over_disjoint_boxes():
    low, high = _members(IntRange(1, 2), FIG_GRAPH), _members(IntRange(3, 4), FIG_GRAPH)
    full = _members(IntRange(1, 4), FIG_GRAPH)
    assert (
        _ordered_pairs(FIG_GRAPH, low, full) + _ordered_pairs(FIG_GRAPH, high, full)
        == _ordered_pairs(FIG_GRAPH, full, full)
    )
    assert _endpoints(FIG_GRAPH, low) + _endpoints(FIG_GRAPH, high) == _endpoints(FIG_GRAPH, full)


def test_ball_sector_membership():
    sector = BallSector(0.0, 2.0, axis=(1.0, 0.0), min_cos=0.0)
    assert box_contains(sector, (0.5, 0.3))
    assert not box_contains(sector, (-0.5, 0.3))
    assert not box_contains(sector, (3.0, 0.0))  # radius out of range
    assert not box_contains(sector, (0.0, 0.0))  # origin has no direction
    assert box_contains(BallSector(0.0, math.inf), (0.0, 0.0))


@st.composite
def integer_graphs(draw):
    """A graph in {1..n} with any vertex subset, in any order; a graphex
    family makes restriction drop isolated vertices."""
    n = draw(st.integers(min_value=2, max_value=12))
    vertices = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True))
    pairs = list(itertools.combinations(range(len(vertices)), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=20)) if pairs else set()
    family = draw(st.sampled_from([None, "graphon", "graphex"]))
    latents = draw(st.none() | st.just(tuple(v / 16 for v in vertices)))
    return make_graph(
        make_window(WindowKind.INTEGER_PREFIX, n), vertices, edges, latents, family=family
    )


def _prefix(k: int):
    return make_window(WindowKind.INTEGER_PREFIX, k)


@given(integer_graphs(), st.data())
def test_restriction_composes(graph, data):
    k = data.draw(st.integers(min_value=1, max_value=graph.window.size))
    j = data.draw(st.integers(min_value=1, max_value=k))
    assert restrict_graph(restrict_graph(graph, _prefix(k)), _prefix(j)) == restrict_graph(
        graph, _prefix(j)
    )


@given(integer_graphs())
def test_restrict_to_own_window_is_identity(graph):
    kept = restrict_graph(graph, graph.window)
    if graph.family == "graphex":
        touched = {i for e in graph.edges for i in e}
        assert kept.vertices == tuple(v for i, v in enumerate(graph.vertices) if i in touched)
        assert label_edges(kept) == label_edges(graph)
    else:
        assert kept == graph


@given(integer_graphs(), st.data())
def test_restrict_drops_pairs_with_one_endpoint_outside(graph, data):
    k = data.draw(st.integers(min_value=1, max_value=graph.window.size))
    inside = {e for e in label_edges(graph) if max(e) <= k}
    assert label_edges(restrict_graph(graph, _prefix(k))) == inside


@given(integer_graphs(), st.integers(min_value=1, max_value=12))
def test_restriction_preserves_symmetry(graph, k):
    # the restriction of a graph (a symmetric measure) is again a valid graph
    got = restrict_graph(graph, _prefix(min(k, graph.window.size)))
    made = make_graph(got.window, got.vertices, got.edges, got.latents, got.family)
    assert made == got


def test_restrict_graph_induced_subgraph():
    got = restrict_graph(FIG_GRAPH, make_window(WindowKind.INTEGER_PREFIX, 3))
    assert got.vertices == (1, 2, 3)
    assert got.edges == {(0, 1), (1, 2)}
    w2, w3 = (make_window(WindowKind.REAL_INTERVAL, s) for s in (2.0, 3.0))
    g = make_graph(w3, (0.5, 2.5), [(0, 1)])
    assert restrict_graph(g, w2) == make_graph(w2, (0.5,), ())


def test_restrict_graph_prunes_isolated_when_asked():
    # a graphex graph holds only vertices with an edge, so its restriction
    # drops the vertices that lose theirs; other families keep them
    w3 = make_window(WindowKind.INTEGER_PREFIX, 3)
    edges = {(0, 1), (2, 3)}  # 3 only touches 4
    for family in (None, "graphon"):
        kept = restrict_graph(make_graph(WIN4, (1, 2, 3, 4), edges, family=family), w3)
        assert kept.vertices == (1, 2, 3) and kept.edges == {(0, 1)}
    pruned = restrict_graph(make_graph(WIN4, (1, 2, 3, 4), edges, family="graphex"), w3)
    assert pruned.vertices == (1, 2) and pruned.edges == {(0, 1)}
    isolated = make_graph(WIN4, (1, 2, 3, 4), {(1, 3)}, family="graphex")
    assert restrict_graph(isolated, WIN4).vertices == (2, 4)


def test_make_graph_validations():
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 1), set())
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 2), {(0, 0)})
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 2), {(0, 5)})
    with pytest.raises(ValueError, match="outside the declared window"):
        make_graph(WIN4, (1, 9), set())
    with pytest.raises(TypeError, match="does not match window kind"):
        make_graph(WIN4, (1, 2.5), set())
    ball = make_window(WindowKind.EUCLIDEAN_BALL, 10.0, dim=2)
    with pytest.raises(TypeError, match="point of dimension 3"):
        make_graph(ball, ((0.1, 0.2), (0.1, 0.2, 0.3)), set())
    with pytest.raises(ValueError, match="more than once"):
        make_graph(WIN4, (1, 2), [(0, 1), (1, 0)])
    with pytest.raises(TypeError, match="integer"):
        make_graph(WIN4, (1, 2, 3), [(0.5, 2)])  # a fractional index is no vertex
    with pytest.raises(ValueError, match="pairs"):
        make_graph(WIN4, (1, 2, 3), [(0, 1, 2)])
    assert make_graph(WIN4, (1, 2), [(1, 0)]).edges == {(0, 1)}
    assert make_graph(WIN4, (1, 2, 3), np.array([[2, 0], [1, 2]])).edges == {(0, 2), (1, 2)}


def test_equal_graphs_hash_equal():
    flipped = make_graph(WIN4, (1, 2, 3, 4), [(1, 3), (2, 1), (1, 0), (3, 2)])
    assert flipped == FIG_GRAPH and hash(flipped) == hash(FIG_GRAPH)
    other = make_graph(WIN4, (1, 2, 3, 4), [(0, 1), (1, 2), (2, 3)])
    assert other != FIG_GRAPH
    assert {FIG_GRAPH, flipped, other} == {FIG_GRAPH, other}


def _induced_subgraph(graph, window):
    """restrict_graph's result, one label and one edge at a time in Python:
    (vertices, latents, edges in increasing order)."""
    keep = [i for i, v in enumerate(graph.vertices) if contains(window, v)]
    kept = set(keep)
    edges = sorted((i, j) for i, j in graph.edges if i in kept and j in kept)
    if graph.family == "graphex":
        touched = {i for e in edges for i in e}
        keep = [i for i in keep if i in touched]
    new = {old: k for k, old in enumerate(keep)}
    latents = None if graph.latents is None else tuple(graph.latents[i] for i in keep)
    return tuple(graph.vertices[i] for i in keep), latents, [(new[i], new[j]) for i, j in edges]


def _assert_restricts_like_the_oracle(graph, window):
    got = restrict_graph(graph, window)
    vertices, latents, edges = _induced_subgraph(graph, window)
    assert got.vertices == vertices and got.latents == latents
    assert list(map(tuple, got.ends.tolist())) == edges
    assert (got.window, got.family, got.fingerprint) == (window, graph.family, graph.fingerprint)


@given(integer_graphs(), st.data())
def test_restrict_graph_matches_a_python_induced_subgraph(graph, data):
    k = data.draw(st.integers(min_value=1, max_value=graph.window.size))
    _assert_restricts_like_the_oracle(graph, _prefix(k))


SAMPLED = {"graphon_grid": (40, (1, 13, 40)), "graphex": (6.0, (0.5, 2.5, 6.0)),
           "rotinv": (30.0, (1.0, 11.0, 30.0))}


def _sampled_graphs(config: str) -> list:
    spec = spec_from_dict(json.loads((CONFIGS / f"{config}.json").read_text()))
    n = SAMPLED[config][0]
    return [sample(spec, n)] + sample_batch(spec, n, derive_seeds(spec.seed, np.arange(6)))


@pytest.mark.parametrize("config", list(SAMPLED))
def test_restrict_graph_of_samples_matches_a_python_induced_subgraph(config):
    for graph in _sampled_graphs(config):
        for size in SAMPLED[config][1]:
            _assert_restricts_like_the_oracle(
                graph, make_window(graph.window.kind, size, graph.window.dim)
            )


def _assert_sorted_read_only_ends(graph):
    ends = graph.ends
    assert ends.dtype == np.int64 and ends.shape == (graph.n_edges, 2)
    assert not ends.flags.writeable
    assert np.all(ends[:, 0] < ends[:, 1])
    assert np.all((ends >= 0) & (ends < graph.n_vertices))
    keys = ends[:, 0] * graph.n_vertices + ends[:, 1]
    assert np.all(keys[1:] > keys[:-1])  # strictly increasing in (i, j)
    assert graph.edges == set(map(tuple, ends.tolist()))


@pytest.mark.parametrize("config", list(SAMPLED))
def test_every_constructor_stores_sorted_read_only_int64_ends(config):
    rng = np.random.default_rng(5)
    graphs = _sampled_graphs(config)
    assert sum(g.n_edges for g in graphs) > 0
    graphs += [
        restrict_graph(g, make_window(g.window.kind, size, g.window.dim))
        for g in graphs[:3]
        for size in SAMPLED[config][1]
    ]
    graphs += [loads_graph(dumps_graph(g)) for g in graphs[:3]]
    # given shuffled and flipped, make_graph sorts
    graphs += [make_graph(g.window, g.vertices, rng.permutation(g.ends)[:, ::-1]) for g in graphs]
    graphs.append(make_graph(WIN4, (1, 2, 3, 4), [(3, 1), (0, 3), (2, 1), (1, 0)]))
    for graph in graphs:
        _assert_sorted_read_only_ends(graph)
