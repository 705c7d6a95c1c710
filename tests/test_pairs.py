import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pointgraphs import (
    WindowKind,
    derive_seeds,
    make_graph,
    make_window,
    reseeded,
    restrict_table,
    sample,
    spec_from_dict,
)
from pointgraphs.edgelist import dumps_graph, loads_graph
from pointgraphs.harness import _endpoints, _half_space, _ordered_pairs
from pointgraphs.pairs import GraphTable
from tests.test_windows import inside

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WIN4 = make_window(WindowKind.INTEGER_PREFIX, 4)

# the running example: vertices 1..4, edges {1,2}, {2,3}, {3,4}, {4,2}
FIG_GRAPH = make_graph(WIN4, (1, 2, 3, 4), {(0, 1), (1, 2), (2, 3), (3, 1)})


def trial_graph(table, t: int, fingerprint=None):
    """Trial t of a table as a graph: its rows and edge run cut into a
    table of one trial."""
    lo, hi = table.starts[t : t + 2].tolist()
    cuts = table.edge_starts()
    latents = table.latents[lo:hi] if table.latents is not None else None
    one = GraphTable(table.window, table.labels[lo:hi], latents,
                     table.ends[cuts[t] : cuts[t + 1]] - lo, np.array([0, hi - lo]), table.family)
    return replace(one, fingerprint=fingerprint)


def latent_list(graph):
    """The latent column as a list of Python floats, or None."""
    return None if graph.latents is None else graph.latents.tolist()


def label_edges(graph) -> set:
    return {frozenset((graph.vertices[i], graph.vertices[j])) for i, j in graph.edges}


def in_range(lo, hi):
    """The membership of each label of FIG_GRAPH in lo..hi."""
    return (lo <= FIG_GRAPH.labels) & (FIG_GRAPH.labels <= hi)


def test_count_fig_examples():
    # ordered pairs of edge endpoints in regions: each edge is two atoms;
    # the helpers count per trial, and FIG_GRAPH is one trial
    is_2, full = in_range(2, 2), in_range(1, 4)
    assert _ordered_pairs(FIG_GRAPH, is_2, full).tolist() == [3]
    assert _endpoints(FIG_GRAPH, is_2).tolist() == [3]
    assert _ordered_pairs(FIG_GRAPH, full, full).tolist() == [2 * FIG_GRAPH.n_edges]
    assert _endpoints(FIG_GRAPH, full).tolist() == [2 * FIG_GRAPH.n_edges]
    empty = make_graph(WIN4, (1, 2, 3, 4), ())
    assert _ordered_pairs(empty, full, full).tolist() == [0]
    assert _endpoints(empty, full).tolist() == [0]


def test_count_additive_over_disjoint_boxes():
    low, high, full = in_range(1, 2), in_range(3, 4), in_range(1, 4)
    assert (
        _ordered_pairs(FIG_GRAPH, low, full) + _ordered_pairs(FIG_GRAPH, high, full)
        == _ordered_pairs(FIG_GRAPH, full, full)
    )
    assert _endpoints(FIG_GRAPH, low) + _endpoints(FIG_GRAPH, high) == _endpoints(FIG_GRAPH, full)


def test_half_space_membership():
    assert _half_space((0.5, 0.3))
    assert _half_space((0.0, 1.0))
    assert _half_space((-0.0, 1.0))  # -0.0 / r compares equal to 0.0
    assert _half_space((-5e-324, 4.0))  # x[0] / r underflows to -0.0
    assert not _half_space((-0.5, 0.3))  # negative first coordinate
    assert not _half_space((0.0, 0.0))  # the origin has no direction
    assert not _half_space((-0.0, -0.0))
    assert _half_space((1e150, -1e150))
    assert not _half_space((1e160, 0.0))  # the radius overflows to inf


def sector_oracle(x) -> bool:
    """The membership of the sector of radius [0, inf) and cosine >= 0 with
    the first axis, as the retired general ball-sector region computed it."""
    axis = (1.0,) + (0.0,) * (len(x) - 1)
    r = math.sqrt(math.fsum(c * c for c in x))
    if not (0.0 <= r < math.inf):
        return False
    if r == 0.0:
        return False
    dot = math.fsum(c * a for c, a in zip(x, axis))
    return dot / r >= 0.0


# |c| <= 1e150 keeps every fsum partial finite; 1e160 squares to inf, and
# pairs near 1e154 are left out, where fsum raises on intermediate overflow.
COORDS = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e160, -1e160]
)


@given(st.integers(min_value=2, max_value=6).flatmap(lambda d: st.tuples(*[COORDS] * d)))
def test_half_space_matches_the_sector_oracle(x):
    assert _half_space(x) == sector_oracle(x)


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
    assert restrict_table(restrict_table(graph, _prefix(k)), _prefix(j)) == restrict_table(
        graph, _prefix(j)
    )


@given(integer_graphs())
def test_restrict_to_own_window_is_identity(graph):
    kept = restrict_table(graph, graph.window)
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
    assert label_edges(restrict_table(graph, _prefix(k))) == inside


@given(integer_graphs(), st.integers(min_value=1, max_value=12))
def test_restriction_preserves_symmetry(graph, k):
    # the restriction of a graph (a symmetric measure) is again a valid graph
    got = restrict_table(graph, _prefix(min(k, graph.window.size)))
    made = make_graph(got.window, got.vertices, got.edges, got.latents, got.family)
    assert made == got


def test_restrict_graph_induced_subgraph():
    got = restrict_table(FIG_GRAPH, make_window(WindowKind.INTEGER_PREFIX, 3))
    assert got.vertices == (1, 2, 3)
    assert got.edges == {(0, 1), (1, 2)}
    w2, w3 = (make_window(WindowKind.REAL_INTERVAL, s) for s in (2.0, 3.0))
    g = make_graph(w3, (0.5, 2.5), [(0, 1)])
    assert restrict_table(g, w2) == make_graph(w2, (0.5,), ())


def test_restrict_graph_prunes_isolated_when_asked():
    # a graphex graph holds only vertices with an edge, so its restriction
    # drops the vertices that lose theirs; other families keep them
    w3 = make_window(WindowKind.INTEGER_PREFIX, 3)
    edges = {(0, 1), (2, 3)}  # 3 only touches 4
    for family in (None, "graphon"):
        kept = restrict_table(make_graph(WIN4, (1, 2, 3, 4), edges, family=family), w3)
        assert kept.vertices == (1, 2, 3) and kept.edges == {(0, 1)}
    pruned = restrict_table(make_graph(WIN4, (1, 2, 3, 4), edges, family="graphex"), w3)
    assert pruned.vertices == (1, 2) and pruned.edges == {(0, 1)}
    isolated = make_graph(WIN4, (1, 2, 3, 4), {(1, 3)}, family="graphex")
    assert restrict_table(isolated, WIN4).vertices == (2, 4)


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
    with pytest.raises(TypeError, match=re.escape("label (0.1, 0.2, 0.3) does not match")):
        make_graph(ball, ((0.1, 0.2), (0.1, 0.2, 0.3)), set())
    with pytest.raises(ValueError, match="more than once"):
        make_graph(WIN4, (1, 2), [(0, 1), (1, 0)])
    with pytest.raises(TypeError, match="integer"):
        make_graph(WIN4, (1, 2, 3), [(0.5, 2)])  # a fractional index is no vertex
    with pytest.raises(ValueError, match="pairs"):
        make_graph(WIN4, (1, 2, 3), [(0, 1, 2)])
    assert make_graph(WIN4, (1, 2), [(1, 0)]).edges == {(0, 1)}
    assert make_graph(WIN4, (1, 2, 3), np.array([[2, 0], [1, 2]])).edges == {(0, 2), (1, 2)}


BALL2 = make_window(WindowKind.EUCLIDEAN_BALL, 10.0, dim=2)


@pytest.mark.parametrize(
    "window, labels, named",
    [
        pytest.param(WIN4, (1, 2.5), "2.5", id="float-in-integer-prefix"),
        pytest.param(WIN4, np.array([True, False]), "True", id="bool-column"),
        pytest.param(WIN4, (1, None), "None", id="none-in-list"),
        pytest.param(WIN4, np.array([1, 2], dtype=object), "dtype object", id="object-column"),
        pytest.param(WIN4, (3, 2**63), str(2**63), id="past-int64-as-uint64"),
        pytest.param(WIN4, (3, 2**70), str(2**70), id="past-int64-as-object"),
        pytest.param(WIN4, (-1, 2**63), str(2**63), id="past-int64-as-float"),
        pytest.param(WIN4, ("1", 2), "'1'", id="string"),
        pytest.param(BALL2, ((0.1, 0.2), (0.1, 0.2, 0.3)), "(0.1, 0.2, 0.3)", id="ragged-points"),
        pytest.param(BALL2, ((0.1, 0.2, 0.3), (0.3, 0.2, 0.1)), "(0.1, 0.2, 0.3)",
                     id="points-of-another-dimension"),
        pytest.param(BALL2, (0.1, 0.2), "0.1", id="numbers-for-points"),
        pytest.param(BALL2, np.zeros((0, 3)), "shape (0, 3)", id="no-points-of-another-dimension"),
        pytest.param(make_window(WindowKind.REAL_INTERVAL, 3.0), np.array([False, True]), "False",
                     id="bool-column-for-reals"),
        pytest.param(WIN4, 5, "labels must be a sequence or array, not int", id="int-for-labels"),
        pytest.param(WIN4, "12", "labels must be a sequence or array, not str",
                     id="string-for-labels"),
    ],
)
def test_make_graph_names_a_label_that_cannot_be_a_column(window, labels, named):
    # a bool, object or ragged column, an integer past int64 and a point of
    # another dimension are each an error that names the label; labels that
    # are no sequence, a string included, are an error that names them
    with pytest.raises(TypeError, match=re.escape(named)):
        make_graph(window, labels, ())


def test_make_graph_names_a_repeated_or_outside_label():
    interval = make_window(WindowKind.REAL_INTERVAL, 3.0)
    for window, labels, message in [
        (WIN4, (1, 2, 1), "vertex label 1 is given more than once"),
        (interval, (0.0, 1.5, -0.0), "vertex label 0.0 is given more than once"),
        (BALL2, ((0.1, 0.2), (0.3, 0.0), (0.1, 0.2)), "vertex label [0.1, 0.2] is given"),
        (interval, (0.5, math.nan), "vertex label nan lies outside"),
        (interval, (0.5, math.inf), "vertex label inf lies outside"),
        (BALL2, ((0.1, 0.2), (math.nan, 0.0)), "vertex label [nan, 0.0] lies outside"),
        (WIN4, np.array([2, 0]), "vertex label 0 lies outside"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            make_graph(window, labels, ())


def test_equal_graphs_hash_equal():
    flipped = make_graph(WIN4, (1, 2, 3, 4), [(1, 3), (2, 1), (1, 0), (3, 2)])
    assert flipped == FIG_GRAPH and hash(flipped) == hash(FIG_GRAPH)
    other = make_graph(WIN4, (1, 2, 3, 4), [(0, 1), (1, 2), (2, 3)])
    assert other != FIG_GRAPH
    assert {FIG_GRAPH, flipped, other} == {FIG_GRAPH, other}
    # labels and latents that differ only in the sign of zero are equal
    interval = make_window(WindowKind.REAL_INTERVAL, 2.0)
    plus = make_graph(interval, (0.0, 1.5), [(0, 1)], latents=(0.25, 0.0))
    minus = make_graph(interval, (-0.0, 1.5), [(0, 1)], latents=(0.25, -0.0))
    assert np.signbit(minus.labels[0]) and np.signbit(minus.latents[1])
    assert plus == minus and hash(plus) == hash(minus)
    # label columns of two shapes compare unequal, not with an error
    ball2, ball3 = (make_graph(make_window(WindowKind.EUCLIDEAN_BALL, 3.0, d), [(0.1,) * d], ())
                    for d in (2, 3))
    assert ball2 != ball3


def _induced_subgraph(graph, window):
    """restrict_table's result, one label and one edge at a time in Python:
    (vertices, latents, edges in increasing order)."""
    keep = [i for i, v in enumerate(graph.vertices) if inside(window, v)]
    kept = set(keep)
    edges = sorted((i, j) for i, j in graph.edges if i in kept and j in kept)
    if graph.family == "graphex":
        touched = {i for e in edges for i in e}
        keep = [i for i in keep if i in touched]
    new = {old: k for k, old in enumerate(keep)}
    latents = latent_list(graph)
    latents = None if latents is None else [latents[i] for i in keep]
    return tuple(graph.vertices[i] for i in keep), latents, [(new[i], new[j]) for i, j in edges]


def _assert_restricts_like_the_oracle(graph, window):
    got = restrict_table(graph, window)
    vertices, latents, edges = _induced_subgraph(graph, window)
    assert got.vertices == vertices and latent_list(got) == latents
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
    seeds = [spec.seed] + derive_seeds(spec.seed, np.arange(6)).tolist()
    return [sample(reseeded(spec, s), n) for s in seeds]


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
        restrict_table(g, make_window(g.window.kind, size, g.window.dim))
        for g in graphs[:3]
        for size in SAMPLED[config][1]
    ]
    graphs += [loads_graph(dumps_graph(g)) for g in graphs[:3]]
    # given shuffled and flipped, make_graph sorts
    graphs += [make_graph(g.window, g.vertices, rng.permutation(g.ends)[:, ::-1]) for g in graphs]
    graphs.append(make_graph(WIN4, (1, 2, 3, 4), [(3, 1), (0, 3), (2, 1), (1, 0)]))
    for graph in graphs:
        _assert_sorted_read_only_ends(graph)
        # the labels and latents are the graph's one copy too
        assert not graph.labels.flags.writeable
        assert graph.family is None or not graph.latents.flags.writeable


def test_iterating_edges_peaks_below_a_bound_that_does_not_grow_with_E():
    # a table's edges view makes its tuples from blocks of ends as they are
    # iterated; a frozenset of the edges takes ~210 bytes an edge, 4 MiB at
    # n = 305.
    spec = spec_from_dict(json.loads((CONFIGS / "graphon_grid.json").read_text()))
    for n in (305, 610):
        graph = sample(spec, n)
        tracemalloc.start()
        try:
            count = sum(1 for _ in graph.edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == graph.n_edges >= 20_000 * n // 305
        assert peak <= 2**19


def _edge_view_graphs():
    spec = spec_from_dict(json.loads((CONFIGS / "graphon_grid.json").read_text()))
    return [sample(spec, 60), FIG_GRAPH, make_graph(WIN4, (1, 2, 3), ())]


@pytest.mark.parametrize("graph", _edge_view_graphs(), ids=["sampled", "made", "no-edges"])
def test_edges_view_is_the_frozenset_of_the_rows_of_ends(graph):
    edges, rows = graph.edges, graph.ends.tolist()
    frozen = frozenset(map(tuple, rows))
    assert edges == frozen and frozen == edges and edges == set(frozen)
    assert not edges != frozen and not frozen != edges
    assert hash(edges) == hash(frozen)
    assert len(edges) == graph.n_edges
    assert list(edges) == list(map(tuple, rows))  # in the order of ends
    assert all(type(i) is int and type(j) is int for i, j in edges)
    assert set(edges) == frozen and sorted(edges) == sorted(frozen)
    more = frozen | {(0, graph.n_vertices)}
    assert edges != more and more != edges and hash(edges) != hash(more)
    n = graph.n_vertices
    for i in range(-1, n + 1):
        for j in range(-1, n + 1):
            assert ((i, j) in edges) == ((i, j) in frozen)
    for i, j in frozen:
        assert (i, j) in edges and (j, i) not in edges
        assert (np.int64(i), np.int32(j)) in edges
    for other in (0, (0,), (0, 1, 2), ("a", "b"), (None, 1), (0.5, 1), "01", (0, 2**70)):
        assert other not in edges and other not in frozen
    assert not hasattr(edges, "add")
