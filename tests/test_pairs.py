import math

import pytest
from hypothesis import given, strategies as st

from pointgraphs import (
    BallSector,
    IntRange,
    RealRange,
    WindowKind,
    count,
    graph_to_pairs,
    make_graph,
    make_window,
    pair_config,
    pairs_to_graph,
    restrict,
    restrict_graph,
)
from pointgraphs.pairs import box_contains, prune_isolated

WIN4 = make_window(WindowKind.INTEGER_PREFIX, 4)
WIN5 = make_window(WindowKind.INTEGER_PREFIX, 5)

# the running example: vertices 1..4, edges {1,2}, {2,3}, {3,4}, {4,2}
FIG_GRAPH = make_graph(WIN4, (1, 2, 3, 4), {(0, 1), (1, 2), (2, 3), (3, 1)})
FIG_PAIRS = frozenset(
    [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 2), (2, 4)]
)


def test_graph_to_pairs_four_edges():
    config = graph_to_pairs(FIG_GRAPH)
    assert config.pairs == FIG_PAIRS
    assert len(config) == 2 * FIG_GRAPH.n_edges


def test_graph_to_pairs_empty():
    empty = make_graph(WIN4, (), set())
    assert graph_to_pairs(empty).pairs == frozenset()


def test_graph_to_pairs_real_labels():
    w = make_window(WindowKind.REAL_INTERVAL, 2.0)
    g = make_graph(w, (0.3, 1.7), {(0, 1)})
    assert graph_to_pairs(g).pairs == frozenset([(0.3, 1.7), (1.7, 0.3)])


def test_pairs_to_graph_recovers_fig_graph():
    g = pairs_to_graph(pair_config(FIG_PAIRS), WIN4)
    assert g.vertices == (1, 2, 3, 4)
    assert g.edges == FIG_GRAPH.edges


def test_pairs_to_graph_empty():
    g = pairs_to_graph(pair_config([]), WIN4)
    assert g.vertices == () and g.edges == frozenset()


def test_pairs_to_graph_single_edge():
    g = pairs_to_graph(pair_config([(1, 2), (2, 1)]), WIN5)
    assert g.vertices == (1, 2)
    assert g.edges == {(0, 1)}


def test_pair_config_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        pair_config([(1, 2)])
    with pytest.raises(ValueError):
        pair_config([(3, 3)])
    assert (3, 3) in pair_config([(3, 3)], allow_loops=True).pairs


def test_pairs_to_graph_rejects_out_of_window():
    with pytest.raises(ValueError):
        pairs_to_graph(pair_config([(1, 9), (9, 1)]), WIN4)


def test_restrict_fig_pairs_to_3():
    got = restrict(pair_config(FIG_PAIRS), make_window(WindowKind.INTEGER_PREFIX, 3))
    assert got.pairs == frozenset([(1, 2), (2, 1), (2, 3), (3, 2)])


def test_restrict_to_own_window_is_identity():
    config = pair_config(FIG_PAIRS)
    assert restrict(config, WIN4).pairs == config.pairs


def test_restrict_drops_pairs_with_one_endpoint_outside():
    w = make_window(WindowKind.REAL_INTERVAL, 2.0)
    config = pair_config([(0.5, 2.5), (2.5, 0.5)])
    assert restrict(config, w).pairs == frozenset()


def test_count_fig_examples():
    config = pair_config(FIG_PAIRS)
    assert count(config, IntRange(2, 2), IntRange(1, 4)) == 3
    assert count(pair_config([]), IntRange(1, 4), IntRange(1, 4)) == 0
    full = IntRange(1, 4)
    assert count(config, full, full) == 2 * FIG_GRAPH.n_edges


def test_count_additive_over_disjoint_boxes():
    config = pair_config(FIG_PAIRS)
    low, high = IntRange(1, 2), IntRange(3, 4)
    full = IntRange(1, 4)
    assert count(config, low, full) + count(config, high, full) == count(config, full, full)


def test_ball_sector_membership():
    sector = BallSector(0.0, 2.0, axis=(1.0, 0.0), min_cos=0.0)
    assert box_contains(sector, (0.5, 0.3))
    assert not box_contains(sector, (-0.5, 0.3))
    assert not box_contains(sector, (3.0, 0.0))  # radius out of range
    assert not box_contains(sector, (0.0, 0.0))  # origin has no direction
    assert box_contains(BallSector(0.0, math.inf), (0.0, 0.0))


@st.composite
def integer_configs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
            ).filter(lambda p: p[0] != p[1]),
            max_size=20,
        )
    )
    sym = set()
    for x, y in pairs:
        sym.add((x, y))
        sym.add((y, x))
    return n, pair_config(sym)


@given(integer_configs(), st.data())
def test_restriction_composes(config_data, data):
    n, config = config_data
    k = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=1, max_value=k))
    w_mid = make_window(WindowKind.INTEGER_PREFIX, k)
    w_small = make_window(WindowKind.INTEGER_PREFIX, j)
    two_step = restrict(restrict(config, w_mid), w_small)
    one_step = restrict(config, w_small)
    assert two_step.pairs == one_step.pairs


@given(integer_configs(), st.integers(min_value=1, max_value=12))
def test_restriction_preserves_symmetry(config_data, k):
    _, config = config_data
    got = restrict(config, make_window(WindowKind.INTEGER_PREFIX, k))
    for x, y in got.pairs:
        assert (y, x) in got.pairs


@given(integer_configs())
def test_pairs_graph_roundtrip_on_support(config_data):
    n, config = config_data
    w = make_window(WindowKind.INTEGER_PREFIX, n)
    assert graph_to_pairs(pairs_to_graph(config, w)).pairs == config.pairs


def test_restrict_graph_induced_subgraph():
    got = restrict_graph(FIG_GRAPH, make_window(WindowKind.INTEGER_PREFIX, 3))
    assert got.vertices == (1, 2, 3)
    assert got.edges == {(0, 1), (1, 2)}


def test_restrict_graph_prunes_isolated_when_asked():
    w3 = make_window(WindowKind.INTEGER_PREFIX, 3)
    g = make_graph(WIN4, (1, 2, 3, 4), {(0, 1), (2, 3)})  # 3 only touches 4
    kept = restrict_graph(g, w3)
    assert kept.vertices == (1, 2, 3) and kept.edges == {(0, 1)}
    pruned = restrict_graph(g, w3, prune_isolated=True)
    assert pruned.vertices == (1, 2) and pruned.edges == {(0, 1)}
    assert prune_isolated(g).vertices == (1, 2, 3, 4)


def test_roundtrip_loses_only_isolated_vertices():
    g = make_graph(WIN5, (1, 2, 3, 5), {(0, 1)})  # 3 and 5 are isolated
    back = pairs_to_graph(graph_to_pairs(g), WIN5)
    assert back.vertices == (1, 2)
    assert back.edges == {(0, 1)}


def test_make_graph_validations():
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 1), set())
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 2), {(0, 0)})
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 2), {(0, 5)})
    with pytest.raises(ValueError):
        make_graph(WIN4, (1, 9), set())
