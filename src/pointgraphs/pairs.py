"""Finite symmetric pair configurations and their graph duals.

A simple undirected graph corresponds to the counting measure that puts
one atom on (x, y) and one on (y, x) for every edge {x, y}.  This module
holds that correspondence, the restriction of a configuration to a window
(the projection from larger windows down to smaller ones), and box
evaluation maps for counting atoms in measurable rectangles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .windows import Window, contains, contains_each


@dataclass(frozen=True)
class PairConfiguration:
    """Finite set of ordered label pairs, closed under coordinate swap."""

    pairs: frozenset

    def __len__(self) -> int:
        return len(self.pairs)


def pair_config(pairs: Iterable, allow_loops: bool = False) -> PairConfiguration:
    """Build a configuration, enforcing symmetry and (by default) no loops."""
    pset = frozenset(tuple(p) for p in pairs)
    for x, y in pset:
        if (y, x) not in pset:
            raise ValueError(f"asymmetric configuration: ({x!r}, {y!r}) lacks its mirror")
        if x == y and not allow_loops:
            raise ValueError(f"loop at {x!r} is not permitted")
    return PairConfiguration(pset)


@dataclass(frozen=True)
class Graph:
    """Vertex-labelled undirected graph inside a declared window.

    ``edges`` holds index pairs (i, j) with i < j into ``vertices``.
    ``latents`` optionally carries one auxiliary value per vertex (graphon
    latent, graphex mark, radial coordinate).  ``fingerprint`` ties a
    sampled graph back to the generating family and seed.
    """

    window: Window
    vertices: tuple
    edges: frozenset
    latents: tuple | None = None
    family: str | None = None
    fingerprint: str | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def make_graph(window, vertices, edges, latents=None, family=None, fingerprint=None) -> Graph:
    """Validated Graph constructor.  Edges, index pairs or an (E, 2) integer
    array, may be given in either orientation and are stored as (i, j) with
    i < j; an edge given twice is an error."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertex labels must be distinct")
    for v in vertices:
        if not contains(window, v):
            raise ValueError(f"vertex label {v!r} lies outside the declared window")
    ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if ends.size == 0:
        ends = np.zeros((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex indices")
    if ends.dtype.kind not in "iu":
        raise TypeError("edge endpoints must be integer vertex indices")
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    if np.any(lo == hi):
        raise ValueError("self-loops are not permitted")
    outside = (lo < 0) | (hi >= len(vertices))
    if outside.any():
        i, j = ends[np.argmax(outside)].tolist()
        raise ValueError(f"edge ({i}, {j}) references a missing vertex")
    # through a set, whose copy is sized for its contents: a frozenset grown
    # edge by edge keeps a table twice as large (2 MiB at 20,000 edges)
    norm = frozenset(set(zip(lo.tolist(), hi.tolist())))
    if len(norm) != len(ends):
        raise ValueError("an edge is listed more than once")
    if latents is not None:
        latents = tuple(latents)
        if len(latents) != len(vertices):
            raise ValueError("latents must align with vertices")
    return Graph(window, vertices, norm, latents, family, fingerprint)


def edge_array(graphs) -> np.ndarray:
    """The edges of a list of graphs, graph after graph and each in its
    frozenset's iteration order, as one (E, 2) int64 array."""
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs))
    total = sum(g.n_edges for g in graphs)
    return np.fromiter(flat, dtype=np.int64, count=2 * total).reshape(total, 2)


def graph_to_pairs(graph: Graph) -> PairConfiguration:
    """Counting-measure view: each edge contributes both ordered pairs."""
    pset = set()
    for i, j in graph.edges:
        x, y = graph.vertices[i], graph.vertices[j]
        pset.add((x, y))
        pset.add((y, x))
    return PairConfiguration(frozenset(pset))


def pairs_to_graph(config: PairConfiguration, window: Window) -> Graph:
    """Graph associated with a symmetric configuration.

    Vertices are the distinct labels occurring in pairs, in sorted order;
    isolated vertices of the original graph are not recoverable.
    """
    for x, y in config.pairs:
        if (y, x) not in config.pairs:
            raise ValueError("configuration is not symmetric")
    labels = sorted({x for x, _ in config.pairs} | {y for _, y in config.pairs})
    index = {v: i for i, v in enumerate(labels)}
    edges = set()
    for x, y in config.pairs:
        i, j = index[x], index[y]
        if i < j:
            edges.add((i, j))
    return make_graph(window, labels, edges)


def restrict(config: PairConfiguration, window: Window) -> PairConfiguration:
    """Keep exactly the pairs with both coordinates inside the window."""
    kept = frozenset(
        (x, y) for x, y in config.pairs if contains(window, x) and contains(window, y)
    )
    return PairConfiguration(kept)


def restrict_graph(graph: Graph, window: Window, prune_isolated: bool = False) -> Graph:
    """Induced subgraph on the vertices inside the window.

    Vertex order is preserved.  With ``prune_isolated`` vertices that lose
    all their edges are dropped as well (graphex output semantics).  The
    graph's labels are valid for its own window, so a window of the same
    kind and dimension needs no per-label checks.  The window may not be
    larger than the graph's own: a restriction cannot grow a sample.
    """
    if (window.kind, window.dim) != (graph.window.kind, graph.window.dim):
        raise ValueError("restriction window must match the graph's window kind and dimension")
    if window.size > graph.window.size:
        raise ValueError(
            f"restriction window size {window.size!r} exceeds the graph's "
            f"window size {graph.window.size!r}"
        )
    keep = [i for i, inside in enumerate(contains_each(window, graph.vertices)) if inside]
    keep_set = set(keep)
    edges = [(i, j) for i, j in graph.edges if i in keep_set and j in keep_set]
    if prune_isolated:
        touched = {i for e in edges for i in e}
        keep = [i for i in keep if i in touched]
    remap = {old: new for new, old in enumerate(keep)}
    return Graph(
        window,
        tuple(graph.vertices[i] for i in keep),
        frozenset((remap[i], remap[j]) for i, j in edges),
        None if graph.latents is None else tuple(graph.latents[i] for i in keep),
        graph.family,
        graph.fingerprint,
    )


def prune_isolated(graph: Graph) -> Graph:
    """Drop zero-degree vertices, reindexing edges."""
    return restrict_graph(graph, graph.window, prune_isolated=True)


# ---------------------------------------------------------------------------
# Box evaluation maps


@dataclass(frozen=True)
class IntRange:
    """Integer labels lo..hi inclusive."""

    lo: int
    hi: int


@dataclass(frozen=True)
class RealRange:
    """Real labels in the half-open interval [lo, hi)."""

    lo: float
    hi: float


@dataclass(frozen=True)
class BallSector:
    """Points with radius in [r_lo, r_hi), optionally restricted to the cone
    of directions u with <u, axis> / |u| >= min_cos.  The origin fails any
    axis constraint (its direction is undefined)."""

    r_lo: float = 0.0
    r_hi: float = math.inf
    axis: tuple | None = None
    min_cos: float | None = None


def box_contains(box, label) -> bool:
    if isinstance(box, IntRange):
        return box.lo <= label <= box.hi
    if isinstance(box, RealRange):
        return box.lo <= label < box.hi
    if isinstance(box, BallSector):
        r = math.sqrt(math.fsum(c * c for c in label))
        if not (box.r_lo <= r < box.r_hi):
            return False
        if box.axis is None:
            return True
        if r == 0.0:
            return False
        dot = math.fsum(c * a for c, a in zip(label, box.axis))
        return dot / r >= box.min_cos
    raise TypeError(f"not a box: {box!r}")


def count(config: PairConfiguration, box_a, box_b) -> int:
    """Number of ordered pairs (x, y) with x in box_a and y in box_b."""
    return sum(
        1 for x, y in config.pairs if box_contains(box_a, x) and box_contains(box_b, y)
    )


def relabel_graph(graph: Graph, mapping) -> Graph:
    """Apply a label map to every vertex, keeping edges and latents."""
    return replace(graph, vertices=tuple(mapping(v) for v in graph.vertices))
