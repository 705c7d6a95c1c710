"""Graphs in windows, their restriction, and box evaluation maps.

A simple undirected graph is the concrete form of a symmetric counting
measure on pairs of labels: edge {x, y} puts one atom on (x, y) and one on
(y, x).  A ``Graph`` stores each atom pair once, as an index pair i < j
into its vertex labels.  This module holds that type, its restriction to a
smaller window (the projection from larger windows down to smaller ones),
and box evaluation maps for counting atoms in measurable rectangles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .windows import Window, WindowKind, contains, contains_each, label_matches


@dataclass(frozen=True)
class Graph:
    """Vertex-labelled undirected graph inside a declared window.

    ``edges`` holds index pairs (i, j) with i < j into ``vertices``.
    ``latents`` optionally carries one auxiliary value per vertex (graphon
    latent, graphex mark, radial coordinate).  ``fingerprint`` ties a
    sampled graph back to the generating family and seed.

    Every constructor builds ``edges`` as the copy of a set, whose table is
    sized for its contents: 2 to 4 slots per edge, where a frozenset grown
    edge by edge can keep up to 6.7 (2 MiB against 1 MiB at 19,906 edges).
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
    ball = window.kind is WindowKind.EUCLIDEAN_BALL
    for v in vertices:
        if not label_matches(window.kind, v) or (ball and len(v) != window.dim):
            contains(window, v)  # raises the TypeError that names the label's fault
    for v, inside in zip(vertices, contains_each(window, vertices)):
        if not inside:
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


def restrict_graph(graph: Graph, window: Window) -> Graph:
    """Induced subgraph on the vertices inside the window.

    Vertex order is preserved.  A graphex graph holds only vertices with an
    edge, so for ``family == "graphex"`` the vertices that lose all their
    edges are dropped as well; other families keep them.  The
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
    if graph.family == "graphex":
        touched = {i for e in edges for i in e}
        keep = [i for i in keep if i in touched]
    remap = {old: new for new, old in enumerate(keep)}
    return Graph(
        window,
        tuple(graph.vertices[i] for i in keep),
        frozenset({(remap[i], remap[j]) for i, j in edges}),
        None if graph.latents is None else tuple(graph.latents[i] for i in keep),
        graph.family,
        graph.fingerprint,
    )


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
