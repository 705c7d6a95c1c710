"""Graphs in windows and their restriction.

A simple undirected graph is the concrete form of a symmetric counting
measure on pairs of labels: edge {x, y} puts one atom on (x, y) and one on
(y, x).  A ``Graph`` stores each atom pair once, as a row (i, j) with i < j
of one read-only int64 array of index pairs into its vertex labels, the
rows strictly increasing in (i, j).  This module holds that type and its
restriction to a smaller window (the projection from larger windows down
to smaller ones).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .windows import Window, WindowKind, contains, contains_each, label_matches


def _frozen(ends: np.ndarray) -> np.ndarray:
    ends.flags.writeable = False
    return ends


_NO_EDGES = _frozen(np.zeros((0, 2), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Graph:
    """Vertex-labelled undirected graph inside a declared window.

    ``ends`` is a read-only (E, 2) int64 array of index pairs (i, j),
    i < j, into ``vertices``, its rows strictly increasing in (i, j).
    ``latents`` optionally carries one auxiliary value per vertex (graphon
    latent, graphex mark, radial coordinate).  ``fingerprint`` ties a
    sampled graph back to the generating family and seed.

    The constructor trusts its arguments; ``make_graph`` validates them.
    """

    window: Window
    vertices: tuple
    ends: np.ndarray
    latents: tuple | None = None
    family: str | None = None
    fingerprint: str | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.ends)

    @property
    def edges(self) -> frozenset:
        """The index pairs (i, j) as a frozenset of Python-int tuples, built
        on each call from ``ends``.

        Each edge costs its tuple and two ints and no other Python object;
        ``ends`` is the form without any.
        """
        flat = iter(self.ends.ravel().tolist())  # i0, j0, i1, j1, ...
        return frozenset(zip(flat, flat))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.window == other.window
            and self.family == other.family
            and self.fingerprint == other.fingerprint
            and self.vertices == other.vertices
            and self.latents == other.latents
            and self.ends.shape == other.ends.shape
            and self.ends.tobytes() == other.ends.tobytes()
        )

    def __hash__(self):
        return hash((
            self.window, self.family, self.fingerprint, self.vertices, self.latents,
            self.ends.shape, self.ends.tobytes(),
        ))


def make_graph(window, vertices, edges, latents=None, family=None, fingerprint=None) -> Graph:
    """Validated Graph constructor.  Edges, index pairs or an (E, 2) integer
    array, may be given in either orientation and in any order; they are
    stored as sorted rows (i, j) with i < j.  An edge given twice is an
    error."""
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
        ends = _NO_EDGES
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex indices")
    if ends.dtype.kind not in "iu":
        raise TypeError("edge endpoints must be integer vertex indices")
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    if np.any(lo == hi):
        raise ValueError("self-loops are not permitted")
    n = len(vertices)
    outside = (lo < 0) | (hi >= n)
    if outside.any():
        i, j = ends[np.argmax(outside)].tolist()
        raise ValueError(f"edge ({i}, {j}) references a missing vertex")
    if len(ends):
        keys = lo.astype(np.int64) * n + hi.astype(np.int64)  # (i, j) sorts as i * n + j
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("an edge is listed more than once")
        ends = _frozen(np.stack(np.divmod(keys, n), axis=1))
    if latents is not None:
        latents = tuple(latents)
        if len(latents) != len(vertices):
            raise ValueError("latents must align with vertices")
    return Graph(window, vertices, ends, latents, family, fingerprint)


def restrict_graph(graph: Graph, window: Window) -> Graph:
    """Induced subgraph on the vertices inside the window.

    Vertex order is preserved, and so is the order of the kept edges: they
    are selected by a keep mask and renumbered by its running count.  A
    graphex graph holds only vertices with an edge, so for
    ``family == "graphex"`` the vertices that lose all their edges are
    dropped as well; other families keep them.  The graph's labels are
    valid for its own window, so a window of the same kind and dimension
    needs no per-label checks.  The window may not be larger than the
    graph's own: a restriction cannot grow a sample.
    """
    if (window.kind, window.dim) != (graph.window.kind, graph.window.dim):
        raise ValueError("restriction window must match the graph's window kind and dimension")
    if window.size > graph.window.size:
        raise ValueError(
            f"restriction window size {window.size!r} exceeds the graph's "
            f"window size {graph.window.size!r}"
        )
    keep = contains_each(window, graph.vertices)
    ends = graph.ends
    if not any(keep):
        ends = _NO_EDGES
    elif len(ends) and not all(keep):
        hit = np.array(keep)[ends]
        ends = ends.take((hit[:, 0] & hit[:, 1]).nonzero()[0], axis=0)
    if graph.family == "graphex":
        touched = np.zeros(len(keep), dtype=bool)
        touched[ends] = True
        keep = touched.tolist()
    if all(keep):  # no vertex dropped, so no edge either
        return Graph(window, graph.vertices, ends, graph.latents, graph.family, graph.fingerprint)
    vertices = tuple(v for v, k in zip(graph.vertices, keep) if k)
    latents = graph.latents
    if latents is not None:
        latents = tuple(x for x, k in zip(latents, keep) if k)
    ends = _frozen(np.cumsum(keep)[ends] - 1) if len(ends) else _NO_EDGES
    return Graph(window, vertices, ends, latents, graph.family, graph.fingerprint)
