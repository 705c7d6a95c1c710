"""Graphs in windows and their restriction.

A simple undirected graph is the concrete form of a symmetric counting
measure on pairs of labels: edge {x, y} puts one atom on (x, y) and one on
(y, x).  Each atom pair is stored once, as a row (i, j) with i < j of one
int64 array of index pairs into the vertex labels, the rows strictly
increasing in (i, j).  This module holds the graph type and its
restriction to a smaller window (the projection from larger windows down
to smaller ones).

Graphs travel as one ``GraphTable``: label, latent and edge arrays for
the graphs of many trials, cut into trials by offsets.  A graph is a table
of one trial; a table of several is, as one graph, the disjoint union of
its trials.  Restriction and the comparison of two tables run once over a
whole table.  The columns are read-only, and the Python views of labels
and edges are built on each call.
"""

from __future__ import annotations

import operator
from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .windows import Window, WindowKind, contains_column


@dataclass(frozen=True, eq=False)
class GraphTable:
    """The graphs of consecutive trials in one window, as one ragged table.

    Trial t owns rows starts[t]:starts[t + 1] of ``labels`` (an int64 or
    float64 column, or one float64 row of window.dim coordinates per ball
    point) and of ``latents`` (float64, or None), which carry one auxiliary
    value per vertex (graphon latent, graphex mark, radial coordinate).
    ``ends`` is an (E, 2) int64 array of row pairs (i, j), i < j, that
    index the whole table; its rows strictly increase, so each trial's
    edges form one run.  A ``fingerprint`` ties a sampled graph back to
    the generating family and seed.

    The constructor trusts its columns and makes them read-only;
    ``make_graph`` validates outside input.
    """

    window: Window
    labels: np.ndarray
    latents: np.ndarray | None
    ends: np.ndarray
    starts: np.ndarray
    family: str | None = None
    fingerprint: str | None = None

    def __post_init__(self):
        for column in (self.labels, self.latents, self.ends):
            if column is not None:
                column.flags.writeable = False

    @property
    def n_trials(self) -> int:
        return len(self.starts) - 1

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.ends)

    @property
    def vertices(self) -> tuple:
        """The labels as a tuple of ints or floats, or of float tuples for
        ball points."""
        labels = self.labels.tolist()
        if self.window.kind is WindowKind.EUCLIDEAN_BALL:
            return tuple(map(tuple, labels))
        return tuple(labels)

    @property
    def edges(self) -> Set:
        """The index pairs (i, j) as a read-only set of Python-int tuples: a
        view of ``ends`` that equals, and hashes as, their frozenset.

        It iterates in the order of ``ends`` and holds no tuple of its own;
        ``in`` is a binary search of the sorted rows.
        """
        return _EdgeSet(self.ends)

    def edge_starts(self) -> np.ndarray:
        """Trial t's edges are ends[edge_starts[t]:edge_starts[t + 1]]."""
        return np.searchsorted(self.ends[:, 0], self.starts)

    def row_trials(self) -> np.ndarray:
        """The trial of each row."""
        return np.repeat(np.arange(self.n_trials), np.diff(self.starts))

    def edge_trials(self) -> np.ndarray:
        """The trial of each edge."""
        return np.repeat(np.arange(self.n_trials), np.diff(self.edge_starts()))

    def __eq__(self, other):
        if not isinstance(other, GraphTable):
            return NotImplemented
        return (
            self.fingerprint == other.fingerprint
            and self.n_trials == other.n_trials
            and not differing_trials(self, other).any()
        )

    def __hash__(self):
        # labels and latents are left out: equal ones may differ in bits (0.0, -0.0)
        return hash(
            (self.fingerprint, self.window, self.family, self.n_vertices, self.ends.tobytes())
        )


# Edges are iterated in blocks of this many rows, so iterating a table's
# edges holds at most about 0.3 MiB of Python ints and tuples at a time,
# whatever the edge count.
_EDGE_ROWS = 2**12


class _EdgeSet(Set):
    """Read-only set view of a graph's edges: the rows (i, j) of its sorted
    ``ends`` as Python-int tuples, made as they are iterated.

    It compares and hashes as the frozenset of those tuples does."""

    __slots__ = ("_ends",)

    def __init__(self, ends: np.ndarray):
        self._ends = ends

    def __len__(self):
        return len(self._ends)

    def __iter__(self):
        for lo in range(0, len(self._ends), _EDGE_ROWS):
            flat = iter(self._ends[lo : lo + _EDGE_ROWS].ravel().tolist())  # i0, j0, i1, ...
            yield from zip(flat, flat)

    def __contains__(self, pair):
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        try:
            i, j = map(operator.index, pair)
        except TypeError:
            return False
        if not 0 <= i < j < 2**63:
            return False
        ends = self._ends
        lo, hi = np.searchsorted(ends[:, 0], (i, i + 1)).tolist()
        k = lo + int(np.searchsorted(ends[lo:hi, 1], j))
        return k < hi and int(ends[k, 1]) == j

    __hash__ = Set._hash

    def __repr__(self):
        return f"edges({list(self)!r})"


def _label_column(window: Window, labels) -> np.ndarray:
    """The labels as a new column of the window's kind: int64, float64 (ints
    may stand for reals), or one float64 row of window.dim coordinates per
    ball point, or a TypeError naming the first label that cannot be a row,
    or naming ``labels`` when it is no sequence or array of labels."""
    integer = window.kind is WindowKind.INTEGER_PREFIX
    width = (window.dim,) if window.kind is WindowKind.EUCLIDEAN_BALL else ()
    dtype = np.int64 if integer else np.float64
    try:
        column = np.asarray(labels)
    except ValueError:  # points of several dimensions
        column = np.asarray(labels, dtype=object)
    if column.ndim == 0 or isinstance(labels, (str, bytes)):
        raise TypeError(f"labels must be a sequence or array, not {type(labels).__name__}")
    if column.shape == (0,):
        return np.zeros((0, *width), dtype)
    kinds = "iu" if integer else "iuf"
    if column.shape[1:] == width and column.dtype.kind in kinds:
        if not (integer and column.dtype.kind == "u" and column.max() > np.iinfo(np.int64).max):
            return column.astype(dtype)
    rows = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    if len(rows) != 1:
        for label in rows:
            _label_column(window, [label])  # raises for the first label that is no row
        shape = f"dtype {column.dtype} and shape {column.shape}"
        raise TypeError(f"labels of {shape} are no {window.kind.value} column")
    takes = f"points of dimension {window.dim}" if width else f"{dtype.__name__} labels"
    raise TypeError(
        f"label {rows[0]!r} does not match window kind {window.kind.value}, which takes {takes}"
    )


def make_graph(window, labels, ends, latents=None, family=None, fingerprint=None) -> GraphTable:
    """Validated constructor of a graph, a table of one trial.  ``labels``,
    the window's label column (a list goes through np.asarray), is checked
    in whole-column numpy operations: dtype and shape, distinct rows by one
    sort, and contains_column, which also refuses NaN and infinity.
    Edges, index pairs or an (E, 2) integer array, may be given in either
    orientation and in any order; they are stored as sorted rows (i, j)
    with i < j.  An edge given twice, or a latent that is NaN or infinite,
    is an error."""
    labels = _label_column(window, labels)
    n = len(labels)
    outside = ~contains_column(window, labels)
    if outside.any():
        label = labels[np.argmax(outside)].tolist()
        raise ValueError(f"vertex label {label} lies outside the declared window")
    rows = labels.reshape(n, window.dim or 1)
    order = np.lexsort(rows.T[::-1])
    repeated = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    if repeated.any():
        label = labels[order[np.argmax(repeated)]].tolist()
        raise ValueError(f"vertex label {label} is given more than once")
    ends = np.asarray(ends if isinstance(ends, np.ndarray) else list(ends))
    if ends.size == 0:
        ends = np.zeros((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex indices")
    if ends.dtype.kind not in "iu":
        raise TypeError("edge endpoints must be integer vertex indices")
    lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
    if np.any(lo == hi):
        raise ValueError("self-loops are not permitted")
    outside = (lo < 0) | (hi >= n)
    if outside.any():
        i, j = ends[np.argmax(outside)].tolist()
        raise ValueError(f"edge ({i}, {j}) references a missing vertex")
    keys = lo.astype(np.int64) * n + hi.astype(np.int64)  # (i, j) sorts as i * n + j
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("an edge is listed more than once")
    ends = np.stack(np.divmod(keys, n), axis=1)
    if latents is not None:
        latents = np.array(latents, dtype=float)
        if latents.shape != (n,):
            raise ValueError("latents must align with vertices")
        infinite = ~np.isfinite(latents)
        if infinite.any():
            i = int(np.argmax(infinite))
            raise ValueError(f"latent {latents[i].item()!r} of vertex {i} is not finite")
    return GraphTable(window, labels, latents, ends, np.array([0, n]), family, fingerprint)


def restrict_table(table: GraphTable, window: Window) -> GraphTable:
    """Each trial's induced subgraph on its rows inside the window.

    Row order is preserved, and so is the order of the kept edges: they
    are selected by a keep mask and renumbered by its running count.  A
    graphex graph holds only vertices with an edge, so for
    ``family == "graphex"`` the rows that lose all their edges are dropped
    as well; other families keep them.  The window must share the table's
    kind and dimension and may not be larger than the table's own: a
    restriction cannot grow a sample.
    """
    if (window.kind, window.dim) != (table.window.kind, table.window.dim):
        raise ValueError("restriction window must match the graph's window kind and dimension")
    if window.size > table.window.size:
        raise ValueError(
            f"restriction window size {window.size!r} exceeds the graph's "
            f"window size {table.window.size!r}"
        )
    keep = contains_column(window, table.labels)
    ends = table.ends
    ends = ends[keep[ends[:, 0]] & keep[ends[:, 1]]]
    if table.family == "graphex":
        keep = np.zeros(len(keep), dtype=bool)
        keep[ends] = True
    kept = np.cumsum(keep)
    latents = table.latents[keep] if table.latents is not None else None
    return GraphTable(
        window,
        table.labels[keep],
        latents,
        kept[ends] - 1,
        np.concatenate(([0], kept))[table.starts],
        table.family,
        table.fingerprint,
    )


def differing_trials(a: GraphTable, b: GraphTable) -> np.ndarray:
    """Whether trial t of table a differs from trial t of table b, for each
    t, as table equality judges it: in window, family, vertex labels,
    latents or edges (fingerprints are not compared)."""
    if a.n_trials != b.n_trials:
        raise ValueError("tables hold different numbers of trials")
    if a.window != b.window or a.family != b.family:
        return np.ones(a.n_trials, dtype=bool)  # label columns of two shapes may not compare
    sizes_a, sizes_b = np.diff(a.starts), np.diff(b.starts)
    edges_a, edges_b = np.diff(a.edge_starts()), np.diff(b.edge_starts())
    differ = (sizes_a != sizes_b) | (edges_a != edges_b)
    if (a.latents is None) != (b.latents is None):  # a trial with no vertex has no latent
        differ |= sizes_a > 0
    same = ~differ  # trials of one shape, compared row by row and edge by edge
    rows_a, rows_b = np.repeat(same, sizes_a), np.repeat(same, sizes_b)
    bad = a.labels[rows_a] != b.labels[rows_b]
    if bad.ndim > 1:  # ball points: any coordinate
        bad = bad.any(axis=1)
    if a.latents is not None and b.latents is not None:
        bad |= a.latents[rows_a] != b.latents[rows_b]
    differ[a.row_trials()[rows_a][bad]] = True
    edge_a, edge_b = np.repeat(same, edges_a), np.repeat(same, edges_b)
    edge_trial = a.edge_trials()[edge_a]
    local_a = a.ends[edge_a] - a.starts[edge_trial][:, None]
    local_b = b.ends[edge_b] - b.starts[edge_trial][:, None]
    differ[edge_trial[(local_a != local_b).any(axis=1)]] = True
    return differ
