"""Coupled projective samplers for three random-graph families.

All randomness is drawn through keyed coins (see coins module) indexed by
absolute structural coordinates:

* graphon: one latent coin per vertex id, one edge coin per id pair;
* graphex: a unit-rate Poisson process on [0, n) x [0, y_max] built from
  independent unit lattice cells, each cell's count and point positions
  keyed by the cell coordinates, with edge coins keyed by point identities
  (cell, index); zero-degree vertices are removed from the output;
* rotation-invariant: a radially stratified Poisson process in the ball,
  one unit-volume shell at a time, with shell-keyed counts, radius coins,
  and spherical directions from normalized Gaussian coordinates.

Because every key is independent of the window size, sampling at a larger
window and restricting to a smaller one reproduces the smaller sample
exactly, label for label and edge for edge.  That is the executable form
of the projective-consistency contract, and it is what extend_sample
relies on.

Samples are GraphTables: sample_table draws a trial per seed, and a
graph, such as sample(spec, n), is a table of one trial.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .coins import (
    COIN_VERSION,
    MAX_POISSON_RATE,
    CoinPRF,
    coin_batch,
    coin_position_batch,
    edge_coin_batch,
    gaussians_from_uniforms,
    key_ids,
    poisson_from_uniform,
)
from .kernels import (
    GeoKernel,
    GraphexKernel,
    GraphonKernel,
    config_array,
    config_integer,
    config_number,
    config_object,
    geo_edge_prob,
    graphex_edge_prob,
    graphex_support_bound,
    graphon_edge_prob,
    kernel_from_dict,
    kernel_to_dict,
)
from .pairs import GraphTable, restrict_table
from .windows import (
    Window,
    WindowKind,
    contains_column,
    make_window,
    unit_ball_volume,
    window_to_dict,
)

# The pair matrix of a large sample is evaluated in row blocks of about
# this many pairs, so its working memory grows with the point count, not
# with its square.  A block's kernel, index and coin temporaries set a
# dense sample's peak: graphon_grid at n=300 peaks at 1.4 MiB of traced
# allocations with blocks of 2^14 pairs, and at 4.1 MiB with blocks of 2^16.
TILE_PAIRS = 2**14

# Small trials are packed whole into tiles of at most this many pairs.  A
# packed tile holds its pairs' index, trial, seed and probability columns,
# about 100 bytes a pair at its peak, so this budget, not TILE_PAIRS, sets
# the peak of the harness, which draws thousands of small trials a chunk.
PACKED_PAIRS = 2**11


class SpecMismatchError(ValueError):
    """A graph was offered to a family spec whose sample it is not."""


class LabelCollisionError(ValueError):
    """Two points of one sample drew bit-equal labels."""

    def __init__(self, spec: "FamilySpec", window: Window):
        super().__init__(
            f"bit-equal label collision in {spec.family} sample with seed {spec.seed} "
            f"in window {window_to_dict(window)}"
        )


@dataclass(frozen=True)
class PoissonRate:
    rate: float

    def __post_init__(self):
        if not (0 < self.rate <= MAX_POISSON_RATE):
            raise ValueError(f"Poisson rate must lie in (0, {MAX_POISSON_RATE:g}]: {self.rate!r}")


@dataclass(frozen=True)
class RadialTable:
    """Expected point count per unit-volume radial shell; zero beyond the table."""

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if not rates or not all(0 <= r <= MAX_POISSON_RATE for r in rates):
            raise ValueError(f"shell rates must be nonempty and in [0, {MAX_POISSON_RATE:g}]")

    def rate(self, shell: int) -> float:
        return self.rates[shell - 1] if shell <= len(self.rates) else 0.0


@dataclass(frozen=True)
class FamilySpec:
    family: str
    kernel: object
    seed: int
    y_max: float | None = None
    dim: int | None = None
    point: object | None = None

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"a spec's seed must be an int, got {self.seed!r}")
        CoinPRF(self.seed)  # in [0, 2^64)


def graphon_spec(kernel, seed: int) -> FamilySpec:
    if not isinstance(kernel, GraphonKernel):
        raise ValueError(f"{kernel!r} is not a graphon kernel")
    return FamilySpec("graphon", kernel, seed)


def graphex_spec(kernel, y_max: float, seed: int) -> FamilySpec:
    if not isinstance(kernel, GraphexKernel):
        raise ValueError(f"{kernel!r} is not a graphex kernel")
    if not (0 < y_max < math.inf):
        raise ValueError("y_max must be finite and positive")
    if graphex_support_bound(kernel) > y_max:
        raise ValueError("kernel support exceeds the mark truncation y_max")
    return FamilySpec("graphex", kernel, seed, y_max=float(y_max))


def rotinv_spec(kernel, dim: int, point, seed: int) -> FamilySpec:
    if not isinstance(kernel, GeoKernel):
        raise ValueError(f"{kernel!r} is not a geometric kernel")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not isinstance(point, (PoissonRate, RadialTable)):
        raise ValueError("rotinv specs need a PoissonRate or RadialTable point spec")
    return FamilySpec("rotinv", kernel, seed, dim=int(dim), point=point)


def window_for(spec: FamilySpec, n: float) -> Window:
    if spec.family == "graphon":
        return make_window(WindowKind.INTEGER_PREFIX, n)
    if spec.family == "graphex":
        return make_window(WindowKind.REAL_INTERVAL, n)
    return make_window(WindowKind.EUCLIDEAN_BALL, n, spec.dim)


# ---------------------------------------------------------------------------
# Spec (de)serialization and fingerprinting


def spec_to_dict(spec: FamilySpec) -> dict:
    out = {"family": spec.family, "kernel": kernel_to_dict(spec.kernel), "seed": spec.seed}
    if spec.y_max is not None:
        out["y_max"] = spec.y_max
    if spec.dim is not None:
        out["dim"] = spec.dim
    if isinstance(spec.point, PoissonRate):
        out["point"] = {"type": "poisson", "rate": spec.point.rate}
    elif isinstance(spec.point, RadialTable):
        out["point"] = {"type": "radial_table", "rates": list(spec.point.rates)}
    return out


# The keys a config may hold beside family, kernel and seed, per family, and
# the key each point spec type holds beside its type.
_FAMILY_KEYS = {"graphon": (), "graphex": ("y_max",), "rotinv": ("dim", "point")}
_POINT_KEYS = {"poisson": "rate", "radial_table": "rates"}


def _known_keys(data: dict, keys, where: str) -> None:
    for key in data:
        if key not in keys:
            raise ValueError(f"{where} has the unknown key {key!r}")


def spec_from_dict(data: dict) -> FamilySpec:
    try:
        family = config_object(data).get("family")
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise ValueError(f"unknown family {family!r}")
        _known_keys(data, ("family", "kernel", "seed", *_FAMILY_KEYS[family]), f"{family} config")
        kernel = kernel_from_dict(data["kernel"])
        seed = config_integer(data["seed"], "seed")
        if family == "graphon":
            return graphon_spec(kernel, seed)
        if family == "graphex":
            return graphex_spec(kernel, config_number(data["y_max"], "y_max"), seed)
        pdata = config_object(data["point"], "point")
        kind = pdata["type"]
        if not isinstance(kind, str) or kind not in _POINT_KEYS:
            raise ValueError(f"unknown point spec {kind!r}")
        _known_keys(pdata, ("type", _POINT_KEYS[kind]), "point")
        if kind == "poisson":
            point = PoissonRate(float(config_number(pdata["rate"], "rate")))
        else:
            rates = config_array(pdata["rates"], "rates")
            point = RadialTable(tuple(config_number(r, "rates") for r in rates))
        return rotinv_spec(kernel, config_integer(data["dim"], "dim"), point, seed)
    except KeyError as exc:
        raise ValueError(f"config is missing the key {exc.args[0]!r}") from exc


def fingerprint(spec: FamilySpec) -> str:
    """Hash of the canonicalized spec (kernel, sizes, seed) and the coin
    version; embedded in outputs."""
    blob = json.dumps(
        dict(spec_to_dict(spec), coin_version=COIN_VERSION), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def reseeded(spec: FamilySpec, seed: int) -> FamilySpec:
    return replace(spec, seed=seed)


# ---------------------------------------------------------------------------
# Samplers
#
# Each family has one sampler over a seed column: it draws the graphs of
# many seeds (trials) in one pass, each coin call covering every trial,
# with the trials' points laid out one after another and ragged point
# counts held as segment offsets.  sample(spec, n) is the one-trial table
# of seed spec.seed, with the spec's fingerprint.


@dataclass(frozen=True)
class _TrialKeys:
    """Vertex keys of consecutive trials, as the rows of an int64 array (one
    column per key component); trial t owns rows starts[t]:starts[t + 1]."""

    rows: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def _pair_views(x: np.ndarray, rows, cols):
    """x[rows] and x[cols] shaped so that an elementwise kernel gives the
    pair matrix indexed the numpy way, P[rows, cols]: two slices give the
    block rows x cols, two index arrays the pairs (rows[p], cols[p])."""
    if isinstance(rows, slice):
        return x[rows][:, None], x[cols][None, :]
    return x[rows], x[cols]


def _triangles(starts: np.ndarray):
    """Index pairs i < j within each trial whose vertices run from starts[t]
    to starts[t + 1], row by row."""
    v = np.arange(starts[0], starts[-1])
    per_row = np.repeat(starts[1:], np.diff(starts)) - v - 1
    ii = np.repeat(v, per_row)
    jj = np.arange(len(ii)) + np.repeat(v + 1 - (np.cumsum(per_row) - per_row), per_row)
    return ii, jj


def _accepted(seed, ids, ii, jj, q):
    """The pairs (ii, jj) of probabilities q > 0 that their edge coins accept,
    in order; ``seed`` is an int or the column of each pair's trial seed.
    Certain pairs (q >= 1) draw no coin, and a batch with no unsure pair,
    an empty one included, draws none."""
    hit = q >= 1.0
    if hit.all():
        return ii, jj
    if not hit.any():
        hit = edge_coin_batch(CoinPRF(seed), ids[ii], ids[jj]) < q
    else:
        unsure = ~hit
        prf = CoinPRF(seed if isinstance(seed, int) else seed[unsure])
        hit[unsure] = edge_coin_batch(prf, ids[ii[unsure]], ids[jj[unsure]]) < q[unsure]
    return ii[hit], jj[hit]


def _draw_edges(prf: CoinPRF, keys: _TrialKeys, block):
    """Bernoulli edges over the index pairs i < j within each trial.

    Trial t owns keys[starts[t]:starts[t + 1]] and keys its edge coins with
    its own seed: prf.seed is an int for one trial, or the uint64 column
    of the trials' seeds.  ``block(rows, cols)`` gives the edge
    probabilities of P[rows, cols] (see _pair_views).  The upper triangles
    are walked in tiles: consecutive trials that fit PACKED_PAIRS pairs
    together are packed into one tile whole, and any other trial (a single
    trial, say) is cut into row blocks of about TILE_PAIRS pairs.  Each
    tile's edge coins are drawn in one batch, keyed by the ids of the
    vertex keys.  Certain edges (p >= 1) and impossible ones (p <= 0)
    consume no coin; since coins are keyed rather than sequential, skipping
    them cannot perturb any other decision.

    Returns the edges as int64 arrays (ii, jj) of indices into ``keys``,
    ii < jj.  Tiles are walked in increasing row order, each row-major, so
    the pairs strictly increase and each trial's edges form one run.
    """
    starts = keys.starts
    seeds = _seed_column(prf.seed)
    sizes = np.diff(starts)
    pairs = sizes * (sizes - 1) // 2
    before = np.concatenate(([0], np.cumsum(pairs)))  # pairs of the trials before t
    if before[-1] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    ids = key_ids(keys.rows)
    trial_of = np.repeat(np.arange(len(sizes)), sizes)
    hits = []
    t = 0
    while t < len(sizes):
        u = int(np.searchsorted(before, before[t] + PACKED_PAIRS, side="right")) - 1
        if u > t + 1:  # trials t..u-1 share one tile
            ii, jj = _triangles(starts[t : u + 1])
            p = block(ii, jj)
            possible = p > 0.0
            if not possible.all():
                keep = np.flatnonzero(possible)
                ii, jj, p = ii[keep], jj[keep], p[keep]
            hits.append(_accepted(seeds[trial_of[ii]], ids, ii, jj, p))
            t = u
            continue
        lo, hi = int(starts[t]), int(starts[t + 1])
        step = max(1, TILE_PAIRS // max(1, hi - lo))
        for r in range(lo, hi - 1, step):
            p = block(slice(r, min(r + step, hi - 1)), slice(r, hi))
            ii, jj = np.nonzero(p > 0.0)
            upper = jj > ii  # tile entry (a, b) is the pair (r + a, r + b)
            ii, jj = ii[upper], jj[upper]
            q = p[ii, jj]
            hits.append(_accepted(int(seeds[t]), ids, ii + r, jj + r, q))
        t += 1
    ii, jj = zip(*hits)
    return np.concatenate(ii), np.concatenate(jj)


def _seed_column(seeds) -> np.ndarray:
    """The uint64 column of a batch's seeds; one int seed is a column of one."""
    return np.atleast_1d(np.asarray(CoinPRF(seeds).seed, dtype=np.uint64))


def _cell_points(counts, *cells: np.ndarray):
    """Per-point cell columns and 1-based within-cell indices for ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    points = tuple(np.repeat(c, counts) for c in cells)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return points, np.arange(len(starts)) - starts + 1


def _trial_cells(n_trials: int, *cells: np.ndarray):
    """The trial index and cell columns of every (trial, cell) pair."""
    return (np.repeat(np.arange(n_trials), len(cells[0])),) + tuple(
        np.tile(c, n_trials) for c in cells
    )


def _graphon_table(spec: FamilySpec, n: int, seeds) -> GraphTable:
    """Latent-variable graphs on vertices 1..n, one per seed.

    Vertex i's latent and every pair's edge coin are keyed by the absolute
    vertex ids, so the sample at n is the induced subgraph of the sample
    at any m >= n.
    """
    window = window_for(spec, n)
    n = window.size
    col = _seed_column(seeds)
    labels = np.arange(1, n + 1)
    lat = coin_batch(CoinPRF(col[:, None]), "lat", labels[None, :]).ravel()
    keys = _TrialKeys(np.tile(labels, len(col)), np.arange(len(col) + 1) * n)
    ii, jj = _draw_edges(
        CoinPRF(seeds), keys, lambda r, c: graphon_edge_prob(spec.kernel, *_pair_views(lat, r, c), n)
    )
    ends = np.stack((ii, jj), axis=1)
    return GraphTable(window, keys.rows, lat, ends, keys.starts, spec.family)


def _graphex_table(spec: FamilySpec, n: float, seeds) -> GraphTable:
    """Graphex-style graphs on [0, n), one per seed: Poisson points with
    marks, kernel edges.

    The point process is assembled from independent unit cells of
    [0, n) x [0, y_max], each cell keyed by its absolute lattice
    coordinates.  Marks above the kernel support could never carry an
    edge, which is why truncating them at y_max leaves the pruned output
    distribution untouched.
    """
    window = window_for(spec, n)
    col = _seed_column(seeds)
    rows = math.ceil(spec.y_max)
    a, b = np.divmod(np.arange(math.ceil(window.size) * rows), rows)
    u_cnt = coin_batch(CoinPRF(col[:, None]), "cnt", a[None, :], b[None, :])
    counts = poisson_from_uniform(u_cnt.ravel(), 1.0)
    (trial, a, b), idx = _cell_points(counts, *_trial_cells(len(col), a, b))
    point_prf = CoinPRF(col[trial])
    x = a + coin_position_batch(point_prf, "posx", a, b, idx)
    y = b + coin_position_batch(point_prf, "posy", a, b, idx)
    inside = np.flatnonzero((x < window.size) & (y < spec.y_max))  # x >= 0 by construction
    order = inside[np.lexsort((x[inside], trial[inside]))]
    trial, x, y = trial[order], x[order], y[order]
    tied = np.flatnonzero((x[1:] == x[:-1]) & (trial[1:] == trial[:-1]))
    if len(tied):
        raise LabelCollisionError(reseeded(spec, int(col[trial[tied[0]]])), window)
    keys = _TrialKeys(
        np.column_stack((a[order], b[order], idx[order])),
        np.searchsorted(trial, np.arange(len(col) + 1)),
    )
    ii, jj = _draw_edges(
        CoinPRF(seeds), keys, lambda r, c: graphex_edge_prob(spec.kernel, *_pair_views(y, r, c))
    )
    # Drop the points without an edge: before[i], the count of points with
    # an edge before point i, is point i's index once they are gone.
    touched = np.bincount(np.concatenate((ii, jj)), minlength=len(keys)) > 0
    before = np.concatenate(([0], np.cumsum(touched)))
    ends = np.stack((before[ii], before[jj]), axis=1)
    return GraphTable(window, x[touched], y[touched], ends, before[keys.starts], spec.family)


def gaussian_directions(us: np.ndarray, dim: int) -> np.ndarray:
    """Unit vectors in R^dim, one per row of angle coins: the row's first
    dim Box-Muller values, each divided by the square root of the fsum of
    their squares."""
    gs = gaussians_from_uniforms(us)[:, :dim]
    norms = np.sqrt(list(map(math.fsum, (gs * gs).tolist())))
    with np.errstate(invalid="ignore"):
        out = gs / norms.reshape(-1, 1)
    out[norms == 0.0] = np.eye(dim)[0]  # probability ~0; deterministic fallback
    return out


def _rotinv_table(spec: FamilySpec, n: float, seeds) -> GraphTable:
    """Rotation-invariant geometric graphs in the ball of volume n, one per seed.

    Radial coordinates are sampled shell by shell (unit-volume annuli, so
    the volume coordinate within a shell is uniform) and directions
    uniformly on the sphere, which is exactly the factorization available
    to any rotation-invariant point process.  Coins are drawn in one batch
    per tag, and the points are built as coordinate columns; their float
    transforms (log, cos, sin, fsum and pow) stay in ``math``, value by
    value, and every other step is one correctly rounded operation.
    """
    window = window_for(spec, n)
    dim = spec.dim
    col = _seed_column(seeds)
    vd = unit_ball_volume(dim)
    # One shell past ceil(n) so boundary rounding can never differ between
    # a direct sample and a restriction from a larger window.
    shells = np.arange(1, math.ceil(window.size) + 2)
    if isinstance(spec.point, PoissonRate):
        rates = np.full(len(shells), spec.point.rate)
    else:
        rates = np.array([spec.point.rate(shell) for shell in shells.tolist()])
    u_cnt = coin_batch(CoinPRF(col[:, None]), "cnt", shells[None, :])
    counts = np.empty(u_cnt.shape, dtype=np.int64)
    for rate in set(rates.tolist()):  # one count table per distinct rate
        counts[:, rates == rate] = poisson_from_uniform(u_cnt[:, rates == rate], rate)
    (trial, sh), idx = _cell_points(counts.ravel(), *_trial_cells(len(col), shells))
    n_ang = 2 * ((dim + 1) // 2)  # Box-Muller pairs cover dim coordinates
    ang = coin_batch(
        CoinPRF(np.repeat(col[trial], n_ang)),
        "ang",
        np.repeat(sh, n_ang),
        np.repeat(idx, n_ang),
        np.tile(np.arange(n_ang), len(sh)),
    ).reshape(len(sh), n_ang)
    u_rad = coin_batch(CoinPRF(col[trial]), "rad", sh, idx)
    e = 1.0 / dim
    rad = np.array([v**e for v in (((sh - 1) + u_rad) / vd).tolist()])
    pts = rad.reshape(-1, 1) * gaussian_directions(ang, dim)
    inside = np.flatnonzero(contains_column(window, pts))
    pts, rad, trial = pts[inside], rad[inside], trial[inside]
    # sorted, bit-equal points of one trial are neighbours
    order = np.lexsort((*pts.T, trial))
    t, p = trial[order], pts[order]
    tied = (t[1:] == t[:-1]) & (p[1:] == p[:-1]).all(axis=1)
    if tied.any():
        raise LabelCollisionError(reseeded(spec, int(col[t[1:][tied].min()])), window)

    def block(r, c):
        pa, pb = _pair_views(pts, r, c)
        ra, rb = _pair_views(rad, r, c)
        return geo_edge_prob(spec.kernel, pa, ra, pb, rb)

    keys = _TrialKeys(
        np.column_stack((sh, idx))[inside], np.searchsorted(trial, np.arange(len(col) + 1))
    )
    ii, jj = _draw_edges(CoinPRF(seeds), keys, block)
    return GraphTable(window, pts, rad, np.stack((ii, jj), axis=1), keys.starts, spec.family)


_TABLE_SAMPLERS = {"graphon": _graphon_table, "graphex": _graphex_table, "rotinv": _rotinv_table}


def sample_table(spec: FamilySpec, n: float, seeds) -> GraphTable:
    """The graphs of ``spec`` at window n for each seed of a uint64 column
    (or of one int seed), as one table with a trial per seed."""
    if spec.family not in _TABLE_SAMPLERS:
        raise ValueError(f"unknown family {spec.family!r}")
    return _TABLE_SAMPLERS[spec.family](spec, n, seeds)


def _sample_one(spec: FamilySpec, n: float, family: str) -> GraphTable:
    if spec.family != family:
        raise ValueError(f"spec is not a {family} family")
    return replace(sample_table(spec, n, spec.seed), fingerprint=fingerprint(spec))


def sample_graphon(spec: FamilySpec, n: int) -> GraphTable:
    """The graphon graph of spec.seed on vertices 1..n."""
    return _sample_one(spec, n, "graphon")


def sample_graphex(spec: FamilySpec, n: float) -> GraphTable:
    """The graphex graph of spec.seed on [0, n)."""
    return _sample_one(spec, n, "graphex")


def sample_rotinv(spec: FamilySpec, n: float) -> GraphTable:
    """The rotation-invariant graph of spec.seed in the ball of volume n."""
    return _sample_one(spec, n, "rotinv")


def sample(spec: FamilySpec, n: float) -> GraphTable:
    if spec.family == "graphon":
        return sample_graphon(spec, n)
    if spec.family == "graphex":
        return sample_graphex(spec, n)
    if spec.family == "rotinv":
        return sample_rotinv(spec, n)
    raise ValueError(f"unknown family {spec.family!r}")


def mean_pairs(spec: FamilySpec, n: float) -> float:
    """Expected number of vertex pairs the edge draw of a sample at window n
    walks, counting the points drawn before any cut to the window."""
    if spec.family == "graphon":
        return n * (n - 1) / 2
    shells = range(1, math.ceil(n) + 2)
    if spec.family == "graphex":
        points = math.ceil(n) * math.ceil(spec.y_max)  # unit-rate cells
    elif isinstance(spec.point, PoissonRate):
        points = spec.point.rate * len(shells)
    else:
        points = sum(spec.point.rate(shell) for shell in shells)
    return points * points / 2  # E[K (K - 1)] / 2 for K ~ Poisson(points)


def _first_row(a: np.ndarray, b: np.ndarray) -> float:
    """The first row at which columns a and b differ, a row only one has
    included, or inf."""
    n = min(len(a), len(b))
    differ = a[:n] != b[:n]
    if differ.ndim > 1:  # ball points and edges: any coordinate
        differ = differ.any(axis=1)
    differ = np.flatnonzero(differ)
    if len(differ):
        return int(differ[0])
    return n if len(a) != len(b) else math.inf


def _vertex(table: GraphTable, i: int):
    """Vertex i's (label, latent) as Python values, or None past the last."""
    if i >= table.n_vertices:
        return None
    label = table.labels[i].tolist()
    latent = None if table.latents is None else table.latents[i].item()
    return tuple(label) if isinstance(label, list) else label, latent


def _first_difference(sampled: GraphTable, graph: GraphTable) -> str:
    """Where ``graph`` first differs from ``sampled``, in the columns that
    differing_trials compares: the first vertex whose (label, latent) row
    differs or that only one has, else the first edge that only one has
    (the smaller of the first differing pair of sorted edge rows)."""
    # a sample has latents; a graph's missing column reads as NaN, which equals none
    latents = graph.latents if graph.latents is not None else np.full(graph.n_vertices, np.nan)
    i = min(_first_row(sampled.labels, graph.labels), _first_row(sampled.latents, latents))
    if i < math.inf:
        return (f"vertex {i} (label, latent) is {_vertex(graph, i)!r} in the graph, "
                f"{_vertex(sampled, i)!r} in the sample")
    k = _first_row(sampled.ends, graph.ends)
    if k == math.inf:
        return "no vertex or edge differs"
    (i, j), where = min(
        (t.ends[k].tolist(), where)
        for t, where in ((sampled, "sample"), (graph, "graph"))
        if k < t.n_edges
    )
    return f"edge {(_vertex(sampled, i)[0], _vertex(sampled, j)[0])!r} is only in the {where}"


def extend_sample(spec: FamilySpec, graph: GraphTable, n: float, m: float) -> GraphTable:
    """Grow a sample from window n to window m without disturbing it.

    The window-n randomness is re-derived from the same keyed coins, so
    restricting the result back to window n reproduces ``graph`` exactly
    (for graphex families the restriction drops the points of window n
    that have edges only to points beyond it).  Any other graph, such as an
    edited one, is refused, naming its first differing vertex or edge.
    """
    if m < n:
        raise ValueError("target window must not shrink")
    if graph.fingerprint != fingerprint(spec):
        raise SpecMismatchError("graph was not sampled from this spec (fingerprint differs)")
    if graph.window != window_for(spec, n) or graph.family != spec.family:
        raise SpecMismatchError(f"graph window or family does not match size {n}")
    table = replace(sample_table(spec, m, spec.seed), fingerprint=graph.fingerprint)
    sampled = restrict_table(table, graph.window)
    if sampled != graph:
        raise SpecMismatchError(
            f"graph differs from this spec's sample: {_first_difference(sampled, graph)}"
        )
    return table
