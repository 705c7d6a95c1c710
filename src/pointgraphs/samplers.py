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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from collections import Counter

import numpy as np

from .coins import (
    COIN_VERSION,
    MAX_POISSON_RATE,
    CoinPRF,
    coin_batch,
    coin_position_batch,
    edge_coin_batch,
    key_ids,
    poisson_from_uniform,
)
from .kernels import (
    GeoKernel,
    GraphexKernel,
    GraphonKernel,
    geo_edge_prob,
    graphex_edge_prob,
    graphex_support_bound,
    graphon_edge_prob,
    kernel_from_dict,
    kernel_to_dict,
)
from .pairs import Graph
from .windows import (
    Window,
    WindowKind,
    contains_each,
    make_window,
    unit_ball_volume,
    window_to_dict,
)

# The pair matrix is evaluated in row tiles of about this many pairs, so a
# sample's working memory grows with the point count, not with its square.
TILE_PAIRS = 2**16


class SpecMismatchError(ValueError):
    """A graph was offered to a family spec it was not sampled from."""


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


def spec_from_dict(data: dict) -> FamilySpec:
    try:
        family = data.get("family")
        kernel = kernel_from_dict(data["kernel"])
        seed = int(data["seed"])
        if family == "graphon":
            return graphon_spec(kernel, seed)
        if family == "graphex":
            return graphex_spec(kernel, float(data["y_max"]), seed)
        if family == "rotinv":
            pdata = data["point"]
            if pdata["type"] == "poisson":
                point = PoissonRate(float(pdata["rate"]))
            elif pdata["type"] == "radial_table":
                point = RadialTable(tuple(pdata["rates"]))
            else:
                raise ValueError(f"unknown point spec {pdata['type']!r}")
            return rotinv_spec(kernel, int(data["dim"]), point, seed)
        raise ValueError(f"unknown family {family!r}")
    except KeyError as exc:
        raise ValueError(f"config is missing the key {exc.args[0]!r}") from exc


def fingerprint(spec: FamilySpec) -> str:
    """Hash of the canonicalized spec (kernel, sizes, seed) and the coin
    version; embedded in outputs."""
    return _fingerprints(spec, [spec.seed])[0]


def _fingerprints(spec: FamilySpec, seeds) -> list:
    """fingerprint(reseeded(spec, s)) for each int seed s.

    The hashed blob is the spec's canonical JSON (sorted keys, no spaces)
    with the coin version.  The keys sorting before and after "seed" are
    encoded once, and each seed is spliced in between.
    """
    data = dict(spec_to_dict(spec), coin_version=COIN_VERSION)
    del data["seed"]
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    head = encode({k: v for k, v in data.items() if k < "seed"})[:-1]
    tail = encode({k: v for k, v in data.items() if k > "seed"})[1:]
    tail = tail if tail == "}" else "," + tail
    return [
        hashlib.sha256(f'{head},"seed":{int(seed)}{tail}'.encode("utf-8")).hexdigest()[:16]
        for seed in seeds
    ]


def reseeded(spec: FamilySpec, seed: int) -> FamilySpec:
    return replace(spec, seed=seed)


# ---------------------------------------------------------------------------
# Samplers
#
# Each family has one sampler over a seed column: it draws the graphs of
# many seeds (trials) in one pass, each coin call covering every trial,
# with the trials' points laid out one after another and ragged point
# counts held as segment offsets.  sample(spec, n) is the batch of the one
# seed spec.seed.


@dataclass(frozen=True)
class _TrialKeys:
    """Vertex keys of consecutive trials, as the rows of an int64 array (one
    column per key component); trial t owns rows starts[t]:starts[t + 1]."""

    rows: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        """Vertex i's key as the coins take it: an int or a tuple of ints."""
        key = self.rows[i].tolist()
        return tuple(key) if isinstance(key, list) else key


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
    in order; ``seed`` is an int or the column of each pair's trial seed."""
    hit = q >= 1.0
    unsure = ~hit
    prf = CoinPRF(seed if isinstance(seed, int) else seed[unsure])
    hit[unsure] = edge_coin_batch(prf, ids[ii[unsure]], ids[jj[unsure]]) < q[unsure]
    return ii[hit], jj[hit]


def _draw_edges(prf: CoinPRF, keys: _TrialKeys, block):
    """Bernoulli edges over the index pairs i < j within each trial.

    Trial t owns keys[starts[t]:starts[t + 1]] and keys its edge coins with
    its own seed: prf.seed is an int for a batch of one, or the uint64
    column of the trials' seeds.  ``block(rows, cols)`` gives the edge
    probabilities of P[rows, cols] (see _pair_views).  The upper triangles
    are walked in tiles of about TILE_PAIRS pairs: consecutive trials that
    fit one tile together are packed into it whole, and a trial that fills
    a tile by itself (a batch of one, say) is cut into row blocks.  Each
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
        u = int(np.searchsorted(before, before[t] + TILE_PAIRS, side="right")) - 1
        if u > t + 1:  # trials t..u-1 share one tile
            ii, jj = _triangles(starts[t : u + 1])
            p = block(ii, jj)
            keep = np.flatnonzero(p > 0.0)
            ii, jj = ii[keep], jj[keep]
            hits.append(_accepted(seeds[trial_of[ii]], ids, ii, jj, p[keep]))
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


def _trial_graphs(spec, window, seeds, starts, ii, jj, labels, latents) -> list:
    """Cut a batch's edges (ii, jj), increasing pairs of indices into the
    batch's vertices, into one Graph per seed; trial t owns vertices
    starts[t]:starts[t + 1], and ``labels`` and ``latents`` list them."""
    cuts = np.searchsorted(ii, starts)  # trial t's edges are cuts[t]:cuts[t + 1]
    shift = np.repeat(starts[:-1], np.diff(cuts))
    ends = np.stack((ii - shift, jj - shift), axis=1)
    cuts = cuts.tolist()
    rows = [ends[a:b] for a, b in zip(cuts, cuts[1:])]
    if len(rows) > 1:  # a graph kept from a batch holds only its own edges
        rows = [r.copy() for r in rows]
    for r in rows:
        r.flags.writeable = False
    starts = starts.tolist()
    return [
        Graph(window, tuple(labels[lo:hi]), r, tuple(latents[lo:hi]), spec.family, fp)
        for lo, hi, r, fp in zip(
            starts, starts[1:], rows, _fingerprints(spec, _seed_column(seeds).tolist())
        )
    ]


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


def _graphon_batch(spec: FamilySpec, n: int, seeds) -> list:
    """Latent-variable graphs on vertices 1..n, one per seed.

    Vertex i's latent and every pair's edge coin are keyed by the absolute
    vertex ids, so the sample at n is the induced subgraph of the sample
    at any m >= n.
    """
    if spec.family != "graphon":
        raise ValueError("spec is not a graphon family")
    if n != int(n) or n < 1:
        raise ValueError("graphon windows need a positive integer size")
    n = int(n)
    col = _seed_column(seeds)
    labels = np.arange(1, n + 1)
    lat = coin_batch(CoinPRF(col[:, None]), "lat", labels[None, :]).ravel()
    keys = _TrialKeys(np.tile(labels, len(col)), np.arange(len(col) + 1) * n)
    ii, jj = _draw_edges(
        CoinPRF(seeds), keys, lambda r, c: graphon_edge_prob(spec.kernel, *_pair_views(lat, r, c), n)
    )
    return _trial_graphs(
        spec, window_for(spec, n), seeds, keys.starts, ii, jj,
        list(range(1, n + 1)) * len(col), lat.tolist(),
    )


def _graphex_batch(spec: FamilySpec, n: float, seeds) -> list:
    """Graphex-style graphs on [0, n), one per seed: Poisson points with
    marks, kernel edges.

    The point process is assembled from independent unit cells of
    [0, n) x [0, y_max], each cell keyed by its absolute lattice
    coordinates.  Marks above the kernel support could never carry an
    edge, which is why truncating them at y_max leaves the pruned output
    distribution untouched.
    """
    if spec.family != "graphex":
        raise ValueError("spec is not a graphex family")
    if n <= 0:
        raise ValueError("window size must be positive")
    col = _seed_column(seeds)
    window = window_for(spec, n)
    rows = math.ceil(spec.y_max)
    a, b = np.divmod(np.arange(math.ceil(n) * rows), rows)
    u_cnt = coin_batch(CoinPRF(col[:, None]), "cnt", a[None, :], b[None, :])
    counts = [poisson_from_uniform(u, 1.0) for u in u_cnt.ravel().tolist()]
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
    return _trial_graphs(
        spec, window, seeds, before[keys.starts], before[ii], before[jj],
        x[touched].tolist(), y[touched].tolist(),
    )


def _gaussian_direction(us, dim: int):
    """Unit vector from Box-Muller pairs over the point's angle coins."""
    gs = []
    for u1, u2 in zip(us[0::2], us[1::2]):
        mag = math.sqrt(-2.0 * math.log(1.0 - u1))
        gs.append(mag * math.cos(2.0 * math.pi * u2))
        gs.append(mag * math.sin(2.0 * math.pi * u2))
    gs = gs[:dim]
    norm = math.sqrt(math.fsum(g * g for g in gs))
    if norm == 0.0:  # probability ~0; deterministic fallback
        return tuple([1.0] + [0.0] * (dim - 1))
    return tuple(g / norm for g in gs)


def _rotinv_batch(spec: FamilySpec, n: float, seeds) -> list:
    """Rotation-invariant geometric graphs in the ball of volume n, one per seed.

    Radial coordinates are sampled shell by shell (unit-volume annuli, so
    the volume coordinate within a shell is uniform) and directions
    uniformly on the sphere, which is exactly the factorization available
    to any rotation-invariant point process.  Coins are drawn in one batch
    per tag; the float transforms stay in ``math``, value by value.
    """
    if spec.family != "rotinv":
        raise ValueError("spec is not a rotinv family")
    if n <= 0:
        raise ValueError("window volume must be positive")
    dim = spec.dim
    col = _seed_column(seeds)
    window = window_for(spec, n)
    vd = unit_ball_volume(dim)
    # One shell past ceil(n) so boundary rounding can never differ between
    # a direct sample and a restriction from a larger window.
    shells = np.arange(1, math.ceil(n) + 2)
    if isinstance(spec.point, PoissonRate):
        rates = [spec.point.rate] * len(shells)
    else:
        rates = [spec.point.rate(shell) for shell in shells.tolist()]
    u_cnt = coin_batch(CoinPRF(col[:, None]), "cnt", shells[None, :]).ravel().tolist()
    counts = [poisson_from_uniform(u, rate) for u, rate in zip(u_cnt, rates * len(col))]
    (trial, sh), idx = _cell_points(counts, *_trial_cells(len(col), shells))
    n_ang = 2 * ((dim + 1) // 2)  # Box-Muller pairs cover dim coordinates
    ang = coin_batch(
        CoinPRF(np.repeat(col[trial], n_ang)),
        "ang",
        np.repeat(sh, n_ang),
        np.repeat(idx, n_ang),
        np.tile(np.arange(n_ang), len(sh)),
    ).reshape(len(sh), n_ang)
    u_rad = coin_batch(CoinPRF(col[trial]), "rad", sh, idx)
    points, radii = [], []
    for shell, u, us in zip(sh.tolist(), u_rad.tolist(), ang.tolist()):
        r = (((shell - 1) + u) / vd) ** (1.0 / dim)
        points.append(tuple(r * c for c in _gaussian_direction(us, dim)))
        radii.append(r)
    inside = np.flatnonzero(contains_each(window, points))
    points, radii = [points[i] for i in inside], [radii[i] for i in inside]
    trial = trial[inside]
    labels = Counter(zip(trial.tolist(), points))
    if len(labels) != len(points):
        t = next(label for label, k in labels.items() if k > 1)[0]
        raise LabelCollisionError(reseeded(spec, int(col[t])), window)
    pts = np.asarray(points, dtype=float).reshape(len(points), dim)
    rad = np.asarray(radii)

    def block(r, c):
        pa, pb = _pair_views(pts, r, c)
        ra, rb = _pair_views(rad, r, c)
        return geo_edge_prob(spec.kernel, pa, ra, pb, rb)

    keys = _TrialKeys(
        np.column_stack((sh, idx))[inside], np.searchsorted(trial, np.arange(len(col) + 1))
    )
    ii, jj = _draw_edges(CoinPRF(seeds), keys, block)
    return _trial_graphs(spec, window, seeds, keys.starts, ii, jj, points, radii)


_BATCH_SAMPLERS = {"graphon": _graphon_batch, "graphex": _graphex_batch, "rotinv": _rotinv_batch}


def sample_batch(spec: FamilySpec, n: float, seeds) -> list:
    """The graphs of ``spec`` at window n for each seed of a uint64 column
    (or of one int seed), each equal to sample(reseeded(spec, seed), n)."""
    if spec.family not in _BATCH_SAMPLERS:
        raise ValueError(f"unknown family {spec.family!r}")
    return _BATCH_SAMPLERS[spec.family](spec, n, seeds)


def sample_graphon(spec: FamilySpec, n: int) -> Graph:
    """The graphon graph of spec.seed on vertices 1..n: the batch of one."""
    return _graphon_batch(spec, n, spec.seed)[0]


def sample_graphex(spec: FamilySpec, n: float) -> Graph:
    """The graphex graph of spec.seed on [0, n): the batch of one."""
    return _graphex_batch(spec, n, spec.seed)[0]


def sample_rotinv(spec: FamilySpec, n: float) -> Graph:
    """The rotation-invariant graph of spec.seed in the ball of volume n:
    the batch of one."""
    return _rotinv_batch(spec, n, spec.seed)[0]


def sample(spec: FamilySpec, n: float) -> Graph:
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


def extend_sample(spec: FamilySpec, graph: Graph, n: float, m: float) -> Graph:
    """Grow a sample from window n to window m without disturbing it.

    The window-n randomness is re-derived from the same keyed coins, so
    restricting the result back to window n reproduces ``graph`` exactly
    (for graphex families the restriction drops the points of window n
    that have edges only to points beyond it).
    """
    if m < n:
        raise ValueError("target window must not shrink")
    if graph.fingerprint != fingerprint(spec):
        raise SpecMismatchError("graph was not sampled from this spec (fingerprint differs)")
    if graph.window != window_for(spec, n):
        raise SpecMismatchError(f"graph window does not match size {n}")
    return sample(spec, m)
