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
from itertools import compress

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
    geo_prob_block,
    graphex_prob_block,
    graphex_support_bound,
    graphon_prob_block,
    kernel_from_dict,
    kernel_to_dict,
)
from .pairs import Graph, prune_isolated
from .windows import (
    Window,
    WindowKind,
    contains_each,
    make_window,
    unit_ball_volume,
    window_to_dict,
)

FAMILIES = ("graphon", "graphex", "rotinv")

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
    data = dict(spec_to_dict(spec), coin_version=COIN_VERSION)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def reseeded(spec: FamilySpec, seed: int) -> FamilySpec:
    return replace(spec, seed=seed)


# ---------------------------------------------------------------------------
# Samplers


def _draw_edges(prf: CoinPRF, keys, block) -> set:
    """Bernoulli edges over all index pairs i < j.

    ``block(rows, cols)`` gives the edge probabilities between two index
    slices; the upper triangle is walked in row tiles of about TILE_PAIRS
    pairs, and each tile's edge coins are drawn in one batch, keyed by the
    ids of the vertex keys.  Certain edges (p >= 1) and impossible ones
    (p <= 0) consume no coin; since coins are keyed rather than sequential,
    skipping them cannot perturb any other decision.
    """
    k = len(keys)
    edges = set()
    if k < 2:
        return edges
    ids = key_ids(keys)
    step = max(1, TILE_PAIRS // k)
    for lo in range(0, k - 1, step):
        p = block(slice(lo, min(lo + step, k - 1)), slice(lo, k))
        ii, jj = np.nonzero(p > 0.0)
        upper = jj > ii  # tile entry (a, b) is the pair (lo + a, lo + b)
        ii, jj = ii[upper], jj[upper]
        q = p[ii, jj]
        ii += lo
        jj += lo
        hit = q >= 1.0
        unsure = ~hit
        hit[unsure] = edge_coin_batch(prf, ids[ii[unsure]], ids[jj[unsure]]) < q[unsure]
        edges.update(zip(ii[hit].tolist(), jj[hit].tolist()))
    return edges


def _cell_points(counts, *cells: np.ndarray):
    """Per-point cell columns and 1-based within-cell indices for ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    points = tuple(np.repeat(c, counts) for c in cells)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return points, np.arange(len(starts)) - starts + 1


def sample_graphon(spec: FamilySpec, n: int) -> Graph:
    """Latent-variable graph on vertices 1..n.

    Vertex i's latent and every pair's edge coin are keyed by the absolute
    vertex ids, so the sample at n is the induced subgraph of the sample
    at any m >= n.
    """
    if spec.family != "graphon":
        raise ValueError("spec is not a graphon family")
    if n != int(n) or n < 1:
        raise ValueError("graphon windows need a positive integer size")
    n = int(n)
    prf = CoinPRF(spec.seed)
    lat = coin_batch(prf, "lat", np.arange(1, n + 1))
    edges = _draw_edges(
        prf, range(1, n + 1), lambda a, b: graphon_prob_block(spec.kernel, lat[a], lat[b], n)
    )
    return Graph(
        window_for(spec, n),
        tuple(range(1, n + 1)),
        frozenset(edges),
        tuple(lat.tolist()),
        "graphon",
        fingerprint(spec),
    )


def sample_graphex(spec: FamilySpec, n: float) -> Graph:
    """Graphex-style graph on [0, n): Poisson points with marks, kernel edges.

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
    prf = CoinPRF(spec.seed)
    window = window_for(spec, n)
    rows = math.ceil(spec.y_max)
    a, b = np.divmod(np.arange(math.ceil(n) * rows), rows)
    counts = [poisson_from_uniform(u, 1.0) for u in coin_batch(prf, "cnt", a, b).tolist()]
    (a, b), idx = _cell_points(counts, a, b)
    x = a + coin_position_batch(prf, "posx", a, b, idx)
    y = b + coin_position_batch(prf, "posy", a, b, idx)
    inside = (x < window.size) & (y < spec.y_max)  # x >= 0 by construction
    order = np.flatnonzero(inside)[np.argsort(x[inside], kind="stable")]
    x, y = x[order], y[order]
    if np.any(x[1:] == x[:-1]):
        raise LabelCollisionError(spec, window)
    keys = list(zip(a[order].tolist(), b[order].tolist(), idx[order].tolist()))
    edges = _draw_edges(prf, keys, lambda r, c: graphex_prob_block(spec.kernel, y[r], y[c]))
    graph = Graph(
        window, tuple(x.tolist()), frozenset(edges), tuple(y.tolist()), "graphex", fingerprint(spec)
    )
    return prune_isolated(graph)


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


def sample_rotinv(spec: FamilySpec, n: float) -> Graph:
    """Rotation-invariant geometric graph in the ball of volume n.

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
    prf = CoinPRF(spec.seed)
    window = window_for(spec, n)
    vd = unit_ball_volume(dim)
    # One shell past ceil(n) so boundary rounding can never differ between
    # a direct sample and a restriction from a larger window.
    shells = np.arange(1, math.ceil(n) + 2)
    if isinstance(spec.point, PoissonRate):
        rates = [spec.point.rate] * len(shells)
    else:
        rates = [spec.point.rate(shell) for shell in shells.tolist()]
    u_cnt = coin_batch(prf, "cnt", shells).tolist()
    counts = [poisson_from_uniform(u, rate) for u, rate in zip(u_cnt, rates)]
    (sh,), idx = _cell_points(counts, shells)
    n_ang = 2 * ((dim + 1) // 2)  # Box-Muller pairs cover dim coordinates
    ang = coin_batch(
        prf, "ang", np.repeat(sh, n_ang), np.repeat(idx, n_ang), np.tile(np.arange(n_ang), len(sh))
    ).reshape(len(sh), n_ang)
    points, radii, keys = [], [], []
    for shell, i, u, us in zip(
        sh.tolist(), idx.tolist(), coin_batch(prf, "rad", sh, idx).tolist(), ang.tolist()
    ):
        r = (((shell - 1) + u) / vd) ** (1.0 / dim)
        points.append(tuple(r * c for c in _gaussian_direction(us, dim)))
        radii.append(r)
        keys.append((shell, i))
    inside = contains_each(window, points)
    points, radii, keys = (list(compress(col, inside)) for col in (points, radii, keys))
    if len(set(points)) != len(points):
        raise LabelCollisionError(spec, window)
    pts = np.asarray(points, dtype=float).reshape(len(points), dim)
    rad = np.asarray(radii)
    edges = _draw_edges(
        prf, keys, lambda a, b: geo_prob_block(spec.kernel, pts[a], rad[a], pts[b], rad[b])
    )
    return Graph(window, tuple(points), frozenset(edges), tuple(radii), "rotinv", fingerprint(spec))


def sample(spec: FamilySpec, n: float) -> Graph:
    if spec.family == "graphon":
        return sample_graphon(spec, n)
    if spec.family == "graphex":
        return sample_graphex(spec, n)
    if spec.family == "rotinv":
        return sample_rotinv(spec, n)
    raise ValueError(f"unknown family {spec.family!r}")


def extend_sample(spec: FamilySpec, graph: Graph, n: float, m: float) -> Graph:
    """Grow a sample from window n to window m without disturbing it.

    The window-n randomness is re-derived from the same keyed coins, so
    restricting the result back to window n reproduces ``graph`` exactly
    (for graphex families: its edge configuration; vertices isolated at n
    may gain edges at m).
    """
    if m < n:
        raise ValueError("target window must not shrink")
    if graph.fingerprint != fingerprint(spec):
        raise SpecMismatchError("graph was not sampled from this spec (fingerprint differs)")
    if graph.window != window_for(spec, n):
        raise SpecMismatchError(f"graph window does not match size {n}")
    return sample(spec, m)
