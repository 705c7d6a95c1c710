"""Connection kernels for the three graph families.

Graphon kernels take latent coordinates in [0,1], graphex kernels take
latent marks in R_+ (with bounded support so the mark space can be
truncated), and geometric kernels take point positions in R^d, via their
radii and angular separation where applicable.

Two deliberately broken kernels ship as negative controls for the test
harness: one whose edge probability depends on the window size (destroys
projectivity) and one tied to a fixed external direction (destroys
rotation invariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_prob(p: float, what: str) -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1], got {p!r}")


# ---------------------------------------------------------------------------
# Graphon kernels (latents in [0, 1])


@dataclass(frozen=True)
class Constant:
    p: float

    def __post_init__(self):
        _check_prob(self.p, "constant kernel value")


@dataclass(frozen=True)
class GraphonGrid:
    """Symmetric step function on a uniform grid over [0,1]^2.

    A latent x lies in cell min(int(x * g), g - 1); no interpolation.
    """

    values: tuple

    def __post_init__(self):
        g = len(self.values)
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", vals)
        for row in vals:
            if len(row) != g:
                raise ValueError("grid must be square")
            for v in row:
                _check_prob(v, "grid entry")
        for a in range(g):
            for b in range(g):
                if vals[a][b] != vals[b][a]:
                    raise ValueError("grid must be symmetric")


@dataclass(frozen=True)
class WindowScaledConstant:
    """Broken fixture: edge probability p divided by the window size.

    Samples at different window sizes then disagree in distribution, so
    projectivity tests must reject this family.
    """

    p: float

    def __post_init__(self):
        _check_prob(self.p, "base probability")


GraphonKernel = Constant | GraphonGrid | WindowScaledConstant


def graphon_edge_prob(
    kernel: GraphonKernel, xa: np.ndarray, xb: np.ndarray, window_size: int
) -> np.ndarray:
    """Edge probabilities between latents xa and xb, broadcast against each other."""
    shape = np.broadcast_shapes(xa.shape, xb.shape)
    if isinstance(kernel, Constant):
        return np.full(shape, kernel.p)
    if isinstance(kernel, GraphonGrid):
        g = len(kernel.values)
        ca, cb = (np.minimum((x * g).astype(np.int64), g - 1) for x in (xa, xb))
        return np.asarray(kernel.values)[ca, cb]
    if isinstance(kernel, WindowScaledConstant):
        return np.full(shape, min(1.0, kernel.p / window_size))
    raise TypeError(f"not a graphon kernel: {kernel!r}")


# ---------------------------------------------------------------------------
# Graphex kernels (marks in R_+, bounded support)


@dataclass(frozen=True)
class GraphexIndicator:
    """W(y, y') = 1 when both marks are at most c."""

    c: float

    def __post_init__(self):
        if not (0 <= self.c < math.inf):
            raise ValueError("indicator cutoff must be finite and nonnegative")


@dataclass(frozen=True)
class GraphexProduct:
    """W(y, y') = (1 - y/a)_+ (1 - y'/a)_+, a product of linear ramps."""

    a: float

    def __post_init__(self):
        if not (0 < self.a < math.inf):
            raise ValueError("ramp width must be finite and positive")


GraphexKernel = GraphexIndicator | GraphexProduct


def graphex_edge_prob(kernel: GraphexKernel, ya: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """Edge probabilities between marks ya and yb, broadcast against each other."""
    if isinstance(kernel, GraphexIndicator):
        return ((ya <= kernel.c) & (yb <= kernel.c)).astype(float)
    if isinstance(kernel, GraphexProduct):
        return np.maximum(0.0, 1.0 - ya / kernel.a) * np.maximum(0.0, 1.0 - yb / kernel.a)
    raise TypeError(f"not a graphex kernel: {kernel!r}")


def graphex_support_bound(kernel: GraphexKernel) -> float:
    """Smallest b with W vanishing outside [0, b]^2."""
    if isinstance(kernel, GraphexIndicator):
        return kernel.c
    if isinstance(kernel, GraphexProduct):
        return kernel.a
    raise TypeError(f"not a graphex kernel: {kernel!r}")


# ---------------------------------------------------------------------------
# Geometric kernels (points in R^d)


@dataclass(frozen=True)
class HardDistance:
    r0: float

    def __post_init__(self):
        if not (0 <= self.r0 < math.inf):
            raise ValueError("connection radius must be finite and nonnegative")


@dataclass(frozen=True)
class SoftDistance:
    """exp(-(dist / scale)^shape)."""

    scale: float
    shape: float

    def __post_init__(self):
        if not (0 < self.scale < math.inf and 0 < self.shape < math.inf):
            raise ValueError("scale and shape must be finite and positive")


@dataclass(frozen=True)
class RadialSum:
    """1 when r_i + r_j <= threshold; an inhomogeneous model driven only by radii."""

    threshold: float

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError("radial threshold must be finite")


@dataclass(frozen=True)
class HyperbolicSoft:
    """Fermi-Dirac function of the hyperbolic distance.

    cosh d_H = cosh r_i cosh r_j - sinh r_i sinh r_j cos(angle); the edge
    probability is 1 / (1 + exp((d_H - R) / (2 T))).
    """

    R: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and 0 < self.T < math.inf):
            raise ValueError("R must be finite and the temperature finite and positive")


@dataclass(frozen=True)
class FixedDirectionIndicator:
    """Broken fixture: edges only between points with positive first coordinate.

    Ties the kernel to an external axis, so rotation-invariance tests must
    reject it.
    """


GeoKernel = (
    Constant | HardDistance | SoftDistance | RadialSum | HyperbolicSoft | FixedDirectionIndicator
)

# Every kernel form is elementwise: it broadcasts its operands (points
# carry their coordinates on a trailing axis) and reduces only over that
# coordinate axis.  The value computed for a pair of points must not depend
# on how many other points share the call, or coupled samples at different
# window sizes would disagree at the last bit.  The same condition makes a
# pair's value independent of the tile it is evaluated in, so the sampler
# can walk row blocks of one sample ([:, None] views) or the pairs of many
# samples at once and still match, bit for bit, the whole matrix evaluated
# at once.


def _pair_dist(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    diff = pa - pb
    return np.sqrt((diff * diff).sum(axis=-1))


def geo_edge_prob(
    kernel: GeoKernel, pa: np.ndarray, ra: np.ndarray, pb: np.ndarray, rb: np.ndarray
) -> np.ndarray:
    """Connection probabilities between points pa (radii ra) and pb (radii rb).

    Points have shape (..., d) and radii (...); the two sides broadcast.
    """
    if isinstance(kernel, Constant):
        return np.full(np.broadcast_shapes(ra.shape, rb.shape), kernel.p)
    if isinstance(kernel, HardDistance):
        return (_pair_dist(pa, pb) <= kernel.r0).astype(float)
    if isinstance(kernel, SoftDistance):
        d = _pair_dist(pa, pb)
        return np.exp(-((d / kernel.scale) ** kernel.shape))
    if isinstance(kernel, RadialSum):
        return (ra + rb <= kernel.threshold).astype(float)
    if isinstance(kernel, HyperbolicSoft):
        ua, ub = (p / np.where(r > 0, r, 1.0)[..., None] for p, r in ((pa, ra), (pb, rb)))
        cos = np.clip((ua * ub).sum(axis=-1), -1.0, 1.0)
        ch = np.cosh(ra) * np.cosh(rb) - np.sinh(ra) * np.sinh(rb) * cos
        dh = np.arccosh(np.maximum(ch, 1.0))
        # Far pairs at low temperature overflow exp to inf, and 1 / (1 + inf)
        # is the right value, 0.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp((dh - kernel.R) / (2.0 * kernel.T)))
    if isinstance(kernel, FixedDirectionIndicator):
        return ((pa[..., 0] > 0) & (pb[..., 0] > 0)).astype(float)
    raise TypeError(f"not a geometric kernel: {kernel!r}")


# ---------------------------------------------------------------------------
# Config (de)serialization

_KERNEL_TYPES = {
    "constant": Constant,
    "graphon_grid": GraphonGrid,
    "window_scaled_constant": WindowScaledConstant,
    "graphex_indicator": GraphexIndicator,
    "graphex_product": GraphexProduct,
    "hard_distance": HardDistance,
    "soft_distance": SoftDistance,
    "radial_sum": RadialSum,
    "hyperbolic_soft": HyperbolicSoft,
    "fixed_direction_indicator": FixedDirectionIndicator,
}
_TYPE_NAMES = {cls: name for name, cls in _KERNEL_TYPES.items()}


def kernel_to_dict(kernel) -> dict:
    name = _TYPE_NAMES.get(type(kernel))
    if name is None:
        raise TypeError(f"unknown kernel {kernel!r}")
    out = {"type": name}
    if isinstance(kernel, (Constant, WindowScaledConstant)):
        out["p"] = kernel.p
    elif isinstance(kernel, GraphonGrid):
        out["values"] = [list(row) for row in kernel.values]
    elif isinstance(kernel, GraphexIndicator):
        out["c"] = kernel.c
    elif isinstance(kernel, GraphexProduct):
        out["a"] = kernel.a
    elif isinstance(kernel, HardDistance):
        out["r0"] = kernel.r0
    elif isinstance(kernel, SoftDistance):
        out["scale"], out["shape"] = kernel.scale, kernel.shape
    elif isinstance(kernel, RadialSum):
        out["threshold"] = kernel.threshold
    elif isinstance(kernel, HyperbolicSoft):
        out["R"], out["T"] = kernel.R, kernel.T
    return out


def kernel_from_dict(data: dict):
    try:
        cls = _KERNEL_TYPES[data["type"]]
    except KeyError as exc:
        raise ValueError(f"unknown kernel type {data.get('type')!r}") from exc
    kwargs = {k: v for k, v in data.items() if k != "type"}
    if cls is GraphonGrid:
        kwargs["values"] = tuple(tuple(row) for row in kwargs["values"])
    return cls(**kwargs)
