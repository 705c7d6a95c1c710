"""Label spaces and their exhausting window sequences.

Three window families are supported: integer prefixes {1..n}, half-open
real intervals [0, n), and open Euclidean balls of volume n centered at
the origin.  A graph's labels are one column: int64 for an integer
prefix, float64 for a real interval, and one float64 row of ``dim``
coordinates per ball point.  Inclusion of a smaller window into a larger
one is the identity on labels, and ``contains_column`` tests a whole
column against a window at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class WindowKind(Enum):
    INTEGER_PREFIX = "integer_prefix"
    REAL_INTERVAL = "real_interval"
    EUCLIDEAN_BALL = "euclidean_ball"


@dataclass(frozen=True)
class Window:
    kind: WindowKind
    size: float
    dim: int | None = None


def make_window(kind: WindowKind, size: float, dim: int | None = None) -> Window:
    """Validate and build a window of the given kind and size (index/volume).

    This is the one judge of a window size: positive, finite, and integral
    for an integer prefix.  Samplers, harness and CLI pass sizes through.
    """
    if not (0 < size < math.inf):
        raise ValueError(f"window size must be positive and finite, got {size!r}")
    if kind is WindowKind.INTEGER_PREFIX:
        if dim is not None:
            raise ValueError("dim is only meaningful for Euclidean balls")
        if size != int(size):
            raise ValueError(f"integer-prefix window needs integral size, got {size!r}")
        return Window(kind, int(size))
    if kind is WindowKind.REAL_INTERVAL:
        if dim is not None:
            raise ValueError("dim is only meaningful for Euclidean balls")
        return Window(kind, float(size))
    if kind is WindowKind.EUCLIDEAN_BALL:
        if dim is None:
            raise ValueError("Euclidean-ball window needs dim")
        if dim < 2:
            raise ValueError(f"ball dimension must be >= 2, got {dim}")
        return Window(kind, float(size), int(dim))
    raise ValueError(f"unknown window kind {kind!r}")


def unit_ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def ball_radius(dim: int, volume: float) -> float:
    """Radius of the dim-ball whose Lebesgue volume equals ``volume``."""
    if dim < 2:
        raise ValueError(f"ball dimension must be >= 2, got {dim}")
    if not (volume > 0):
        raise ValueError(f"volume must be positive, got {volume!r}")
    return (volume / unit_ball_volume(dim)) ** (1.0 / dim)


def contains_column(window: Window, labels: np.ndarray) -> np.ndarray:
    """Membership of each label of a label column (see above), as a bool
    array, with no type checks.  A label that is NaN or infinite lies in
    no window.

    A ball point is inside when the ``math.fsum`` of its squared
    coordinates is below the squared radius.  numpy sums the squares, which
    may round the sum differently from ``math.fsum`` by a few ulps, so the
    points whose sum lies that close to the squared radius are decided by
    ``math.fsum`` itself.
    """
    if window.kind is WindowKind.INTEGER_PREFIX:
        return (1 <= labels) & (labels <= window.size)
    if window.kind is WindowKind.REAL_INTERVAL:
        return (0.0 <= labels) & (labels < window.size)
    r = ball_radius(window.dim, window.size)
    r2 = r * r
    with np.errstate(over="ignore"):  # a square past the float range is inf
        squares = labels * labels
    sums = np.sum(squares, axis=1)
    inside = sums < r2
    # a sum of d nonnegative terms is within d ulps of its exact value
    near = np.flatnonzero(np.abs(sums - r2) <= 4 * labels.shape[1] * 2.0**-52 * r2)
    inside[near] = [math.fsum(x) < r2 for x in squares[near].tolist()]
    return inside


def window_to_dict(window: Window) -> dict:
    """Serializable {kind, size, dim?} form used in configs and reports."""
    out = {"kind": window.kind.value, "size": window.size}
    if window.dim is not None:
        out["dim"] = window.dim
    return out
