"""Label spaces and their exhausting window sequences.

Three window families are supported: integer prefixes {1..n}, half-open
real intervals [0, n), and open Euclidean balls of volume n centered at
the origin.  Labels are plain Python values (int, float, or tuple of
floats) so inclusion of a smaller window into a larger one is the
identity; nesting is checked through ``contains``.  A column of labels
(int64, float64, or one float64 row per point) is tested at once by
``contains_column``; ``contains`` is that test on a column of one.
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


def _is_int_label(label) -> bool:
    return isinstance(label, int) and not isinstance(label, bool)


def _is_real_label(label) -> bool:
    return isinstance(label, float) or _is_int_label(label)


def label_matches(kind: WindowKind, label) -> bool:
    """Whether a label value belongs to the variant a window kind expects."""
    if kind is WindowKind.INTEGER_PREFIX:
        return _is_int_label(label)
    if kind is WindowKind.REAL_INTERVAL:
        return _is_real_label(label) and label >= 0
    return (
        isinstance(label, tuple)
        and len(label) >= 2
        and all(_is_real_label(c) for c in label)
    )


def contains(window: Window, label) -> bool:
    """Membership of a label in a window.

    Real intervals are half-open [0, n); balls are open, so boundary points
    are excluded.
    """
    if not label_matches(window.kind, label):
        raise TypeError(
            f"label {label!r} does not match window kind {window.kind.value}"
        )
    if window.kind is WindowKind.EUCLIDEAN_BALL and len(label) != window.dim:
        raise TypeError(
            f"point of dimension {len(label)} tested against {window.dim}-ball"
        )
    return bool(contains_column(window, label_column(window, [label]))[0])


def label_column(window: Window, labels) -> np.ndarray:
    """Labels of the window's kind as one column: int64 for an integer
    prefix (Python ints in an object column past its range), float64 for a
    real interval, and one float64 row of window.dim coordinates per ball
    point."""
    labels = list(labels)
    if window.kind is WindowKind.EUCLIDEAN_BALL:
        return np.array(labels, dtype=float).reshape(len(labels), window.dim)
    if window.kind is WindowKind.REAL_INTERVAL:
        return np.array(labels, dtype=float)
    return np.array(labels) if labels else np.zeros(0, dtype=np.int64)


def contains_column(window: Window, labels: np.ndarray) -> np.ndarray:
    """Membership of each label of a label column (see label_column), as a
    bool array, with no type checks.

    A ball point is inside when the ``math.fsum`` of its squared
    coordinates is below the squared radius.  numpy sums the squares, which
    may round the sum differently from ``math.fsum`` by a few ulps, so the
    points whose sum lies that close to the squared radius are decided by
    ``math.fsum`` itself.
    """
    if window.kind is WindowKind.INTEGER_PREFIX:
        return np.asarray((1 <= labels) & (labels <= window.size), dtype=bool)
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
