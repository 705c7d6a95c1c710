"""Label spaces and their exhausting window sequences.

Three window families are supported: integer prefixes {1..n}, half-open
real intervals [0, n), and open Euclidean balls of volume n centered at
the origin.  Labels are plain Python values (int, float, or tuple of
floats) so inclusion of a smaller window into a larger one is the
identity; nesting is checked through ``contains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


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
    return contains_each(window, (label,))[0]


def contains_each(window: Window, labels) -> list:
    """Membership of each label, for labels already of the window's kind.

    No type checks: callers pass labels the package built itself (sampler
    points, vertices of a graph in a window of the same kind).
    """
    if window.kind is WindowKind.INTEGER_PREFIX:
        return [1 <= x <= window.size for x in labels]
    if window.kind is WindowKind.REAL_INTERVAL:
        return [0.0 <= x < window.size for x in labels]
    r = ball_radius(window.dim, window.size)
    r2 = r * r
    return [math.fsum(c * c for c in x) < r2 for x in labels]


def window_to_dict(window: Window) -> dict:
    """Serializable {kind, size, dim?} form used in configs and reports."""
    out = {"kind": window.kind.value, "size": window.size}
    if window.dim is not None:
        out["dim"] = window.dim
    return out
