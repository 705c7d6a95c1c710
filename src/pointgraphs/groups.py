"""Symmetry-group generators acting on labels and graphs.

A batch of generators is one numpy array, one row per trial, read by its
generator set: a transposition (a, b) of {1..n}, a swap (i, j, k) of two
dyadic intervals of the half line, or a d x d rotation of R^d about the
origin.  A generator of a smaller window's group extends canonically to
larger windows by fixing the new points, with its row unchanged, which is
what makes group actions commute with window restriction.

A dyadic swap exchanges the half-open intervals ((i-1)/2^k, i/2^k] and
((j-1)/2^k, j/2^k] by translation and fixes everything else; boundary
points belong to the upper interval.  On position-quantized labels (see
coins) the swap is exactly an involution in double precision while its
support stays within 2^(53 - POSITION_BITS) = 1024; generator sets
reaching past that limit are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coins import POSITION_BITS, gaussians_from_uniforms, index_from_uniform
from .edgelist import fmt_real
from .pairs import GraphTable
from .windows import Window, WindowKind

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Transpositions:
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("transpositions need n >= 2")


@dataclass(frozen=True)
class DyadicSwaps:
    n: float
    k_max: int

    def __post_init__(self):
        if not (0 < self.n <= 2 ** (53 - POSITION_BITS)):
            raise ValueError(
                f"dyadic swaps need a window size in (0, {2 ** (53 - POSITION_BITS)}], "
                f"their exactness limit; got {self.n!r}"
            )
        if not (0 <= self.k_max <= 40):
            raise ValueError("k_max must lie in 0..40")
        if math.floor(self.n * 2**self.k_max) < 2:
            raise ValueError("no pair of dyadic intervals fits inside the window")


@dataclass(frozen=True)
class RandomRotations:
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("rotations need dim >= 2")


GeneratorSet = Transpositions | DyadicSwaps | RandomRotations


def _check_rotations(qs: np.ndarray, dets: np.ndarray) -> None:
    """Reject a stack of square matrices unless each is orthogonal and its
    determinant, given in ``dets``, is +1, within ORTHO_TOL."""
    gram = np.swapaxes(qs, 1, 2) @ qs - np.eye(qs.shape[1])
    if np.max(np.abs(gram), initial=0.0) > ORTHO_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if np.max(np.abs(dets - 1.0), initial=0.0) > ORTHO_TOL:
        raise ValueError("rotation must have determinant +1")


def generator_coins(gen_set: GeneratorSet) -> int:
    """How many uniforms sample_generators reads per generator of the set."""
    if isinstance(gen_set, Transpositions):
        return 2
    if isinstance(gen_set, DyadicSwaps):
        return 3
    if isinstance(gen_set, RandomRotations):
        return 2 * math.ceil(gen_set.dim**2 / 2)  # Box-Muller takes pairs
    raise TypeError(f"not a generator set: {gen_set!r}")


def sample_generators(gen_set: GeneratorSet, us) -> np.ndarray:
    """One generator of the set per row of a (rows, generator_coins) array
    of uniforms, uniform over the set: int64 rows (a, b) or (i, j, k), or a
    (rows, d, d) stack of Haar rotations, each a pure function of its row.
    A rotation is the QR of a Gaussian matrix, its row's Box-Muller values
    in row-major order, with sign corrections (Mezzadri, Notices AMS 2007);
    the batch takes one stacked QR, one determinant and one check."""
    us = np.asarray(us, dtype=float)
    if isinstance(gen_set, Transpositions):
        a = index_from_uniform(us[:, 0], gen_set.n) + 1
        b = index_from_uniform(us[:, 1], gen_set.n - 1) + 1
        b += b >= a
        return np.column_stack((a, b))
    if isinstance(gen_set, DyadicSwaps):
        valid = np.array(
            [k for k in range(gen_set.k_max + 1) if math.floor(gen_set.n * 2**k) >= 2]
        )
        k = valid[index_from_uniform(us[:, 0], len(valid))]
        m = np.floor(gen_set.n * 2.0**k).astype(np.int64)
        i = index_from_uniform(us[:, 1], m) + 1
        j = index_from_uniform(us[:, 2], m - 1) + 1
        j += j >= i
        return np.column_stack((i, j, k))
    if isinstance(gen_set, RandomRotations):
        dim = gen_set.dim
        z = gaussians_from_uniforms(us.reshape(len(us), -1))[:, : dim * dim]
        q, r = np.linalg.qr(z.reshape(len(us), dim, dim))
        q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
        dets = np.linalg.det(q)
        q[dets < 0, :, 0] *= -1.0  # negates those determinants
        _check_rotations(q, np.abs(dets))
        return q
    raise TypeError(f"not a generator set: {gen_set!r}")


def apply_table(gen_set: GeneratorSet, gens: np.ndarray, table: GraphTable) -> GraphTable:
    """Relabel trial t of the table by generator row gens[t]; edges and
    latents ride along.  A graph's table is a table of one trial, and a
    label a table of one vertex.  Transpositions and dyadic swaps move
    labels exactly; a rotated row is the sum over c of column c of the
    matrix times coordinate c, added in the order of c."""
    x, g = table.labels, gens[table.row_trials()]
    if isinstance(gen_set, Transpositions):
        if x.ndim != 1 or x.dtype.kind not in "iuO":
            raise TypeError(f"transposition cannot act on {x.dtype} labels")
        at_a, at_b = x == g[:, 0], x == g[:, 1]
        moved = x.copy()
        moved[at_a], moved[at_b] = g[at_a, 1], g[at_b, 0]
    elif isinstance(gen_set, DyadicSwaps):
        if x.ndim != 1 or x.dtype.kind not in "iuf":
            raise TypeError(f"dyadic swap cannot act on {x.dtype} labels")
        i, j, k = g.T
        x = x.astype(float)
        width = np.ldexp(1.0, -k)
        in_i = ((i - 1) * width < x) & (x <= i * width)
        in_j = ((j - 1) * width < x) & (x <= j * width)
        shift = (j - i) * width
        moved = np.where(in_i, x + shift, np.where(in_j, x - shift, x))
    elif isinstance(gen_set, RandomRotations):
        d = gen_set.dim
        if x.ndim != 2 or x.shape[1] != d or g.shape[1:] != (d, d):
            raise TypeError(f"{d}-d rotation cannot act on labels of shape {x.shape}")
        moved = g[:, :, 0] * x[:, :1]
        for c in range(1, d):
            moved = moved + g[:, :, c] * x[:, c : c + 1]
    else:
        raise TypeError(f"not a generator set: {gen_set!r}")
    return replace(table, labels=moved)


def extend_element(
    gen_set: GeneratorSet, gens: np.ndarray, window_n: Window, window_m: Window
) -> np.ndarray:
    """Canonical embedding of generator rows from window_n's group into
    window_m's: the rows unchanged, after checking that the set acts on
    window_n and the windows nest."""
    if window_n.kind is not window_m.kind:
        raise ValueError("windows must share a kind")
    if window_n.size > window_m.size:
        raise ValueError("window_n must be nested in window_m")
    if isinstance(gen_set, Transpositions):
        if window_n.kind is not WindowKind.INTEGER_PREFIX:
            raise ValueError("transpositions act on integer-prefix windows")
        if gen_set.n != window_n.size:
            raise ValueError(f"transposition degree {gen_set.n} != window size {window_n.size}")
    elif isinstance(gen_set, DyadicSwaps):
        if window_n.kind is not WindowKind.REAL_INTERVAL:
            raise ValueError("dyadic swaps act on real-interval windows")
        reach = np.maximum(gens[:, 0], gens[:, 1]) * np.ldexp(1.0, -gens[:, 2])
        if np.any(reach > window_n.size):
            i, j, k = gens[np.argmax(reach)].tolist()
            raise ValueError(f"swap ({i}, {j}, {k}) has support outside [0, {window_n.size})")
    elif isinstance(gen_set, RandomRotations):
        if window_n.kind is not WindowKind.EUCLIDEAN_BALL:
            raise ValueError("rotations act on ball windows")
        if gen_set.dim != window_n.dim or gen_set.dim != window_m.dim:
            raise ValueError("rotation dimension does not match the windows")
    else:
        raise TypeError(f"not a generator set: {gen_set!r}")
    return gens


def serialize_element(gen_set: GeneratorSet, row: np.ndarray) -> str:
    """Compact text form of one generator row, used inside reports."""
    if isinstance(gen_set, Transpositions):
        a, b = row.tolist()
        mapping = list(range(1, gen_set.n + 1))
        mapping[a - 1], mapping[b - 1] = b, a
        return "perm:[" + ",".join(str(x) for x in mapping) + "]"
    if isinstance(gen_set, DyadicSwaps):
        i, j, k = row.tolist()
        return f"dyadic:[({i},{j},{k})]"
    if isinstance(gen_set, RandomRotations):
        rows = ";".join(",".join(fmt_real(v) for v in r) for r in row.tolist())
        return f"rot:d={gen_set.dim};rows={rows}"
    raise TypeError(f"not a generator set: {gen_set!r}")
