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


def _check_rotations(qs: np.ndarray) -> None:
    """Reject a stack of square matrices unless each is orthogonal with
    determinant +1, within ORTHO_TOL (NaN fails).  Gram matrices and the
    determinants, by elimination with partial pivoting apart from the
    factorization, are computed in elementwise operations."""
    t, d, _ = qs.shape
    gram = sum(qs[:, k, :, None] * qs[:, k, None, :] for k in range(d)) - np.eye(d)
    if not np.all(np.abs(gram) <= ORTHO_TOL):
        raise ValueError("matrix is not orthogonal within tolerance")
    a, rows, dets = qs.copy(), np.arange(t), np.ones(t)
    for k in range(d):  # an orthogonal matrix has no zero pivot
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        dets[p != k] *= -1.0
        a[rows, k], a[rows, p] = a[rows, p], a[rows, k]
        dets *= a[:, k, k]
        a[:, k + 1 :, k:] -= a[:, k + 1 :, k, None] / a[:, k, k, None, None] * a[:, None, k, k:]
    if not np.all(np.abs(dets - 1.0) <= ORTHO_TOL):
        raise ValueError("rotation must have determinant +1")


def _weighted_rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum over i of v[:, i] times row i of m, for a (T, r) stack v of
    weights and a (T, r, c) stack m, added in the order of i."""
    return sum(v[:, i, None] * m[:, i] for i in range(v.shape[1]))


def _reflect(m: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """m -= w v^T m, in place, for each matrix of a stack: the reflection
    I - 2 v v^T / |v|^2 applied to m when w = 2 v / |v|^2."""
    m -= w[:, :, None] * _weighted_rows(v, m)[:, None, :]


def _orthogonal_factors(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the QR factorization of each matrix of a (T, d, d) stack with R's
    diagonal made positive, and det Q (+1 or -1), by Householder reflections
    in elementwise numpy operations.

    Reflection k maps the subcolumn x = z[k:, k] (as reduced so far) to
    alpha e_1 with alpha = -sign(x_0) |x|, through v = x - alpha e_1, so
    alpha is R's entry (k, k); the last diagonal entry is what is left in
    the corner.  Q is the product of the reflections, each of determinant
    -1 (a zero subcolumn needs none), with column k negated where R's entry
    (k, k) is negative.  Every value is one IEEE basic operation (+ - * / or
    sqrt) on others, in a fixed order, so the bits depend on no BLAS or
    LAPACK kernel.
    """
    t, d, _ = z.shape
    a = z.copy()
    dets = np.ones(t)
    signs = np.ones((t, d))
    reflections = []
    for k in range(d - 1):
        x = a[:, k:, k]
        norm = np.sqrt(_weighted_rows(x, x[:, :, None])[:, 0])
        alpha = np.where(x[:, 0] < 0.0, norm, -norm)
        v = x.copy()
        v[:, 0] -= alpha
        vv = _weighted_rows(v, v[:, :, None])[:, 0]
        w = np.divide(2.0, vv, out=np.zeros(t), where=vv > 0.0)[:, None] * v
        dets[vv > 0.0] *= -1.0
        signs[alpha < 0.0, k] = -1.0
        _reflect(a[:, k:, k + 1 :], v, w)
        reflections.append((v, w))
    signs[a[:, d - 1, d - 1] < 0.0, d - 1] = -1.0
    q = np.tile(np.eye(d), (t, 1, 1))
    for k in reversed(range(d - 1)):
        _reflect(q[:, k:, k:], *reflections[k])
    q *= signs[:, None, :]
    dets *= np.prod(signs, axis=1)
    return q, dets


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
    A rotation is the Q of a Gaussian matrix, its row's Box-Muller values
    in row-major order, whose R has a positive diagonal (Mezzadri, Notices
    AMS 2007), with column 0 negated where det Q is -1; the batch takes one
    stacked factorization (_orthogonal_factors) and one check."""
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
        q, dets = _orthogonal_factors(z.reshape(len(us), dim, dim))
        q[dets < 0, :, 0] *= -1.0  # negates those determinants
        _check_rotations(q)
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
    """Compact text form of one generator row, used inside reports: the
    pair of a transposition and the triple of a swap, whatever the window
    size, and the rows of a rotation."""
    if isinstance(gen_set, Transpositions):
        a, b = row.tolist()
        return f"swap:({a},{b})"
    if isinstance(gen_set, DyadicSwaps):
        i, j, k = row.tolist()
        return f"dyadic:[({i},{j},{k})]"
    if isinstance(gen_set, RandomRotations):
        rows = ";".join(",".join(fmt_real(v) for v in r) for r in row.tolist())
        return f"rot:d={gen_set.dim};rows={rows}"
    raise TypeError(f"not a generator set: {gen_set!r}")
