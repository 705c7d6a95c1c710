"""Symmetry-group elements acting on labels and graphs.

Three families, one per label space: finite permutations of {1..n},
finite words of dyadic-interval swaps of the half line, and rotations of
R^d about the origin.  Elements of a smaller window's group extend
canonically to larger windows (permutations by fixing the new points,
swap words and rotations unchanged), which is what makes group actions
commute with window restriction.

A dyadic swap exchanges the half-open intervals ((i-1)/2^k, i/2^k] and
((j-1)/2^k, j/2^k] by translation and fixes everything else.  Boundary
points belong to the upper interval.  Translations move labels by
multiples of 2^-k, so on position-quantized labels (see coins) the swap
is exactly an involution in double precision while its support stays
within 2^(53 - POSITION_BITS) = 1024; swap words and swap generator sets
reaching past that limit are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .coins import POSITION_BITS, gaussians_from_uniforms, index_from_uniform
from .edgelist import fmt_real
from .pairs import GraphTable
from .windows import Window, WindowKind

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; mapping[i-1] is the image of i."""

    mapping: tuple

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.mapping!r}")

    @property
    def degree(self) -> int:
        return len(self.mapping)


@dataclass(frozen=True)
class DyadicSwapWord:
    """Ordered swaps (i, j, k), applied left to right."""

    word: tuple

    def __post_init__(self):
        for i, j, k in self.word:
            if i == j or i < 1 or j < 1 or k < 0:
                raise ValueError(f"bad dyadic swap ({i}, {j}, {k})")
            if max(i, j) * 2.0**-k > 2 ** (53 - POSITION_BITS):
                raise ValueError(
                    f"dyadic swap ({i}, {j}, {k}) has support past the exactness "
                    f"limit {2 ** (53 - POSITION_BITS)}"
                )


@dataclass(frozen=True, eq=False)
class Rotation:
    """Orthogonal matrix with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", q)
        d = q.shape[0]
        if q.shape != (d, d):
            raise ValueError("rotation matrix must be square")
        _check_rotations(q[None], np.linalg.det(q[None]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_rotations(qs: np.ndarray, dets: np.ndarray) -> None:
    """Reject a stack of square matrices unless each is orthogonal and its
    determinant, given in ``dets``, is +1, within ORTHO_TOL."""
    gram = np.swapaxes(qs, 1, 2) @ qs - np.eye(qs.shape[1])
    if np.max(np.abs(gram), initial=0.0) > ORTHO_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if np.max(np.abs(dets - 1.0), initial=0.0) > ORTHO_TOL:
        raise ValueError("rotation must have determinant +1")


GroupElement = Permutation | DyadicSwapWord | Rotation


def transposition(n: int, a: int, b: int) -> Permutation:
    mapping = list(range(1, n + 1))
    mapping[a - 1], mapping[b - 1] = b, a
    return Permutation(tuple(mapping))


def _act(elements, labels: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The labels moved by group elements: row r by elements[trials[r]].

    The elements are of one kind.  A permutation maps by indexing and a
    swap word moves labels elementwise, one swap at a time, both exactly.
    A rotation row is the sum over c of column c of its matrix times
    coordinate c, added in the order of c.
    """
    kinds = {type(g) for g in elements}
    if len(kinds) > 1:
        raise TypeError("the trials of one table must act by elements of one kind")
    kind = kinds.pop() if kinds else None
    if kind is Permutation:
        if labels.ndim != 1 or labels.dtype.kind not in "iuO":
            raise TypeError(f"permutation cannot act on {labels.dtype} labels")
        degrees = np.array([g.degree for g in elements], dtype=np.int64)
        images = np.fromiter(
            itertools.chain.from_iterable(g.mapping for g in elements),
            dtype=np.int64,
            count=int(degrees.sum()),
        )
        first = np.cumsum(degrees) - degrees
        moved = np.asarray((1 <= labels) & (labels <= degrees[trials]), dtype=bool)
        out = labels.copy()
        out[moved] = images[first[trials[moved]] + labels[moved].astype(np.int64) - 1]
        return out
    if kind is DyadicSwapWord:
        if labels.ndim != 1 or labels.dtype.kind not in "iuf":
            raise TypeError(f"dyadic swap word cannot act on {labels.dtype} labels")
        x = labels.astype(float)
        for s in range(max(len(g.word) for g in elements)):
            steps = [(*g.word[s], True) if s < len(g.word) else (1, 2, 0, False) for g in elements]
            i, j, k, active = (np.array(c)[trials] for c in zip(*steps))
            width = np.ldexp(1.0, -k)
            in_i = active & ((i - 1) * width < x) & (x <= i * width)
            in_j = active & ((j - 1) * width < x) & (x <= j * width)
            shift = (j - i) * width
            x = np.where(in_i, x + shift, np.where(in_j, x - shift, x))
        return x
    if kind is Rotation:
        d = elements[0].dim
        if labels.ndim != 2 or labels.shape[1] != d or any(g.dim != d for g in elements):
            raise TypeError(f"{d}-d rotation cannot act on labels of shape {labels.shape}")
        q = np.stack([g.matrix for g in elements])[trials]
        out = q[:, :, 0] * labels[:, :1]
        for c in range(1, d):
            out = out + q[:, :, c] * labels[:, c : c + 1]
        return out
    if kind is None:
        return labels.copy()
    raise TypeError(f"not a group element: {elements[0]!r}")


def apply_table(elements, table: GraphTable) -> GraphTable:
    """Relabel trial t of the table by elements[t]; edges and latents ride
    along.  A graph's table (Graph.table) is a table of one trial, and a
    label a table of one vertex."""
    return replace(table, labels=_act(elements, table.labels, table.row_trials()))


def extend_element(g: GroupElement, window_n: Window, window_m: Window) -> GroupElement:
    """Canonical embedding of g from window_n's group into window_m's."""
    if window_n.kind is not window_m.kind:
        raise ValueError("windows must share a kind")
    if window_n.size > window_m.size:
        raise ValueError("window_n must be nested in window_m")
    if isinstance(g, Permutation):
        if window_n.kind is not WindowKind.INTEGER_PREFIX:
            raise ValueError("permutations act on integer-prefix windows")
        n, m = int(window_n.size), int(window_m.size)
        if g.degree != n:
            raise ValueError(f"permutation degree {g.degree} != window size {n}")
        return Permutation(g.mapping + tuple(range(n + 1, m + 1)))
    if isinstance(g, DyadicSwapWord):
        if window_n.kind is not WindowKind.REAL_INTERVAL:
            raise ValueError("swap words act on real-interval windows")
        for i, j, k in g.word:
            if max(i, j) * 2.0**-k > window_n.size:
                raise ValueError(
                    f"swap ({i}, {j}, {k}) has support outside [0, {window_n.size})"
                )
        return g
    if isinstance(g, Rotation):
        if window_n.kind is not WindowKind.EUCLIDEAN_BALL:
            raise ValueError("rotations act on ball windows")
        if g.dim != window_n.dim or g.dim != window_m.dim:
            raise ValueError("rotation dimension does not match the windows")
        return g
    raise TypeError(f"not a group element: {g!r}")


# ---------------------------------------------------------------------------
# Generator sets realizing finite characteristic


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


def generator_coins(gen_set: GeneratorSet) -> int:
    """How many uniforms sample_generators reads per generator of the set."""
    if isinstance(gen_set, Transpositions):
        return 2
    if isinstance(gen_set, DyadicSwaps):
        return 3
    if isinstance(gen_set, RandomRotations):
        return 2 * math.ceil(gen_set.dim**2 / 2)  # Box-Muller takes pairs
    raise TypeError(f"not a generator set: {gen_set!r}")


def haar_rotations(dim: int, us) -> list:
    """Haar-uniform rotations, one per row of uniforms: QR of a Gaussian
    matrix with sign corrections (Mezzadri, Notices AMS 2007).  A row's
    Gaussians are its Box-Muller values in row-major order, and the whole
    batch takes one stacked QR, one stacked determinant and one stacked
    check."""
    us = np.asarray(us, dtype=float).reshape(len(us), -1)
    z = gaussians_from_uniforms(us)[:, : dim * dim]
    q, r = np.linalg.qr(z.reshape(len(us), dim, dim))
    q = q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0, :, 0] *= -1.0  # negates those determinants
    _check_rotations(q, np.abs(dets))
    rotations = [object.__new__(Rotation) for _ in range(len(q))]
    for g, m in zip(rotations, q):  # checked above, as a stack
        object.__setattr__(g, "matrix", m)
    return rotations


def sample_generators(gen_set: GeneratorSet, us) -> list:
    """One generator of the set per row of a (rows, generator_coins) array
    of uniforms, uniform over the set (Haar for rotations).  A generator
    is a pure function of its row."""
    us = np.asarray(us, dtype=float)
    if isinstance(gen_set, Transpositions):
        a = index_from_uniform(us[:, 0], gen_set.n) + 1
        b = index_from_uniform(us[:, 1], gen_set.n - 1) + 1
        b += b >= a
        return [transposition(gen_set.n, x, y) for x, y in zip(a.tolist(), b.tolist())]
    if isinstance(gen_set, DyadicSwaps):
        valid = np.array(
            [k for k in range(gen_set.k_max + 1) if math.floor(gen_set.n * 2**k) >= 2]
        )
        k = valid[index_from_uniform(us[:, 0], len(valid))]
        m = np.floor(gen_set.n * 2.0**k).astype(np.int64)
        i = index_from_uniform(us[:, 1], m) + 1
        j = index_from_uniform(us[:, 2], m - 1) + 1
        j += j >= i
        return [DyadicSwapWord((w,)) for w in zip(i.tolist(), j.tolist(), k.tolist())]
    if isinstance(gen_set, RandomRotations):
        return haar_rotations(gen_set.dim, us)
    raise TypeError(f"not a generator set: {gen_set!r}")


def serialize_element(g: GroupElement) -> str:
    """Compact text form used inside reports."""
    if isinstance(g, Permutation):
        return "perm:[" + ",".join(str(x) for x in g.mapping) + "]"
    if isinstance(g, DyadicSwapWord):
        body = ",".join(f"({i},{j},{k})" for i, j, k in g.word)
        return "dyadic:[" + body + "]"
    if isinstance(g, Rotation):
        rows = ";".join(
            ",".join(fmt_real(v) for v in row) for row in g.matrix
        )
        return f"rot:d={g.dim};rows={rows}"
    raise TypeError(f"not a group element: {g!r}")
