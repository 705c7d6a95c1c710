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

import math
from dataclasses import dataclass

import numpy as np

from .coins import POSITION_BITS
from .edgelist import fmt_real
from .pairs import Graph
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
        if np.max(np.abs(q.T @ q - np.eye(d))) > ORTHO_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(np.linalg.det(q) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation must have determinant +1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


GroupElement = Permutation | DyadicSwapWord | Rotation


def transposition(n: int, a: int, b: int) -> Permutation:
    mapping = list(range(1, n + 1))
    mapping[a - 1], mapping[b - 1] = b, a
    return Permutation(tuple(mapping))


def _swap_once(x: float, i: int, j: int, k: int) -> float:
    width = 2.0**-k
    if (i - 1) * width < x <= i * width:
        return x + (j - i) * width
    if (j - 1) * width < x <= j * width:
        return x - (j - i) * width
    return x


def apply_label(g: GroupElement, label):
    """Action of a group element on a single label."""
    if isinstance(g, Permutation):
        if not isinstance(label, int) or isinstance(label, bool):
            raise TypeError(f"permutation cannot act on {label!r}")
        if 1 <= label <= g.degree:
            return g.mapping[label - 1]
        return label
    if isinstance(g, DyadicSwapWord):
        if not isinstance(label, (int, float)) or isinstance(label, bool):
            raise TypeError(f"dyadic swap word cannot act on {label!r}")
        x = float(label)
        for i, j, k in g.word:
            x = _swap_once(x, i, j, k)
        return x
    if isinstance(g, Rotation):
        if not isinstance(label, tuple) or len(label) != g.dim:
            raise TypeError(f"{g.dim}-d rotation cannot act on {label!r}")
        return tuple(float(c) for c in g.matrix @ np.asarray(label, dtype=float))
    raise TypeError(f"not a group element: {g!r}")


def apply_graph(g: GroupElement, graph: Graph) -> Graph:
    """Relabel a graph's vertices by g; edges and latents ride along."""
    vertices = tuple(apply_label(g, v) for v in graph.vertices)
    return Graph(graph.window, vertices, graph.ends, graph.latents, graph.family, graph.fingerprint)


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


def haar_rotation(dim: int, rng: np.random.Generator) -> Rotation:
    """Haar-uniform rotation: QR of a Gaussian matrix with sign corrections."""
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Rotation(q)


def sample_generator(gen_set: GeneratorSet, rng: np.random.Generator) -> GroupElement:
    """Draw one generator from the set, uniformly (Haar for rotations)."""
    if isinstance(gen_set, Transpositions):
        a = int(rng.integers(1, gen_set.n + 1))
        b = int(rng.integers(1, gen_set.n))
        if b >= a:
            b += 1
        return transposition(gen_set.n, a, b)
    if isinstance(gen_set, DyadicSwaps):
        valid = [
            k
            for k in range(gen_set.k_max + 1)
            if math.floor(gen_set.n * 2**k) >= 2
        ]
        k = valid[int(rng.integers(0, len(valid)))]
        m = math.floor(gen_set.n * 2**k)
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(1, m))
        if j >= i:
            j += 1
        return DyadicSwapWord(((i, j, k),))
    if isinstance(gen_set, RandomRotations):
        return haar_rotation(gen_set.dim, rng)
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
