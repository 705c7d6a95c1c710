"""Keyed deterministic uniform variates ("coins"), coin version 4.

Every random decision in the samplers is a pure function of
(seed, tag, structural key), never of a sequential stream position.  That
is what makes samples at nested window sizes agree exactly: the randomness
attached to an absolute structural coordinate (vertex id, lattice cell,
radial shell) is the same no matter how large the window is.

The engine is counter-based, in the manner of SplitMix64 (Steele, Lea &
Flood, OOPSLA 2014) and of the counter-based generators of Salmon et al.
(SC 2011).  A base word is derived from (seed, tag); each integer key
component c is then absorbed as h = mix(h + c * PHI) mod 2^64, where mix
is the SplitMix64 finalizer, a bijection of 64-bit words.  A coin is
(h >> 11) * 2^-53 and a position coin (h >> 21) * 2^-43, both exact.

Every key of a batch is hashed in one pass of numpy uint64 arithmetic,
which wraps mod 2^64 by itself, and each step hashes, in place, the fresh
array of h + c * PHI, never an input column.  Integer arithmetic is exact,
so a key's coin depends on neither the size of its batch nor its place in
it.  The seed may be a uint64 column too, broadcast against the key
columns, so one call hashes the keys of many seeds (many trials) at once;
a coin is still a pure function of (seed, tag, key).

Edge coins are keyed by vertex ids: each vertex key (an int or a flat
tuple of ints) is hashed to a 64-bit id, and the coin of a pair is keyed
by (min id, max id).  That makes edge coins symmetric for any key shape
and keeps them absolute, so exact projectivity holds.

Version 3 hashes as version 2 did, so every sampler coin keeps its bits.
It adds the harness's draws, which version 2 took from a sequential
generator: group elements and window labels are coins keyed by (trial,
draw index), so trial t's generator is a function of (seed, t) alone.
Version 4 keeps every coin of version 3.  It changes how a Haar rotation
is built from its coins' Gaussians: a Householder factorization in
elementwise IEEE operations replaces LAPACK's QR, so a rotation's last
bits no longer depend on the BLAS kernel the CPU selects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Version of the bit definition below; enters every spec fingerprint, so a
# graph drawn by another engine is never taken for one drawn by this one.
COIN_VERSION = 4

# Real-line positions are quantized to this many fractional bits so that
# dyadic-interval translations stay exact in double precision (exact for
# labels below 2**(53 - POSITION_BITS) = 1024; groups rejects swaps past it).
POSITION_BITS = 43

_PHI = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Largest Poisson rate whose exp(-rate) is still a normal double; past it
# the CDF inversion would start from an underflowed mass and miscount.
MAX_POISSON_RATE = -math.log(2.0**-1022)


@dataclass(frozen=True)
class CoinPRF:
    """A seed for the keyed coin family: a 64-bit unsigned int, or a uint64
    array of seeds that broadcasts against the key columns of a batch."""

    seed: int | np.ndarray

    def __post_init__(self):
        if isinstance(self.seed, np.ndarray):
            if self.seed.dtype != np.uint64:
                raise TypeError(f"seed columns must have dtype uint64, got {self.seed.dtype}")
        elif not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int or a uint64 array, got {self.seed!r}")
        elif not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


def _mix_words(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of every uint64 word of h, in place; products wrap mod 2^64."""
    h ^= h >> 30
    h *= _M1
    h ^= h >> 27
    h *= _M2
    h ^= h >> 31
    return h


def _absorb(h: np.ndarray, words) -> np.ndarray:
    """h = mix(h + c * PHI) for each uint64 key column c in turn.  The words
    may be a generator, so that each column exists only while it is absorbed."""
    for c in words:
        h = _mix_words(np.add(np.multiply(c, _PHI, dtype=np.uint64), h))
    return h


def _unit(h: np.ndarray) -> np.ndarray:
    h >>= 11  # in place: the hash returned h fresh
    return h * 2.0**-53


def _position(h: np.ndarray) -> np.ndarray:
    h >>= 64 - POSITION_BITS
    return h * 2.0**-POSITION_BITS


def _words(col) -> np.ndarray:
    """A batch column of integer key components as a 1-d uint64 array."""
    a = np.atleast_1d(np.asarray(col))
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.uint64)
    if a.dtype.kind not in "iu":
        raise TypeError(f"coin key columns must hold integers, got dtype {a.dtype}")
    return a.astype(np.uint64, copy=False)  # two's complement for negative components


@functools.lru_cache(maxsize=256)
def _tag_word(tag: str) -> np.ndarray:
    """The tag's own word, as a read-only uint64 array of one word."""
    data = tag.encode("utf-8")
    words = [len(data)] + [int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)]
    h = _absorb(np.zeros(1, dtype=np.uint64), np.array(words, dtype=np.uint64)[:, None])
    h.flags.writeable = False
    return h


def _tag_base(seed, tag: str) -> np.ndarray:
    """Base word of (seed, tag): the seed absorbed into the tag's own word;
    a uint64 seed column gives the column of its seeds' base words."""
    if isinstance(seed, np.ndarray):
        return _absorb(_tag_word(tag), [seed])
    return _cached_base(seed, tag)


@functools.lru_cache(maxsize=64)
def _cached_base(seed: int, tag: str) -> np.ndarray:
    """_tag_base of an int seed, read-only; a sample needs its edge base per row block."""
    h = _absorb(_tag_word(tag), [np.asarray(seed, dtype=np.uint64)])
    h.flags.writeable = False
    return h


def key_ids(keys) -> np.ndarray:
    """64-bit ids of vertex keys: ints, or flat int tuples all of one length."""
    a = np.asarray(keys)
    cols = [a] if a.ndim == 1 else a.T
    return _absorb(np.zeros(1, dtype=np.uint64), (_words(c) for c in cols))


def _rows(prf: CoinPRF, tag: str, cols) -> np.ndarray:
    return _absorb(_tag_base(prf.seed, tag), (_words(c) for c in cols))


def coin_batch(prf: CoinPRF, tag: str, *cols) -> np.ndarray:
    """The coins of (prf.seed, tag, key) for every key; column i holds key
    component i.  Columns broadcast against each other and against a seed
    column, so a (rows, 1) column and a (width,) column key a (rows, width) grid."""
    return _unit(_rows(prf, tag, cols))


def coin_position_batch(prf: CoinPRF, tag: str, *cols) -> np.ndarray:
    """coin_batch quantized to POSITION_BITS fractional bits, for positions
    on the real line, where dyadic-interval swaps need dyadic labels."""
    return _position(_rows(prf, tag, cols))


def edge_coin_batch(prf: CoinPRF, ids_a, ids_b) -> np.ndarray:
    """Edge coins of the pairs (ids_a[t], ids_b[t]) of key_ids values; the
    two columns may be views of one array, and neither is written."""
    pair = (order(ids_a, ids_b) for order in (np.minimum, np.maximum))
    return _unit(_absorb(_tag_base(prf.seed, "edge"), pair))


def derive_seeds(seed: int, run_indices) -> np.ndarray:
    """The uint64 seed of each run t of an integer column, keyed on (seed, "trial", t)."""
    return _rows(CoinPRF(seed), "trial", [run_indices])


def index_from_uniform(u, m):
    """floor(u * m) for uniforms u in [0, 1): an int64 index below m, uniform
    up to a bias of m / 2^53.  For m <= 2^53 the product rounds below m, so
    the floor is exact; the clamp to m - 1 keeps larger m in range too."""
    return np.minimum(np.floor(np.multiply(u, m)), np.subtract(m, 1)).astype(np.int64)


def gaussians_from_uniforms(us: np.ndarray) -> np.ndarray:
    """Standard Gaussians by Box-Muller, two from each pair (u1, u2) of
    uniforms in [0, 1) along the rows of a 2-D array: row r gives
    mag * cos(2 pi u2), mag * sin(2 pi u2) for each of its pairs in turn,
    with mag = sqrt(-2 log(1 - u1)).  log, cos and sin are ``math``'s,
    value by value; every other step is one correctly rounded operation,
    which numpy rounds as ``math`` would."""
    u1, u2 = us[:, 0::2], us[:, 1::2]
    mag = np.sqrt(-2.0 * _math_map(math.log, 1.0 - u1))
    turn = (2.0 * math.pi) * u2
    gs = np.empty(us.shape)
    gs[:, 0::2] = mag * _math_map(math.cos, turn)
    gs[:, 1::2] = mag * _math_map(math.sin, turn)
    return gs


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """fn applied to each value of x, in Python floats."""
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)


def poisson_from_uniform(u, rate: float):
    """Poisson(rate) counts by inverting the CDF at uniforms: one count for
    a float u, an int64 array of them for an array.

    One uniform in, one count out, so a cell's count is a pure function of
    its coin.  The count at u is the number of the rate's running CDF sums
    that are <= u (see _poisson_cdf); since the sums never decrease, that
    is where a loop that adds masses while u >= cdf would stop.
    """
    if not (0 <= rate <= MAX_POISSON_RATE):
        raise ValueError(f"Poisson rate must lie in [0, {MAX_POISSON_RATE:g}], got {rate!r}")
    return np.searchsorted(_poisson_cdf(rate), u, side="right")


@functools.lru_cache(maxsize=64)
def _poisson_cdf(rate: float) -> np.ndarray:
    """The running sums of the Poisson(rate) masses, read-only: the masses
    start at exp(-rate), each is the one before times rate / k, and the
    sums stop before the first mass that underflows to 0."""
    pmf = math.exp(-rate)
    sums = [pmf]
    k = 1
    while (pmf := pmf * (rate / k)) > 0.0:
        sums.append(sums[-1] + pmf)
        k += 1
    cdf = np.array(sums)
    cdf.flags.writeable = False
    return cdf
