"""Keyed deterministic uniform variates ("coins"), coin version 2.

Every random decision in the samplers is a pure function of
(seed, tag, structural key), never of a sequential stream position.  That
is what makes samples at nested window sizes agree exactly: the randomness
attached to an absolute structural coordinate (vertex id, lattice cell,
radial shell) is the same no matter how large the window is.

The engine is counter-based, in the manner of SplitMix64 (Steele, Lea &
Flood, OOPSLA 2014) and of the counter-based generators of Salmon et al.
(SC 2011).  A base word is derived once per (seed, tag); each integer key
component c is then absorbed as h = mix(h + c * PHI) mod 2^64, where mix
is the SplitMix64 finalizer, a bijection of 64-bit words.  A coin is
(h >> 11) * 2^-53 and a position coin (h >> 21) * 2^-43, both exact.

The same few functions run on Python ints and on numpy uint64 arrays
(where the arithmetic wraps and is masked all the same), so there is one
definition of the bits.  Batches of keys are hashed in one call: large
batches as arrays, small ones key by key in Python ints, because a numpy
call costs about a microsecond whatever its size.  Integer arithmetic is
exact either way, so a key's coin cannot depend on its batch.  The seed
may be a uint64 column too, broadcast against the key columns, so one
call hashes the keys of many seeds (many trials) at once; a coin is still
a pure function of (seed, tag, key).

Edge coins are keyed by vertex ids: each vertex key (an int or a flat
tuple of ints) is hashed to a 64-bit id, and the coin of a pair is keyed
by (min id, max id).  That makes edge coins symmetric for any key shape
and keeps them absolute, so exact projectivity holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Version of the bit definition below; enters every spec fingerprint, so a
# graph drawn by another engine is never taken for one drawn by this one.
COIN_VERSION = 2

# Tags whose two-component key names an unordered pair of vertex keys;
# coin(s, "edge", a, b) == coin(s, "edge", b, a).
UNORDERED_PAIR_TAGS = frozenset({"edge"})

# Real-line positions are quantized to this many fractional bits so that
# dyadic-interval translations stay exact in double precision (exact for
# labels below 2**(53 - POSITION_BITS) = 1024; groups rejects swaps past it).
POSITION_BITS = 43

# Batches of at most this many keys are hashed in Python ints.
SMALL_BATCH = 16

_MASK64 = (1 << 64) - 1
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
        elif not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must fit in 64 unsigned bits")


def _mix(h):
    """SplitMix64 finalizer of a 64-bit word (int) or words (uint64 array)."""
    h = ((h ^ (h >> 30)) * _M1) & _MASK64
    h = ((h ^ (h >> 27)) * _M2) & _MASK64
    return h ^ (h >> 31)


def _absorb(h, words):
    """h = mix(h + c * PHI) for each key component c in turn."""
    for c in words:
        h = _mix((h + c * _PHI) & _MASK64)
    return h


def _unit(h):
    return (h >> 11) * 2.0**-53


def _position(h):
    return (h >> (64 - POSITION_BITS)) * 2.0**-POSITION_BITS


def _absorb_rows(base, cols) -> np.ndarray:
    """Hashes of the keys whose components are the uint64 columns ``cols``,
    each from its base word; ``base`` is one int or a broadcasting column."""
    shape = np.broadcast_shapes(np.shape(base), *(c.shape for c in cols))
    size = math.prod(shape)
    if size > SMALL_BATCH:
        return _absorb(base, cols)
    if isinstance(base, int):
        bases = [base] * size
    else:
        bases = np.broadcast_to(base, shape).ravel().tolist()
    rows = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in cols))
    hashes = [_absorb(b, row) for b, row in zip(bases, rows)]
    return np.array(hashes, dtype=np.uint64).reshape(shape)


def _words(col) -> np.ndarray:
    """A batch column of integer key components as a 1-d uint64 array."""
    a = np.atleast_1d(np.asarray(col))
    if a.size == 0:
        return np.zeros(a.shape, dtype=np.uint64)
    if a.dtype.kind not in "iu":
        raise TypeError(f"coin key columns must hold integers, got dtype {a.dtype}")
    return a.astype(np.uint64)  # two's complement for negative components


def _int_word(c) -> int:
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"coin key components must be ints or flat int tuples, got {c!r}")
    if not (-(1 << 63) <= c <= _MASK64):
        raise ValueError(f"coin key component {c} does not fit in 64 bits")
    return c & _MASK64


@functools.lru_cache(maxsize=256)
def _tag_word(tag: str) -> int:
    data = tag.encode("utf-8")
    words = [len(data)] + [int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)]
    return _absorb(0, words)


@functools.lru_cache(maxsize=64)
def _int_tag_base(seed: int, tag: str) -> int:
    return _absorb(_tag_word(tag), [seed])


def _tag_base(seed, tag: str):
    """Base word of (seed, tag): the seed absorbed into the tag's own word;
    a uint64 seed column gives the column of its seeds' base words."""
    if isinstance(seed, np.ndarray):
        return _absorb(_tag_word(tag), [seed])
    return _int_tag_base(seed, tag)


def _key_id(key) -> int:
    """key_ids of a single vertex key."""
    return _absorb(0, [_int_word(c) for c in (key if isinstance(key, tuple) else (key,))])


def key_ids(keys) -> np.ndarray:
    """64-bit ids of vertex keys: ints, or flat int tuples all of one length."""
    a = np.asarray(keys)
    return _absorb_rows(0, [_words(c) for c in ([a] if a.ndim == 1 else a.T)])


def _rows(prf: CoinPRF, tag: str, cols) -> np.ndarray:
    return _absorb_rows(_tag_base(prf.seed, tag), [_words(c) for c in cols])


def coin_batch(prf: CoinPRF, tag: str, *cols) -> np.ndarray:
    """coin(prf, tag, *key) for every key; column i holds key component i."""
    return _unit(_rows(prf, tag, cols))


def coin_position_batch(prf: CoinPRF, tag: str, *cols) -> np.ndarray:
    """coin_position(prf, tag, *key) for every key; column i holds component i."""
    return _position(_rows(prf, tag, cols))


def edge_coin_batch(prf: CoinPRF, ids_a, ids_b) -> np.ndarray:
    """Edge coins of the pairs (ids_a[t], ids_b[t]) of key_ids values."""
    pair = [np.minimum(ids_a, ids_b), np.maximum(ids_a, ids_b)]
    return _unit(_absorb_rows(_tag_base(prf.seed, "edge"), pair))


def _scalar_hash(prf: CoinPRF, tag: str, key: tuple) -> int:
    """The engine on one key: int components are absorbed as they are,
    tuple components as their key id, and an unordered pair as its two ids."""
    if tag in UNORDERED_PAIR_TAGS and len(key) == 2:
        a, b = (_key_id(k) for k in key)
        words = (min(a, b), max(a, b))
    else:
        words = [_key_id(part) if isinstance(part, tuple) else _int_word(part) for part in key]
    return _absorb(_tag_base(prf.seed, tag), words)


def coin(prf: CoinPRF, tag: str, *key) -> float:
    """Deterministic uniform variate in [0, 1) for (seed, tag, key)."""
    return _unit(_scalar_hash(prf, tag, key))


def coin_u64(prf: CoinPRF, tag: str, *key) -> int:
    """Deterministic 64-bit integer for (seed, tag, key); used to derive seeds."""
    return _scalar_hash(prf, tag, key)


def coin_position(prf: CoinPRF, tag: str, *key) -> float:
    """Uniform variate quantized to POSITION_BITS fractional bits.

    Used for positions on the real line, where exactness of dyadic-interval
    swaps requires every label to be a not-too-fine dyadic rational.
    """
    return _position(_scalar_hash(prf, tag, key))


def derive_seed(seed: int, run_index: int) -> int:
    """Per-run seed for batch execution, keyed on (seed, "trial", run_index)."""
    return coin_u64(CoinPRF(seed), "trial", run_index)


def derive_seeds(seed: int, run_indices) -> np.ndarray:
    """derive_seed(seed, t) for every t of an integer column, as uint64."""
    return _rows(CoinPRF(seed), "trial", [run_indices])


def poisson_from_uniform(u: float, rate: float) -> int:
    """Poisson(rate) variate by inverting the CDF at a single uniform.

    One uniform in, one count out, so a cell's count is a pure function of
    its coin.  Runs the cumulative sum until it passes u.
    """
    if not (0 <= rate <= MAX_POISSON_RATE):
        raise ValueError(f"Poisson rate must lie in [0, {MAX_POISSON_RATE:g}], got {rate!r}")
    if rate == 0:
        return 0
    pmf = math.exp(-rate)
    cdf = pmf
    k = 0
    while u >= cdf:
        k += 1
        pmf *= rate / k
        if pmf <= 0.0:  # underflow guard; u in the far tail
            break
        cdf += pmf
    return k
