"""A second definition of the coin bits (coin version 4, whose coins are
version 3's), for the tests.

The package hashes uint64 columns, many keys at a time.  This module hashes
one key at a time on Python ints, masked to 64 bits after each product,
straight from the written definition:

* mix is the SplitMix64 finalizer, and a word c is absorbed as
  h = mix(h + c * PHI) mod 2^64;
* a tag's word absorbs, from 0, the tag's UTF-8 length and then its bytes
  as 8-byte little-endian words; the (seed, tag) base absorbs the seed into
  the tag's word, and a key absorbs its components into that base;
* a vertex key (an int, or a flat tuple of ints) has the id that absorbs
  its components from 0, and a tuple component of a key is absorbed as
  its id;
* an edge coin is keyed by the sorted pair of its two vertex ids;
* a coin is (h >> 11) * 2^-53 and a position coin (h >> 21) * 2^-43.

Negative key components are absorbed in two's complement.  Tests compare
the package's batch functions with these, bit for bit.  A Poisson count is
defined here too, by the CDF inversion loop that the package's count tables
replace.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1


def mix(h: int) -> int:
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def absorb(h: int, words) -> int:
    for c in words:
        h = mix((h + (c & _MASK) * 0x9E3779B97F4A7C15) & _MASK)
    return h


def key_id(key) -> int:
    """The 64-bit id of a vertex key: an int, or a flat tuple of ints."""
    return absorb(0, key if isinstance(key, tuple) else (key,))


def hash_key(seed: int, tag: str, *key) -> int:
    """The 64-bit hash of (seed, tag, key); a tuple component enters as its id."""
    data = tag.encode("utf-8")
    tag_words = [len(data)] + [int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)]
    words = [key_id(c) if isinstance(c, tuple) else c for c in key]
    return absorb(absorb(absorb(0, tag_words), [seed]), words)


def coin(seed: int, tag: str, *key) -> float:
    return (hash_key(seed, tag, *key) >> 11) * 2.0**-53


def coin_position(seed: int, tag: str, *key) -> float:
    return (hash_key(seed, tag, *key) >> 21) * 2.0**-43


def edge_coin(seed: int, a, b) -> float:
    """The edge coin of vertex keys a and b, keyed by their sorted ids."""
    return coin(seed, "edge", *sorted((key_id(a), key_id(b))))


def derive_seed(seed: int, t: int) -> int:
    """The seed of trial t: the hash of (seed, "trial", t)."""
    return hash_key(seed, "trial", t)


def poisson_count(u: float, rate: float) -> int:
    """Poisson(rate) at the uniform u: add the masses exp(-rate), then each
    mass before times rate / k, while u >= their running sum, and stop at
    the first mass that underflows to 0."""
    pmf = math.exp(-rate)
    cdf = pmf
    k = 0
    while u >= cdf:
        k += 1
        pmf *= rate / k
        if pmf <= 0.0:
            break
        cdf += pmf
    return k
