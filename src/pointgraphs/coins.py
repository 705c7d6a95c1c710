"""Keyed deterministic uniform variates ("coins").

Every random decision in the samplers is a pure function of
(seed, tag, structural key), never of a sequential stream position.  That
is what makes samples at nested window sizes agree exactly: the randomness
attached to an absolute structural coordinate (vertex id, lattice cell,
radial shell) is the same no matter how large the window is.

Variates are produced by hashing the tag and key with BLAKE2b keyed by the
seed, so distinct keys give independent-looking uniforms and the whole
construction is reproducible across platforms.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

# Tags whose two-component key names an unordered pair; the key is
# canonicalized by sorting so coin(s, "edge", a, b) == coin(s, "edge", b, a).
UNORDERED_PAIR_TAGS = frozenset({"edge"})

# Real-line positions are quantized to this many fractional bits so that
# dyadic-interval translations stay exact in double precision (exact for
# labels below 2**(53 - POSITION_BITS) = 1024).
POSITION_BITS = 43

_MASK64 = (1 << 64) - 1

# Largest Poisson rate whose exp(-rate) is still a normal double; past it
# the CDF inversion would start from an underflowed mass and miscount.
MAX_POISSON_RATE = -math.log(2.0**-1022)


@dataclass(frozen=True)
class CoinPRF:
    """A seed for the keyed coin family; 64-bit unsigned."""

    seed: int

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must fit in 64 unsigned bits")


def derive_seed(seed: int, run_index: int) -> int:
    """Per-run seed for batch execution: seed XOR run-index (mod 2^64)."""
    return (seed ^ run_index) & _MASK64


def _encode_component(part, out: bytearray) -> None:
    if isinstance(part, tuple):
        out.append(0x28)  # '('
        for sub in part:
            _encode_component(sub, out)
        out.append(0x29)  # ')'
    elif isinstance(part, int) and not isinstance(part, bool):
        out.append(0x69)  # 'i'
        out.extend(struct.pack(">q", part))
    else:
        raise TypeError(f"coin key components must be ints or tuples, got {part!r}")


def _digest(prf: CoinPRF, tag: str, key: tuple) -> int:
    if tag in UNORDERED_PAIR_TAGS and len(key) == 2:
        key = tuple(sorted(key))
    buf = bytearray(tag.encode("utf-8"))
    buf.append(0x00)
    for part in key:
        _encode_component(part, buf)
    h = hashlib.blake2b(
        bytes(buf), digest_size=8, key=prf.seed.to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "big")


def coin(prf: CoinPRF, tag: str, *key) -> float:
    """Deterministic uniform variate in [0, 1) for (seed, tag, key)."""
    return (_digest(prf, tag, key) >> 11) * 2.0**-53


def coin_u64(prf: CoinPRF, tag: str, *key) -> int:
    """Deterministic 64-bit integer for (seed, tag, key); used to derive seeds."""
    return _digest(prf, tag, key)


def coin_position(prf: CoinPRF, tag: str, *key) -> float:
    """Uniform variate quantized to POSITION_BITS fractional bits.

    Used for positions on the real line, where exactness of dyadic-interval
    swaps requires every label to be a not-too-fine dyadic rational.
    """
    return (_digest(prf, tag, key) >> (64 - POSITION_BITS)) * 2.0**-POSITION_BITS


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
