import math

import numpy as np
import pytest

from pointgraphs import (
    CoinPRF,
    PoissonRate,
    RadialTable,
    coin,
    coin_position,
    coin_u64,
    derive_seed,
    poisson_from_uniform,
)
from pointgraphs.coins import MAX_POISSON_RATE, POSITION_BITS


def test_repeated_call_is_deterministic():
    s = CoinPRF(42)
    assert coin(s, "u", 7) == coin(s, "u", 7)
    assert coin_u64(s, "u", 7) == coin_u64(s, "u", 7)


def test_edge_pair_key_is_canonicalized():
    s = CoinPRF(42)
    assert coin(s, "edge", 2, 5) == coin(s, "edge", 5, 2)
    # structured point identities canonicalize the same way
    assert coin(s, "edge", (3, 1, 2), (0, 0, 1)) == coin(s, "edge", (0, 0, 1), (3, 1, 2))


def test_ordered_tags_do_not_canonicalize():
    s = CoinPRF(42)
    assert coin(s, "cnt", 2, 5) != coin(s, "cnt", 5, 2)


def test_tags_and_keys_separate_streams():
    s = CoinPRF(1)
    assert coin(s, "lat", 1) != coin(s, "edge", 1, 1)
    assert coin(s, "lat", 1) != coin(s, "lat", 2)
    assert coin(CoinPRF(1), "lat", 1) != coin(CoinPRF(2), "lat", 1)


def test_values_in_unit_interval():
    s = CoinPRF(9)
    for k in range(1000):
        u = coin(s, "u", k)
        assert 0.0 <= u < 1.0


def one_sample_ks_vs_uniform(values) -> float:
    values = np.sort(np.asarray(values))
    n = len(values)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - values), np.max(values - grid_lo)))


def test_uniformity_ks_100k_keys():
    # KS distance of 1e5 coins against U[0,1); 0.01 is far above the
    # ~0.0043 typical for a true uniform sample of this size.
    s = CoinPRF(20240817)
    values = [coin(s, "u", k) for k in range(1, 100_001)]
    assert one_sample_ks_vs_uniform(values) < 0.01


def test_position_coin_is_dyadic():
    s = CoinPRF(3)
    for k in range(200):
        u = coin_position(s, "posx", k)
        scaled = u * 2.0**POSITION_BITS
        assert scaled == int(scaled)
        assert 0.0 <= u < 1.0


def test_rejects_bad_key_component():
    s = CoinPRF(0)
    with pytest.raises(TypeError):
        coin(s, "u", 1.5)


def test_seed_range_validated():
    with pytest.raises(ValueError):
        CoinPRF(-1)
    with pytest.raises(ValueError):
        CoinPRF(1 << 64)


def test_derive_seed_xor():
    assert derive_seed(0b1100, 0b1010) == 0b0110
    assert derive_seed((1 << 64) - 1, 1) == (1 << 64) - 2


def test_poisson_inverse_cdf_small_values():
    # rate 1: P(0) = e^-1 = 0.3679, P(<=1) = 0.7358
    assert poisson_from_uniform(0.36, 1.0) == 0
    assert poisson_from_uniform(0.37, 1.0) == 1
    assert poisson_from_uniform(0.73, 1.0) == 1
    assert poisson_from_uniform(0.74, 1.0) == 2
    assert poisson_from_uniform(0.5, 0.0) == 0


def test_poisson_rates_past_underflow_rejected():
    # exp(-800) underflows to 0.0; inverting from there counts 1 for every u.
    for rate in (800.0, math.nextafter(MAX_POISSON_RATE, math.inf), math.inf, math.nan):
        with pytest.raises(ValueError):
            poisson_from_uniform(0.5, rate)
        with pytest.raises(ValueError):
            PoissonRate(rate)
        with pytest.raises(ValueError):
            RadialTable((1.0, rate))
    assert abs(poisson_from_uniform(0.5, MAX_POISSON_RATE) - MAX_POISSON_RATE) < 2
    PoissonRate(MAX_POISSON_RATE)
    RadialTable((MAX_POISSON_RATE,))


def test_poisson_from_coins_matches_mean_and_variance():
    s = CoinPRF(55)
    rate = 2.5
    draws = [poisson_from_uniform(coin(s, "cnt", k), rate) for k in range(20000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    # 3 standard errors: sd(mean) = sqrt(rate/N)
    assert abs(mean - rate) < 3 * math.sqrt(rate / len(draws))
    assert abs(var - rate) < 0.15
