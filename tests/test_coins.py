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
from pointgraphs.coins import (
    MAX_POISSON_RATE,
    POSITION_BITS,
    SMALL_BATCH,
    coin_batch,
    coin_position_batch,
    derive_seeds,
    edge_coin_batch,
    key_ids,
)


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
    values = coin_batch(s, "u", np.arange(1, 100_001))
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


def test_derive_seed_adjacent_seeds_share_no_trial_seed():
    # seed XOR t made seed 42 trial 1 equal seed 43 trial 0
    trials = range(10_000)
    for seed in (42, 1 << 40):
        here = {derive_seed(seed, t) for t in trials}
        assert len(here) == len(trials)
        assert here.isdisjoint(derive_seed(seed + 1, t) for t in trials)


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


# --- the batched engine -----------------------------------------------------------

_CELLS = np.arange(24)
_SAMPLER_KEYS = [
    # (scalar function, batch function, tag, key columns) as the samplers draw them
    (coin, coin_batch, "lat", [_CELLS + 1]),
    (coin, coin_batch, "cnt", [_CELLS // 3, _CELLS % 3]),
    (coin, coin_batch, "cnt", [_CELLS + 1]),
    (coin_position, coin_position_batch, "posx", [_CELLS // 6, _CELLS % 2, _CELLS % 3 + 1]),
    (coin_position, coin_position_batch, "posy", [_CELLS // 6, _CELLS % 2, _CELLS % 3 + 1]),
    (coin, coin_batch, "rad", [_CELLS // 4 + 1, _CELLS % 4 + 1]),
    (coin, coin_batch, "ang", [_CELLS // 8 + 1, _CELLS // 4 % 2 + 1, _CELLS % 4]),
]


@pytest.mark.parametrize("scalar, batch, tag, cols", _SAMPLER_KEYS, ids=lambda v: getattr(v, "__name__", None))
def test_batch_equals_scalar_calls(scalar, batch, tag, cols):
    # both sides of SMALL_BATCH: Python ints key by key, and uint64 arrays
    s = CoinPRF(77)
    for size in (3, len(cols[0])):
        part = [c[:size] for c in cols]
        want = [scalar(s, tag, *key) for key in zip(*(c.tolist() for c in part))]
        assert batch(s, tag, *part).tolist() == want  # bit for bit
    assert len(cols[0]) > SMALL_BATCH


@pytest.mark.parametrize(
    "keys",
    [list(range(1, 30)), [(a, b, i) for a in range(3) for b in range(2) for i in (1, 2, 3)],
     [(shell, i) for shell in (1, 2, 5) for i in (1, 2, 3, 4, 5, 6)]],
    ids=["int", "graphex", "rotinv"],
)
def test_edge_batch_equals_scalar_calls_and_is_symmetric(keys):
    s = CoinPRF(78)
    ids = key_ids(keys)
    assert ids.tolist() == [key_ids(keys[t : t + 1])[0] for t in range(len(keys))]
    ii, jj = np.triu_indices(len(keys), 1)
    for size in (3, len(ii)):
        got = edge_coin_batch(s, ids[ii[:size]], ids[jj[:size]])
        assert got.tolist() == [coin(s, "edge", keys[i], keys[j]) for i, j in zip(ii[:size], jj[:size])]
        assert np.array_equal(got, edge_coin_batch(s, ids[jj[:size]], ids[ii[:size]]))
    assert len(keys) > SMALL_BATCH
    assert coin(s, "edge", keys[3], keys[1]) == coin(s, "edge", keys[1], keys[3])


def test_coin_does_not_depend_on_batch_position():
    s = CoinPRF(79)
    a, b = np.arange(500) % 17, np.arange(500) // 17
    whole = coin_batch(s, "cnt", a, b)
    perm = np.random.default_rng(0).permutation(500)
    assert np.array_equal(coin_batch(s, "cnt", a[perm], b[perm]), whole[perm])
    for cut in (slice(123, 321), slice(5, 9)):
        assert np.array_equal(coin_batch(s, "cnt", a[cut], b[cut]), whole[cut])
    ids = key_ids(np.arange(500))
    edges = edge_coin_batch(s, ids[:-1], ids[1:])  # entry e is the pair (e, e + 1)
    order = perm[perm < 499]
    assert np.array_equal(edge_coin_batch(s, ids[order], ids[order + 1]), edges[order])
    for cut in (slice(40, 90), slice(7, 10)):
        assert np.array_equal(edge_coin_batch(s, ids[:-1][cut], ids[1:][cut]), edges[cut])


_SEEDS = np.array([0, 1, 42, 2**63, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("n_keys", [2, 3, 40])  # both sides of SMALL_BATCH
def test_seed_column_broadcasts_against_key_columns(n_keys):
    keys = np.arange(n_keys)
    got = coin_batch(CoinPRF(_SEEDS[:, None]), "cnt", keys[None, :], (keys % 3)[None, :])
    assert got.shape == (len(_SEEDS), n_keys)
    for row, seed in zip(got.tolist(), _SEEDS.tolist()):
        assert row == [coin(CoinPRF(seed), "cnt", k, k % 3) for k in keys.tolist()]
    per_key = np.resize(_SEEDS, n_keys)  # one seed per key, aligned
    assert coin_position_batch(CoinPRF(per_key), "posx", keys, keys).tolist() == [
        coin_position(CoinPRF(s), "posx", k, k) for s, k in zip(per_key.tolist(), keys.tolist())
    ]
    ids = key_ids(keys + 1)
    assert edge_coin_batch(CoinPRF(per_key), ids, ids[::-1]).tolist() == [
        coin(CoinPRF(s), "edge", a, b)
        for s, a, b in zip(per_key.tolist(), (keys + 1).tolist(), (keys + 1)[::-1].tolist())
    ]


def test_seed_columns_must_be_uint64():
    with pytest.raises(TypeError):
        CoinPRF(np.array([1, 2]))


@pytest.mark.parametrize("n_trials", [1, 5, 300])
def test_derive_seeds_is_derive_seed_per_trial(n_trials):
    trials = np.arange(n_trials) * 7
    for seed in (0, 42, 2**64 - 1):
        got = derive_seeds(seed, trials)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(seed, t) for t in trials.tolist()]


def test_batch_rejects_non_integer_columns():
    with pytest.raises(TypeError):
        coin_batch(CoinPRF(0), "u", np.array([1.5]))


_MASK = (1 << 64) - 1


def _mix_reference(h: int) -> int:
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def _absorb_reference(h: int, words) -> int:
    for c in words:
        h = _mix_reference((h + c * 0x9E3779B97F4A7C15) & _MASK)
    return h


def _hash_reference(seed: int, tag: str, *words) -> int:
    data = tag.encode()
    tag_words = [len(data)] + [int.from_bytes(data[i : i + 8], "little") for i in range(0, len(data), 8)]
    return _absorb_reference(_absorb_reference(_absorb_reference(0, tag_words), [seed]), words)


def test_known_answers_coin_version_2():
    # Pinned outputs: any change to the coin bits must fail here and ship
    # as a new COIN_VERSION, never as a silent drift.
    s = CoinPRF(42)
    assert coin(s, "lat", 7) == 0.1302725118362451
    assert coin_u64(s, "trial", 1) == 13260724068789866238 == derive_seed(42, 1)
    assert coin_position(s, "posx", 1, 2, 3) == 0.5134704845422675
    assert coin(s, "edge", 1, 2) == 0.6679909733958638
    assert coin(s, "edge", (3, 1, 2), (0, 0, 1)) == 0.30316252694422197
    assert coin(CoinPRF(0), "rad", 1, 1) == 0.1850645629708617
    # ... and they follow the written definition: mix(h + c * PHI) from a
    # (seed, tag) base (the seed absorbed into the tag's word), outputs by
    # exact shifts, edges keyed by sorted ids.
    assert coin(s, "lat", 7) == (_hash_reference(42, "lat", 7) >> 11) * 2.0**-53
    assert coin_u64(s, "trial", 1) == _hash_reference(42, "trial", 1)
    assert coin_position(s, "posx", 1, 2, 3) == (_hash_reference(42, "posx", 1, 2, 3) >> 21) * 2.0**-43
    ids = sorted(_absorb_reference(0, key) for key in ((3, 1, 2), (0, 0, 1)))
    assert coin(s, "edge", (3, 1, 2), (0, 0, 1)) == (_hash_reference(42, "edge", *ids) >> 11) * 2.0**-53
