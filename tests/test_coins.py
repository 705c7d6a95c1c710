import math

import numpy as np
import pytest

from pointgraphs import CoinPRF, PoissonRate, RadialTable, poisson_from_uniform
from pointgraphs.coins import (
    MAX_POISSON_RATE,
    POSITION_BITS,
    _poisson_cdf,
    coin_batch,
    coin_position_batch,
    derive_seeds,
    edge_coin_batch,
    key_ids,
)
from tests import reference


def test_repeated_call_is_deterministic():
    s = CoinPRF(42)
    assert np.array_equal(coin_batch(s, "u", [7]), coin_batch(s, "u", [7]))
    assert np.array_equal(derive_seeds(42, [7]), derive_seeds(42, [7]))


def test_edge_pair_key_is_canonicalized():
    s = CoinPRF(42)
    ids = key_ids([2, 5])
    assert edge_coin_batch(s, ids[:1], ids[1:]) == edge_coin_batch(s, ids[1:], ids[:1])
    # structured point identities canonicalize the same way
    ids = key_ids([(3, 1, 2), (0, 0, 1)])
    assert edge_coin_batch(s, ids[:1], ids[1:]) == edge_coin_batch(s, ids[1:], ids[:1])


def test_ordered_tags_do_not_canonicalize():
    s = CoinPRF(42)
    assert coin_batch(s, "cnt", [2], [5]) != coin_batch(s, "cnt", [5], [2])


def test_tags_and_keys_separate_streams():
    s = CoinPRF(1)
    assert coin_batch(s, "lat", [1]) != edge_coin_batch(s, key_ids([1]), key_ids([1]))
    assert coin_batch(s, "lat", [1]) != coin_batch(s, "lat", [2])
    assert coin_batch(CoinPRF(1), "lat", [1]) != coin_batch(CoinPRF(2), "lat", [1])


def test_values_in_unit_interval():
    u = coin_batch(CoinPRF(9), "u", np.arange(1000))
    assert np.all((0.0 <= u) & (u < 1.0))


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
    u = coin_position_batch(CoinPRF(3), "posx", np.arange(200))
    scaled = u * 2.0**POSITION_BITS
    assert np.array_equal(scaled, np.floor(scaled))
    assert np.all((0.0 <= u) & (u < 1.0))


def test_seed_range_validated():
    with pytest.raises(ValueError):
        CoinPRF(-1)
    with pytest.raises(ValueError):
        CoinPRF(1 << 64)


@pytest.mark.parametrize(
    "seed", [1.5, np.float64(3), True, np.uint64(3), "7", None],
    ids=["float", "float64", "bool", "uint64-scalar", "str", "none"],
)
def test_seeds_must_be_ints(seed):
    # a float seed would otherwise hash as its floor
    with pytest.raises(TypeError):
        CoinPRF(seed)
    with pytest.raises(TypeError):
        derive_seeds(seed, [0])


def test_derive_seed_adjacent_seeds_share_no_trial_seed():
    # seed XOR t made seed 42 trial 1 equal seed 43 trial 0
    trials = np.arange(10_000)
    for seed in (42, 1 << 40):
        here = set(derive_seeds(seed, trials).tolist())
        assert len(here) == len(trials)
        assert here.isdisjoint(derive_seeds(seed + 1, trials).tolist())


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


@pytest.mark.parametrize("rate", [1e-9, 1e-3, 0.5, 1.0, 3.0, 40.0, 300.0, MAX_POISSON_RATE])
def test_poisson_table_matches_the_inversion_loop(rate):
    # every entry of the rate's table and its two neighbouring doubles, the
    # only places a count can step, plus coins in between
    cdf = _poisson_cdf(rate)
    edges = np.concatenate((np.nextafter(cdf, -np.inf), cdf, np.nextafter(cdf, np.inf)))
    us = np.unique(np.concatenate((edges, [0.0], coin_batch(CoinPRF(8), "cnt", np.arange(2000)))))
    counts = poisson_from_uniform(us, rate)
    assert counts.dtype == np.int64
    assert counts.tolist() == [reference.poisson_count(u, rate) for u in us.tolist()]
    assert poisson_from_uniform(float(us[1]), rate) == counts[1]
    assert _poisson_cdf(rate) is cdf and not cdf.flags.writeable


def test_poisson_from_coins_matches_mean_and_variance():
    s = CoinPRF(55)
    rate = 2.5
    draws = [poisson_from_uniform(u, rate) for u in coin_batch(s, "cnt", np.arange(20000)).tolist()]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    # 3 standard errors: sd(mean) = sqrt(rate/N)
    assert abs(mean - rate) < 3 * math.sqrt(rate / len(draws))
    assert abs(var - rate) < 0.15


# --- the batched engine -----------------------------------------------------------

_CELLS = np.arange(24)
_SAMPLER_KEYS = [
    # (reference function, batch function, tag, key columns) as the samplers draw them
    (reference.coin, coin_batch, "lat", [_CELLS + 1]),
    (reference.coin, coin_batch, "cnt", [_CELLS // 3, _CELLS % 3]),
    (reference.coin, coin_batch, "cnt", [_CELLS + 1]),
    (reference.coin_position, coin_position_batch, "posx",
     [_CELLS // 6, _CELLS % 2, _CELLS % 3 + 1]),
    (reference.coin_position, coin_position_batch, "posy",
     [_CELLS // 6, _CELLS % 2, _CELLS % 3 + 1]),
    (reference.coin, coin_batch, "rad", [_CELLS // 4 + 1, _CELLS % 4 + 1]),
    (reference.coin, coin_batch, "ang", [_CELLS // 8 + 1, _CELLS // 4 % 2 + 1, _CELLS % 4]),
]


@pytest.mark.parametrize("scalar, batch, tag, cols", _SAMPLER_KEYS, ids=lambda v: getattr(v, "__name__", None))
def test_batch_equals_scalar_calls(scalar, batch, tag, cols):
    s = CoinPRF(77)
    for size in (0, 1, 3, len(cols[0])):
        part = [c[:size] for c in cols]
        want = [scalar(77, tag, *key) for key in zip(*(c.tolist() for c in part))]
        assert batch(s, tag, *part).tolist() == want  # bit for bit


@pytest.mark.parametrize(
    "keys",
    [list(range(1, 30)), [(a, b, i) for a in range(3) for b in range(2) for i in (1, 2, 3)],
     [(shell, i) for shell in (1, 2, 5) for i in (1, 2, 3, 4, 5, 6)]],
    ids=["int", "graphex", "rotinv"],
)
def test_edge_batch_equals_scalar_calls_and_is_symmetric(keys):
    s = CoinPRF(78)
    ids = key_ids(keys)
    assert ids.tolist() == [reference.key_id(key) for key in keys]
    assert ids.tolist() == [key_ids(keys[t : t + 1])[0] for t in range(len(keys))]
    ii, jj = np.triu_indices(len(keys), 1)
    for size in (0, 1, 3, len(ii)):
        got = edge_coin_batch(s, ids[ii[:size]], ids[jj[:size]])
        want = [reference.edge_coin(78, keys[i], keys[j]) for i, j in zip(ii[:size], jj[:size])]
        assert got.tolist() == want
        assert np.array_equal(got, edge_coin_batch(s, ids[jj[:size]], ids[ii[:size]]))


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


@pytest.mark.parametrize("writeable", [False, True], ids=["read-only", "writeable"])
@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_hashing_never_writes_into_its_inputs(dtype, writeable):
    # the batch hash works in place, but only on arrays it made itself: a
    # read-only input raises on a stray write, and overlapping views of one
    # writeable array would see one
    keys = (np.arange(1, 302, dtype=np.uint64) * 0x9E3779B97F4A7C15).astype(dtype)
    rows = keys.reshape(-1, 7)
    seeds = keys.astype(np.uint64)[:-1]
    for a in (keys, rows, seeds):
        a.flags.writeable = writeable
    before = [a.copy() for a in (keys, rows, seeds)]
    ids = key_ids(keys)
    assert np.array_equal(ids, key_ids(keys.copy()))
    assert np.array_equal(key_ids(rows), key_ids(rows.copy()))
    for prf in (CoinPRF(7), CoinPRF(seeds)):
        fresh = CoinPRF(prf.seed if isinstance(prf.seed, int) else prf.seed.copy())
        got = coin_batch(prf, "cnt", keys[:-1], keys[1:])
        assert np.array_equal(got, coin_batch(fresh, "cnt", keys[:-1].copy(), keys[1:].copy()))
        got = coin_position_batch(prf, "posx", keys[1:], keys[:-1], keys[1:])
        want = coin_position_batch(fresh, "posx", keys[1:].copy(), keys[:-1].copy(), keys[1:].copy())
        assert np.array_equal(got, want)
    ids.flags.writeable = writeable
    got = edge_coin_batch(CoinPRF(seeds), ids[:-1], ids[1:])
    assert np.array_equal(got, edge_coin_batch(CoinPRF(seeds.copy()), ids[:-1].copy(), ids[1:].copy()))
    assert np.array_equal(ids, key_ids(keys.copy()))
    for a, copy in zip((keys, rows, seeds), before):
        assert np.array_equal(a, copy)


_SEEDS = np.array([0, 1, 42, 2**63, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("n_keys", [2, 3, 40])
def test_seed_column_broadcasts_against_key_columns(n_keys):
    keys = np.arange(n_keys)
    got = coin_batch(CoinPRF(_SEEDS[:, None]), "cnt", keys[None, :], (keys % 3)[None, :])
    assert got.shape == (len(_SEEDS), n_keys)
    for row, seed in zip(got.tolist(), _SEEDS.tolist()):
        assert row == coin_batch(CoinPRF(seed), "cnt", keys, keys % 3).tolist()
    per_key = np.resize(_SEEDS, n_keys)  # one seed per key, aligned
    assert coin_position_batch(CoinPRF(per_key), "posx", keys, keys).tolist() == [
        coin_position_batch(CoinPRF(s), "posx", [k], [k])[0]
        for s, k in zip(per_key.tolist(), keys.tolist())
    ]
    ids = key_ids(keys + 1)
    assert edge_coin_batch(CoinPRF(per_key), ids, ids[::-1]).tolist() == [
        edge_coin_batch(CoinPRF(s), ids[k : k + 1], ids[::-1][k : k + 1])[0]
        for k, s in enumerate(per_key.tolist())
    ]


def test_key_columns_broadcast_against_each_other():
    # the harness keys a (trials, draws) grid of coins by (t, k)
    trials, draws = np.arange(5) * 3, np.arange(4)
    got = coin_batch(CoinPRF(42), "generator", trials[:, None], draws)
    assert got.tolist() == [
        [coin_batch(CoinPRF(42), "generator", [t], [k])[0] for k in draws.tolist()]
        for t in trials.tolist()
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
        assert got.tolist() == [reference.derive_seed(seed, t) for t in trials.tolist()]


def test_batch_rejects_non_integer_columns():
    # float, bool and object columns, as arrays and as lists
    bad = (np.array([1.5]), np.array([True, False]), np.array([1, 2], dtype=object), [1.0], [True])
    for col in bad:
        with pytest.raises(TypeError):
            coin_batch(CoinPRF(0), "u", col)
        with pytest.raises(TypeError):
            coin_position_batch(CoinPRF(0), "posx", [1], col)
        with pytest.raises(TypeError):
            key_ids(col)


def test_known_answers_coin_version_2():
    # Pinned outputs: any change to the coin bits must fail here and ship
    # as a new COIN_VERSION, never as a silent drift.  Each answer is read
    # off the batch engine and off the written definition in
    # tests/reference.py: mix(h + c * PHI) from a (seed, tag) base (the seed
    # absorbed into the tag's word), outputs by exact shifts, edges keyed
    # by sorted ids.
    s = CoinPRF(42)
    ids = key_ids([1, 2])
    tuple_ids = key_ids([(3, 1, 2), (0, 0, 1)])
    answers = [
        (0.1302725118362451, coin_batch(s, "lat", [7]), reference.coin(42, "lat", 7)),
        (13260724068789866238, derive_seeds(42, [1]), reference.derive_seed(42, 1)),
        (0.5134704845422675, coin_position_batch(s, "posx", [1], [2], [3]),
         reference.coin_position(42, "posx", 1, 2, 3)),
        (0.6679909733958638, edge_coin_batch(s, ids[:1], ids[1:]), reference.edge_coin(42, 1, 2)),
        (0.30316252694422197, edge_coin_batch(s, tuple_ids[:1], tuple_ids[1:]),
         reference.edge_coin(42, (3, 1, 2), (0, 0, 1))),
        (0.1850645629708617, coin_batch(CoinPRF(0), "rad", [1], [1]),
         reference.coin(0, "rad", 1, 1)),
    ]
    for want, engine, second in answers:
        assert engine.tolist() == [want]
        assert second == want
