import math

import pytest
from hypothesis import given, strategies as st

from pointgraphs import (
    WindowKind,
    ball_radius,
    contains,
    make_window,
    unit_ball_volume,
    window_to_dict,
)


def test_integer_prefix_window():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    assert [x for x in range(1, 7) if contains(w, x)] == [1, 2, 3, 4]


def test_real_interval_window():
    w = make_window(WindowKind.REAL_INTERVAL, 3.5)
    assert contains(w, 0.0)
    assert contains(w, 3.499)
    assert not contains(w, 3.5)


def test_ball_window_volume_pi_is_unit_disk():
    w = make_window(WindowKind.EUCLIDEAN_BALL, math.pi, dim=2)
    assert contains(w, (0.5, 0.0))
    assert not contains(w, (1.0, 0.0))  # open ball, boundary excluded


def test_half_open_interval_upper_end():
    w = make_window(WindowKind.REAL_INTERVAL, 3.0)
    assert not contains(w, 3.0)


def test_integer_prefix_boundary():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    assert contains(w, 4)
    assert not contains(w, 5)


@pytest.mark.parametrize(
    "kind,size,dim",
    [
        (WindowKind.INTEGER_PREFIX, 2.5, None),
        (WindowKind.INTEGER_PREFIX, 0, None),
        (WindowKind.REAL_INTERVAL, -1.0, None),
        (WindowKind.EUCLIDEAN_BALL, 1.0, None),
        (WindowKind.EUCLIDEAN_BALL, 1.0, 1),
        (WindowKind.REAL_INTERVAL, 1.0, 2),
    ],
)
def test_make_window_rejects(kind, size, dim):
    with pytest.raises(ValueError):
        make_window(kind, size, dim)


def test_contains_variant_mismatch():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    with pytest.raises(TypeError):
        contains(w, 2.5)
    ball = make_window(WindowKind.EUCLIDEAN_BALL, 1.0, dim=3)
    with pytest.raises(TypeError):
        contains(ball, (1.0, 0.0))  # wrong dimension


@pytest.mark.parametrize(
    "dim,volume,expected",
    [(2, math.pi, 1.0), (3, 4.0 * math.pi / 3.0, 1.0), (2, 4.0 * math.pi, 2.0)],
)
def test_ball_radius_known_values(dim, volume, expected):
    assert ball_radius(dim, volume) == pytest.approx(expected, rel=1e-12)


@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
def test_ball_radius_inverts_volume(dim, volume):
    r = ball_radius(dim, volume)
    assert unit_ball_volume(dim) * r**dim == pytest.approx(volume, rel=1e-10)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=50))
def test_monotone_nesting_integers(n, extra):
    m = n + extra
    small = make_window(WindowKind.INTEGER_PREFIX, n)
    big = make_window(WindowKind.INTEGER_PREFIX, m)
    for x in range(1, m + 2):
        if contains(small, x):
            assert contains(big, x)


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=200.0),
)
def test_monotone_nesting_reals(n, extra, x):
    small = make_window(WindowKind.REAL_INTERVAL, n)
    big = make_window(WindowKind.REAL_INTERVAL, n + extra)
    if contains(small, x):
        assert contains(big, x)


@given(st.floats(min_value=0.0, max_value=1e6))
def test_exhaustion_reals(x):
    # every real label is eventually inside some window of the sequence
    n = math.floor(x) + 1.0
    assert contains(make_window(WindowKind.REAL_INTERVAL, n), x)


@given(st.integers(min_value=1, max_value=10**9))
def test_exhaustion_integers(x):
    assert contains(make_window(WindowKind.INTEGER_PREFIX, x), x)


@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=4),
)
def test_exhaustion_balls(dim, coords):
    point = tuple(coords[:dim])
    if len(point) < dim:
        point = point + (0.0,) * (dim - len(point))
    r2 = sum(c * c for c in point)
    volume = unit_ball_volume(dim) * (math.sqrt(r2) + 1.0) ** dim
    assert contains(make_window(WindowKind.EUCLIDEAN_BALL, volume, dim=dim), point)


def test_window_dict_roundtrip():
    for w in [
        make_window(WindowKind.INTEGER_PREFIX, 7),
        make_window(WindowKind.REAL_INTERVAL, 2.25),
        make_window(WindowKind.EUCLIDEAN_BALL, 5.0, dim=3),
    ]:
        d = window_to_dict(w)
        assert make_window(WindowKind(d["kind"]), d["size"], d.get("dim")) == w
