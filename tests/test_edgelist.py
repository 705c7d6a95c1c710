import pytest
from hypothesis import given, strategies as st

from pointgraphs import WindowKind, make_graph, make_window
from pointgraphs.cli import run
from pointgraphs.edgelist import dumps_graph, fmt_real, loads_graph


def test_integer_graph_roundtrip():
    w = make_window(WindowKind.INTEGER_PREFIX, 4)
    g = make_graph(w, (1, 2, 3, 4), {(0, 1), (1, 2)}, family="graphon", fingerprint="abc123")
    back = loads_graph(dumps_graph(g))
    assert back == g


def test_real_graph_roundtrip_with_latents():
    w = make_window(WindowKind.REAL_INTERVAL, 3.0)
    g = make_graph(
        w, (0.1234567890123456, 2.7), {(0, 1)}, latents=(0.25, 0.75), family="graphex"
    )
    back = loads_graph(dumps_graph(g))
    assert back == g


def test_ball_graph_roundtrip():
    w = make_window(WindowKind.EUCLIDEAN_BALL, 10.0, dim=3)
    g = make_graph(
        w,
        ((0.1, -0.2, 0.3), (1.0, 0.5, -0.25)),
        {(0, 1)},
        latents=(0.374165738677, 1.1456439237),
        family="rotinv",
    )
    back = loads_graph(dumps_graph(g))
    assert back == g


def test_header_carries_window_and_dim():
    w = make_window(WindowKind.EUCLIDEAN_BALL, 2.5, dim=2)
    text = dumps_graph(make_graph(w, (), set()))
    assert text.splitlines()[0] == "#window kind=euclidean_ball size=2.5 dim=2"


def test_edges_written_sorted_and_einline_format():
    w = make_window(WindowKind.INTEGER_PREFIX, 3)
    g = make_graph(w, (1, 2, 3), {(1, 2), (0, 1)})
    lines = dumps_graph(g).splitlines()
    assert lines[-2:] == ["e 0 1", "e 1 2"]


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_seventeen_digit_roundtrip_is_bit_exact(x):
    assert float(fmt_real(x)) == x


def test_unknown_line_rejected():
    with pytest.raises(ValueError):
        loads_graph("#window kind=integer_prefix size=2\nq nonsense\n")


INT4 = "#window kind=integer_prefix size=4\n"


@pytest.mark.parametrize(
    "text",
    [
        INT4 + "v 0 5\n",
        INT4 + "v 0 2\nv 1 2\n",
        INT4 + "v 0 1\nv 1 2\ne 1 1\n",
        INT4 + "v 0 1\nv 1 2\ne 0 2\n",
        INT4 + "v 0 1.5\n",
        "#window kind=euclidean_ball size=10 dim=3\nv 0 0.1 0.2\n",
        INT4 + "v 0 1 0.5 junk\nv 1 2 0.25\n",
        INT4 + "v 0 1 0.5\nv 1 2 0.25 7\ne 0 1\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1\ne 1 0\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1\ne 0 1\n",
    ],
    ids=[
        "label-outside-window",
        "duplicate-label",
        "self-loop",
        "edge-to-missing-vertex",
        "float-label-in-integer-window",
        "ball-label-of-wrong-dimension",
        "token-past-latent",
        "number-past-latent",
        "repeated-edge-reversed",
        "repeated-edge",
    ],
)
def test_read_graph_rejects_malformed_edge_list(tmp_path, capsys, text):
    with pytest.raises((ValueError, TypeError)):
        loads_graph(text)
    path = tmp_path / "bad.el"
    path.write_text(text)
    assert run(["stats", "--in", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: ")


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        loads_graph("v 0 1\n")
