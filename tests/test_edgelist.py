import re

import numpy as np
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

# inputs whose error must name the offending line, which is their last line
MALFORMED_LINES = {
    "window-without-size": "#window kind=integer_prefix\n",
    "window-token-without-equals": "#window kind=integer_prefix size=4 dim\n",
    "bare-family": INT4 + "#family\n",
    "bare-fingerprint": INT4 + "#fingerprint\n",
    "v-line-without-label": INT4 + "v 0\n",
    "repeated-window": INT4 + "#window kind=integer_prefix size=2\n",
    "window-after-v-line": INT4 + "v 0 1\n#window kind=integer_prefix size=2\n",
    "repeated-family": INT4 + "#family graphon\n#family graphex\n",
    "repeated-fingerprint": INT4 + "#fingerprint 00aa\n#fingerprint 00bb\n",
    "float-label-in-integer-window": INT4 + "v 0 1.5\n",
    "integral-float-label-in-integer-window": INT4 + "v 0 1.0\n",
    "v-line-non-integer-index": INT4 + "v x 0.5\n",
    "v-line-non-real-latent": "#window kind=real_interval size=4\nv 0 0.5 abc\n",
    "v-line-non-real-latent-of-integer-label": INT4 + "v 0 1 x\n",
    "window-non-integer-dim": "#window kind=euclidean_ball size=4 dim=2.5\n",
    "window-non-real-size": "#window kind=integer_prefix size=four\n",
}


@pytest.mark.parametrize(
    "text",
    [
        INT4 + "v 0 5\n",
        INT4 + "v 0 2\nv 1 2\n",
        INT4 + "v 0 1\nv 1 2\ne 1 1\n",
        INT4 + "v 0 1\nv 1 2\ne 0 2\n",
        "#window kind=euclidean_ball size=10 dim=3\nv 0 0.1 0.2\n",
        INT4 + "v 0 1 0.5 junk\nv 1 2 0.25\n",
        INT4 + "v 0 1 0.5\nv 1 2 0.25 7\ne 0 1\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1\ne 1 0\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1\ne 0 1\n",
        INT4 + "v 0 1\nv 1 2\ne 0\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1 2\n",
        INT4 + "v 0 1\nv 1 2\ne 0 x\n",
        INT4 + "v 0 1\nv 1 2\ne -1 0\n",
        INT4 + "v 0 1\nv 1 2\ne 0 1.0\n",
        "e 0 1\n" + INT4 + "v 0 1\nv 1 2\n",
        INT4 + "v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2 3\n",
        INT4 + "v 0 1\nv 1 2\nv 2 3\ne 0 1\nv 3 4\n",
        INT4 + "v 0 1\nv 1 2\nv 2 3\ne 0 1\nex 1 2\n",
        *MALFORMED_LINES.values(),
    ],
    ids=[
        "label-outside-window",
        "duplicate-label",
        "self-loop",
        "edge-to-missing-vertex",
        "ball-label-of-wrong-dimension",
        "token-past-latent",
        "number-past-latent",
        "repeated-edge-reversed",
        "repeated-edge",
        "e-line-missing-endpoint",
        "e-line-extra-token",
        "e-line-non-integer",
        "e-line-negative-index",
        "e-line-float-index",
        "e-line-before-window",
        "later-e-line-extra-token",
        "v-line-after-e-lines",
        "unknown-tag-after-e-lines",
        *MALFORMED_LINES,
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


@pytest.mark.parametrize("text", MALFORMED_LINES.values(), ids=MALFORMED_LINES)
def test_malformed_line_error_names_the_line(text):
    with pytest.raises(ValueError, match=re.escape(repr(text.splitlines()[-1]))):
        loads_graph(text)


def test_seed_and_other_comments_may_repeat_beside_single_headers():
    # #seed is written by the CLI; only #window, #family and #fingerprint
    # are headers that may appear once
    text = INT4 + "#seed 7\n#family graphon\n#fingerprint 00aa\nv 0 1\n# note\nv 1 2\ne 0 1\n"
    graph = loads_graph(text)
    assert (graph.family, graph.fingerprint, graph.window.size) == ("graphon", "00aa", 4)
    assert graph.vertices == (1, 2) and graph.edges == {(0, 1)}


@pytest.mark.parametrize("latent", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_non_finite_latents_rejected(tmp_path, capsys, latent):
    text = INT4 + f"v 0 1 0.5\nv 1 2 {latent}\n"
    with pytest.raises(ValueError, match="latent .* of vertex 1 is not finite"):
        loads_graph(text)
    path = tmp_path / "bad.el"
    path.write_text(text)
    assert run(["stats", "--in", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: latent ")
    interval = make_window(WindowKind.REAL_INTERVAL, 3.0)
    with pytest.raises(ValueError, match="of vertex 0 is not finite"):
        make_graph(interval, (0.5, 1.5), [(0, 1)], latents=(float(latent), 0.25))


def test_graphs_past_one_block_of_v_lines_roundtrip():
    # v lines are read in blocks of 4,096: these graphs take two
    w = make_window(WindowKind.INTEGER_PREFIX, 10_000)
    rng = np.random.default_rng(5)
    labels = rng.permutation(np.arange(1, 10_001))[:5000]
    g = make_graph(w, labels, [(0, 4999), (4096, 4097)], latents=rng.random(5000))
    assert loads_graph(dumps_graph(g)) == g
    ball = make_window(WindowKind.EUCLIDEAN_BALL, 50.0, dim=3)
    points = rng.uniform(-1.0, 1.0, size=(5000, 3))
    g = make_graph(ball, points, [(1, 4500)])
    back = loads_graph(dumps_graph(g))
    assert back == g and back.labels.flags.c_contiguous


def _v_lines(count: int, width: int = 0) -> str:
    latent = " 0.5" * width
    return "".join(f"v {i} {i + 1}{latent}\n" for i in range(count))


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param(INT4 + "v 0 99999999999999999999\n", "v 0 99999999999999999999",
                     id="past-int64"),
        pytest.param(INT4 + "v 0 1\nv 1 -9223372036854775809\n", "v 1 -9223372036854775809",
                     id="past-int64-below"),
        pytest.param(INT4 + "v 0 1\nv 2 2\n", "v 2 2", id="index-out-of-order"),
        pytest.param(INT4 + "v 0 1 0.5\nv 1 2\n", "v 1 2", id="latent-missing"),
        pytest.param(INT4 + "v 0 1\nv 1 2 0.5\n", "v 1 2 0.5", id="latent-added"),
        pytest.param("#window kind=euclidean_ball size=10 dim=2\nv 0 0.1 0.2\nv 1 0.1 0.2 0.3 0.4\n",
                     "v 1 0.1 0.2 0.3 0.4", id="point-of-another-dimension"),
        pytest.param("#window kind=integer_prefix size=9000\n" + _v_lines(5000, 1)
                     + "v 5000 5001 x\n", "v 5000 5001 x", id="second-block"),
        pytest.param("#window kind=integer_prefix size=9000\n" + _v_lines(5000, 1)
                     + "v 5000 5001\n", "v 5000 5001", id="latent-missing-in-second-block"),
    ],
)
def test_malformed_v_line_is_named(tmp_path, capsys, text, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        loads_graph(text)
    path = tmp_path / "bad.el"
    path.write_text(text)
    assert run(["stats", "--in", str(path)]) == 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("pointgraphs: error: ") and repr(line) in err


def test_unknown_window_kind_names_the_line():
    with pytest.raises(ValueError, match=re.escape("'#window kind=box size=4'")):
        loads_graph("#window kind=box size=4\n")


def test_missing_header_rejected():
    with pytest.raises(ValueError):
        loads_graph("v 0 1\n")
