import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointgraphs.cli import run
from pointgraphs.coins import derive_seeds
from pointgraphs.edgelist import dumps_graph, loads_graph
from pointgraphs.pairs import make_graph, restrict_table
from pointgraphs.samplers import SpecMismatchError, extend_sample, spec_from_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read(path: Path) -> str:
    return path.read_text()


def test_sample_writes_edge_list(tmp_path):
    out = tmp_path / "g.el"
    code = run(
        ["sample", "--config", str(CONFIGS / "graphon.json"), "--n", "10",
         "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    graph = loads_graph(read(out))
    assert graph.n_vertices == 10
    assert graph.fingerprint is not None
    assert "#seed 42" in read(out)


def test_sample_restrict_matches_direct_sample(tmp_path):
    big, small, direct = (tmp_path / name for name in ("g10.el", "g5.el", "d5.el"))
    cfg = str(CONFIGS / "graphon.json")
    assert run(["sample", "--config", cfg, "--n", "10", "--seed", "7", "--out", str(big)]) == 0
    assert run(["restrict", "--in", str(big), "--n", "5", "--out", str(small)]) == 0
    assert run(["sample", "--config", cfg, "--n", "5", "--seed", "7", "--out", str(direct)]) == 0
    assert loads_graph(read(small)) == loads_graph(read(direct))


def test_restrict_prunes_isolated_for_graphex(tmp_path):
    big, small, direct = (tmp_path / name for name in ("g4.el", "g1.el", "d1.el"))
    cfg = str(CONFIGS / "graphex.json")
    assert run(["sample", "--config", cfg, "--n", "4", "--seed", "9", "--out", str(big)]) == 0
    assert run(["restrict", "--in", str(big), "--n", "1", "--out", str(small)]) == 0
    assert run(["sample", "--config", cfg, "--n", "1", "--seed", "9", "--out", str(direct)]) == 0
    assert loads_graph(read(small)) == loads_graph(read(direct))


def test_extend_roundtrip(tmp_path):
    g5, g9, back = (tmp_path / name for name in ("g5.el", "g9.el", "back.el"))
    cfg = str(CONFIGS / "rotinv.json")
    assert run(["sample", "--config", cfg, "--n", "3", "--seed", "5", "--out", str(g5)]) == 0
    assert run(["extend", "--config", cfg, "--seed", "5", "--in", str(g5),
                "--n", "3", "--m", "7", "--out", str(g9)]) == 0
    assert run(["restrict", "--in", str(g9), "--n", "3", "--out", str(back)]) == 0
    assert loads_graph(read(back)) == loads_graph(read(g5))


def test_extend_rejects_wrong_seed(tmp_path, capsys):
    g5 = tmp_path / "g5.el"
    cfg = str(CONFIGS / "graphon.json")
    assert run(["sample", "--config", cfg, "--n", "5", "--seed", "5", "--out", str(g5)]) == 0
    code = run(["extend", "--config", cfg, "--seed", "6", "--in", str(g5),
                "--n", "5", "--m", "9"])
    assert code == 1
    assert "fingerprint" in capsys.readouterr().err


def tampered(graph, how):
    """The graph with one edit that keeps it valid: its first edge removed,
    its first label moved to another place inside the window, its first
    latent changed, or its latent column dropped.  Returns the graph and
    the start of the error it should raise."""
    labels, latents, ends = graph.labels.copy(), graph.latents.copy(), graph.ends
    if how == "edge":
        i, j = ends[0].tolist()
        ends = ends[1:]
        named = f"edge {(graph.vertices[i], graph.vertices[j])!r} is only in the sample"
    elif how == "label":
        if labels.dtype == np.int64:  # 1..n are all taken: swap two of them
            labels[[0, 1]] = labels[[1, 0]]
        else:
            labels[0] *= 0.5
        named = "vertex 0 (label, latent)"
    elif how == "latent":
        latents[0] = latents[0] * 0.5 + 0.25
        named = "vertex 0 (label, latent)"
    else:
        latents = None
        named = f"vertex 0 (label, latent) is {(graph.vertices[0], None)!r} in the graph"
    edited = make_graph(graph.window, labels, ends, latents, graph.family, graph.fingerprint)
    return edited, f"graph differs from this spec's sample: {named}"


@pytest.mark.parametrize("how", ["edge", "label", "latent", "no-latent"])
@pytest.mark.parametrize("config, n", [("graphon", 10), ("graphex", 3), ("rotinv", 6)])
def test_extend_refuses_a_tampered_graph(tmp_path, capsys, config, n, how):
    cfg = str(CONFIGS / f"{config}.json")
    spec = spec_from_dict(json.loads(read(CONFIGS / f"{config}.json")))
    assert run(["sample", "--config", cfg, "--n", str(n), "--out", str(tmp_path / "g.el")]) == 0
    graph = loads_graph(read(tmp_path / "g.el"))
    assert graph.n_edges > 1
    edited, message = tampered(graph, how)
    with pytest.raises(SpecMismatchError, match=re.escape(message)):
        extend_sample(spec, edited, n, 2 * n)
    (tmp_path / "bad.el").write_text(dumps_graph(edited))
    assert run(["extend", "--config", cfg, "--in", str(tmp_path / "bad.el"), "--n", str(n),
                "--m", str(2 * n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"pointgraphs: error: {message}")
    # the untampered graph extends, and restricts back to itself
    assert restrict_table(extend_sample(spec, graph, n, 2 * n), graph.window) == graph


@pytest.mark.parametrize("config, n", [("graphex", 0.1), ("rotinv", 0.1)])
def test_extend_takes_an_empty_sample(tmp_path, config, n):
    # a file with no v lines reads back with no latent column, while the
    # sample it is compared with has an empty one: the two are equal
    g, big, back = (tmp_path / name for name in ("g.el", "big.el", "back.el"))
    cfg = str(CONFIGS / f"{config}.json")
    assert run(["sample", "--config", cfg, "--n", str(n), "--out", str(g)]) == 0
    assert loads_graph(read(g)).n_vertices == 0
    assert run(["extend", "--config", cfg, "--in", str(g), "--n", str(n), "--m", "3",
                "--out", str(big)]) == 0
    assert loads_graph(read(big)).n_vertices > 0
    assert run(["restrict", "--in", str(big), "--n", str(n), "--out", str(back)]) == 0
    assert loads_graph(read(back)) == loads_graph(read(g))


def test_stats_command(tmp_path):
    g, out = tmp_path / "g.el", tmp_path / "stats.json"
    cfg = str(CONFIGS / "graphon.json")
    assert run(["sample", "--config", cfg, "--n", "8", "--seed", "3", "--out", str(g)]) == 0
    assert run(["stats", "--in", str(g), "--out", str(out)]) == 0
    payload = json.loads(read(out))
    assert {"edge_count", "degree_histogram", "triangle_count", "max_degree"} <= set(payload)
    assert payload["window"] == {"kind": "integer_prefix", "size": 8}


def test_projectivity_command_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-projectivity", "--config", str(CONFIGS / "rotinv.json"),
                "--n", "2", "--m", "6", "--trials", "500", "--out", str(out)])
    assert code == 0
    report = json.loads(read(out))
    assert report["verdict"] == "Pass"
    assert report["details"]["mismatches"] == 0


def test_projectivity_command_fails_on_broken_family(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-projectivity", "--config", str(CONFIGS / "broken_window_scaled.json"),
                "--n", "3", "--m", "6", "--trials", "2000", "--mode", "distributional",
                "--out", str(out)])
    assert code == 2
    assert json.loads(read(out))["verdict"] == "Fail"


def test_failing_exact_projectivity_names_a_reproducible_trial(tmp_path):
    out, big, small, direct = (tmp_path / name for name in ("r.json", "g6.el", "g3.el", "d3.el"))
    cfg = str(CONFIGS / "broken_window_scaled.json")
    code = run(["test-projectivity", "--config", cfg, "--n", "3", "--m", "6",
                "--trials", "500", "--out", str(out)])
    assert code == 2
    details = json.loads(read(out))["details"]
    assert details["mismatches"] > 0
    first = details["first_mismatch"]
    config_seed = json.loads(read(Path(cfg)))["seed"]
    assert derive_seeds(config_seed, [first["trial"]]).tolist() == [first["seed"]]
    seed = str(first["seed"])
    assert run(["sample", "--config", cfg, "--n", "6", "--seed", seed, "--out", str(big)]) == 0
    assert run(["restrict", "--in", str(big), "--n", "3", "--out", str(small)]) == 0
    assert run(["sample", "--config", cfg, "--n", "3", "--seed", seed, "--out", str(direct)]) == 0
    assert loads_graph(read(small)) != loads_graph(read(direct))


def test_invariance_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-invariance", "--config", str(CONFIGS / "graphex.json"),
                "--n", "2", "--trials", "600", "--out", str(out)])
    assert code == 0
    assert json.loads(read(out))["verdict"] == "Pass"


def test_invariance_past_dyadic_limit_is_one_error_line(capsys):
    argv = ["test-invariance", "--config", str(CONFIGS / "graphex.json"), "--n", "1500",
            "--trials", "1"]
    assert run(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: dyadic swaps need a window size in (0, 1024]")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test-invariance", "--config", "graphon", "--n", "5", "--trials", "0"],
         "need at least one trial"),
        (["test-compatibility", "--config", "graphon", "--n", "4", "--m", "9", "--trials", "0"],
         "need at least one trial"),
        (["test-invariance", "--config", "graphon", "--n", "5", "--alpha", "0"], "alpha"),
        (["test-invariance", "--config", "rotinv", "--n", "4", "--alpha", "1"], "alpha"),
        (["test-projectivity", "--config", "graphon", "--n", "3", "--m", "6", "--trials", "500",
          "--alpha", "0"], "alpha"),
        (["test-projectivity", "--config", "graphon", "--n", "3", "--m", "6", "--trials", "500",
          "--mode", "distributional", "--alpha", "nan"], "alpha"),
    ],
    ids=["invariance-trials", "compatibility-trials", "invariance-alpha-0",
         "invariance-alpha-1", "projectivity-alpha-0", "projectivity-alpha-nan"],
)
def test_bad_trials_or_alpha_is_one_error_line(capsys, argv, message):
    at = argv.index("--config") + 1
    argv = argv[:at] + [str(CONFIGS / f"{argv[at]}.json")] + argv[at + 1 :]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("pointgraphs: error: ") and message in line


def test_restrict_to_a_larger_window_is_one_error_line(tmp_path, capsys):
    g = tmp_path / "g.el"
    cfg = str(CONFIGS / "graphon.json")
    assert run(["sample", "--config", cfg, "--n", "5", "--seed", "3", "--out", str(g)]) == 0
    assert run(["restrict", "--in", str(g), "--n", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "pointgraphs: error: restriction window size 50 exceeds the graph's window size 5"
    ]


# "G" stands for a graphon sample at n = 6 with seed 3, written by the test.
BAD_SIZE_ARGV = {
    "sample-n-inf": ["sample", "--config", "graphex", "--n", "inf"],
    "sample-n-inf-graphon": ["sample", "--config", "graphon", "--n", "inf"],
    "extend-m-inf": ["extend", "--config", "graphon", "--seed", "3", "--in", "G",
                     "--n", "6", "--m", "inf"],
    "extend-n-inf": ["extend", "--config", "graphon", "--seed", "3", "--in", "G",
                     "--n", "inf", "--m", "inf"],
    "restrict-n-inf": ["restrict", "--in", "G", "--n", "inf"],
    "restrict-n-fractional": ["restrict", "--in", "G", "--n", "5.5"],
    "projectivity-m-inf": ["test-projectivity", "--config", "graphex", "--n", "2",
                           "--m", "inf", "--trials", "500"],
    "invariance-n-inf": ["test-invariance", "--config", "graphon", "--n", "inf",
                         "--trials", "10"],
    "compatibility-m-inf": ["test-compatibility", "--config", "rotinv", "--n", "2",
                            "--m", "inf", "--trials", "10"],
    "enumerate-n-inf": ["enumerate", "--config", "graphon", "--n", "inf", "--trials", "10"],
    "enumerate-n-fractional": ["enumerate", "--config", "graphon", "--n", "3.7",
                               "--trials", "10"],
    "enumerate-trials-0": ["enumerate", "--config", "graphon", "--n", "3", "--trials", "0"],
}


@pytest.mark.parametrize("name", list(BAD_SIZE_ARGV))
def test_bad_window_size_or_trials_is_one_error_line(tmp_path, capsys, name):
    g = tmp_path / "g.el"
    assert run(["sample", "--config", str(CONFIGS / "graphon.json"), "--n", "6",
                "--seed", "3", "--out", str(g)]) == 0
    argv = [str(g) if a == "G" else a for a in BAD_SIZE_ARGV[name]]
    if "--config" in argv:
        at = argv.index("--config") + 1
        argv[at] = str(CONFIGS / f"{argv[at]}.json")
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("pointgraphs: error: ")


def test_enumerate_one_vertex_has_no_chi_square(capsys):
    argv = ["enumerate", "--config", str(CONFIGS / "graphon.json"), "--n", "1", "--trials", "50"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1 and payload["counts"] == [50] and payload["probs"] == [1.0]
    assert "chi_square" not in payload


def test_compatibility_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-compatibility", "--config", str(CONFIGS / "graphon.json"),
                "--n", "4", "--m", "9", "--trials", "1000", "--out", str(out)])
    assert code == 0
    assert json.loads(read(out))["verdict"] == "Pass"


def test_compatibility_reports_name_their_config(capsys):
    # graphon, graphon_grid and broken_window_scaled share one group and one
    # window, so only the fingerprint tells their reports apart
    reports = set()
    for config in ("graphon", "graphon_grid", "broken_window_scaled"):
        assert run(["test-compatibility", "--config", str(CONFIGS / f"{config}.json"),
                    "--n", "4", "--m", "9", "--trials", "200"]) == 0
        reports.add(capsys.readouterr().out)
    assert len(reports) == 3


def test_enumerate_command(tmp_path):
    out = tmp_path / "enum.json"
    code = run(["enumerate", "--config", str(CONFIGS / "graphon.json"),
                "--n", "3", "--trials", "2000", "--out", str(out)])
    assert code == 0
    payload = json.loads(read(out))
    assert sum(payload["counts"]) == 2000
    assert payload["probs"] == [0.125] * 8
    assert "chi_square" in payload


@pytest.mark.parametrize("config", ["graphon_grid", "graphex", "rotinv"])
def test_graph_commands_write_the_same_bytes_to_stdout_and_out(tmp_path, capsys, config):
    cfg = str(CONFIGS / f"{config}.json")
    big, grown, small = tmp_path / "big.el", tmp_path / "grown.el", tmp_path / "small.el"
    for argv, path in [
        (["sample", "--config", cfg, "--n", "40", "--seed", "3"], big),
        (["extend", "--config", cfg, "--in", str(big), "--n", "40", "--m", "60",
          "--seed", "3"], grown),
        (["restrict", "--in", str(grown), "--n", "20"], small),
    ]:
        assert run(argv + ["--out", str(path)]) == 0
        assert run(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()
    assert b"#seed 3\n" in big.read_bytes() and b"#seed 3\n" in grown.read_bytes()
    assert b"#seed" not in small.read_bytes()


def test_identical_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    cfg = str(CONFIGS / "graphex.json")
    assert run(["sample", "--config", cfg, "--n", "3", "--out", str(a)]) == 0
    assert run(["sample", "--config", cfg, "--n", "3", "--out", str(b)]) == 0
    assert read(a) == read(b)


# sha256 of `pointgraphs sample --seed 42` at n = 3 and n = 12 for every
# config, plus rotinv at n = 400 with seed 7, under coin version 4.  Only a
# deliberate coin change may move these; any other change must keep them.
# Versions 3 and 4 moved only the #fingerprint line: every body is version 2's.
SAMPLE_PINS = {
    ("broken_fixed_direction", 3, 42): "1598c12afb46bb7e967384eda4a945cb9d983eafbea602d84d49db7b30e79ad8",
    ("broken_window_scaled", 3, 42): "ec3326884426ca56ff3531f62fae7ad6a9d7588e4c046c77f0008ab202af0180",
    ("graphex", 3, 42): "21a38055fbe5b13ddedab90070280cd9db7ce729ee8102ae1c63ec48d98a5a29",
    ("graphon", 3, 42): "9ba931837bf59986376b7e52f3fdc99e1c1c68a8d0416d0438392cc93829c19a",
    ("graphon_grid", 3, 42): "ae4e40ce95e497e0f6b2152b32d488f58316fdd1dbde75c718e5173ccdd5ca77",
    ("rotinv", 3, 42): "55a968633cbcb6834ad6bb6bedf3f6090a0c45329b659d33b510989cc9935404",
    ("broken_fixed_direction", 12, 42): "20091f11947673b5c1cef98d7afd34456882361956d63460f327d30d9090925b",
    ("broken_window_scaled", 12, 42): "192875bdc07f3a2aaccfc47aac3191badbaed12263614a13489bac92a2a5edfb",
    ("graphex", 12, 42): "7b3346fa850e09a7ae90be795fdfed7447b22bfd331d9488d3cccd6528722ff9",
    ("graphon", 12, 42): "b1254d644c771141f3f78de03fdd48c397ebf431bbb891faab1ba7153bfaeeb3",
    ("graphon_grid", 12, 42): "4e4599a1c5409cb1c0a73d54a83faffe83feec171ac68d148b6934c8a0cbbd39",
    ("rotinv", 12, 42): "41c9ba23bcba1811842babe80fe95a15b4e8c15cad8fe5e30fdaf14b0466177d",
    ("rotinv", 400, 7): "913a838d0c94cfb279675dc19c3d04ef294d453e833d4a5b8d0c9d4dbb2e02d0",
}


def test_every_config_is_pinned():
    assert {p.stem for p in CONFIGS.glob("*.json")} == {c for c, _, _ in SAMPLE_PINS}


@pytest.mark.parametrize("config, n, seed", list(SAMPLE_PINS), ids=lambda v: str(v))
def test_sample_output_matches_pinned_hash(capsys, config, n, seed):
    argv = ["sample", "--config", str(CONFIGS / f"{config}.json"), "--n", str(n), "--seed", str(seed)]
    assert run(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == SAMPLE_PINS[(config, n, seed)]


# sha256 of certification reports at --seed 42 under coin version 4, which
# draws group elements and window labels from keyed coins and records the
# window's own sizes.  How the trials are chunked must not move a report's
# bytes, and neither may the BLAS kernel: a Haar rotation is built in
# elementwise IEEE operations.  Version 4 moved the fingerprint of every
# report, and the shown generators of the rotinv and graphon invariance
# reports (rotations in their last bits, transpositions printed as pairs).
REPORT_PINS = {
    "projectivity-exact-graphon": (
        ["test-projectivity", "--config", "graphon", "--n", "5", "--m", "20", "--trials", "500"],
        0,
        "aa2c2360873f8fc6f07d468a30e45a70ab085d12487ba8817119641a56544619",
    ),
    "projectivity-distributional-window-scaled": (
        ["test-projectivity", "--config", "broken_window_scaled", "--n", "3", "--m", "6",
         "--trials", "1000", "--mode", "distributional"],
        2,
        "75c04fc589c34928bd4edbf0f29e7b3f7cf7e09704d71d3a2fef73ebfc111983",
    ),
    "invariance-graphex-dyadic-swaps": (
        ["test-invariance", "--config", "graphex", "--n", "2", "--trials", "250"],
        0,
        "80b538a8a35814f78621ea655eb020316bf383161a8fca2250c5e4f3406aa0d1",
    ),
    "invariance-rotinv-d2-rotations": (
        ["test-invariance", "--config", "rotinv", "--n", "8", "--trials", "100"],
        0,
        "40feca5a4cfbb4df96521912fcd776f4bb36f65ccabbfecd17a92efcdb5fb407",
    ),
    "enumerate-graphon-grid": (
        ["enumerate", "--config", "graphon_grid", "--n", "3", "--trials", "2000"],
        0,
        "cbba2a16bff9e6b54a9b7de782fb83b427eb65dee4a113e35df954ef43aeded8",
    ),
    "invariance-graphon-transpositions": (
        ["test-invariance", "--config", "graphon", "--n", "5", "--trials", "250"],
        0,
        "3b2b0d1ec93cd7338b03cb3db42ce7f86c54422b5bc18bf279bc69e2a879a275",
    ),
    "compatibility-graphon-transpositions": (
        ["test-compatibility", "--config", "graphon", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "e51bf5266c2362a4620771743cd03b7176f44c6d73c965135287873c3ef8a011",
    ),
    "compatibility-graphex-dyadic-swaps": (
        ["test-compatibility", "--config", "graphex", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "946d8da28938ebb18d316d8386b4fd5adb770b48a13276dfbad138f7e4a2ae28",
    ),
    "compatibility-rotinv-d2-rotations": (
        ["test-compatibility", "--config", "rotinv", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "eb708f2ca6eb48710b049d6ef676660663393e276f12f06ab003b9b493c19bb0",
    ),
}


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_report_matches_pinned_hash(capsys, name):
    argv, code, digest = REPORT_PINS[name]
    at = argv.index("--config") + 1
    argv = argv[:at] + [str(CONFIGS / f"{argv[at]}.json")] + argv[at + 1 :] + ["--seed", "42"]
    assert run(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_stats_of_the_dense_graphon_matches_pinned_hash(tmp_path, capsys):
    # The dense-graphon benchmark's config at n = 300: 19,906 edges.  Its
    # counts were recorded while graph_stats still intersected Python sets,
    # and only coin versions 3 and 4's fingerprints have moved the bytes since.
    path = tmp_path / "dense.el"
    assert run(["sample", "--config", str(CONFIGS / "graphon_grid.json"), "--n", "300",
                "--seed", "42", "--out", str(path)]) == 0
    assert run(["stats", "--in", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "36f4900024dbdd58467a7262bbafd611ed550d85c9ecd9a2680eeb2b603e3df0"
    )


def test_hyperbolic_overflow_is_silent_and_keeps_its_bytes(tmp_path, capsys):
    # At T = 0.001 far pairs overflow exp to inf; 1 / (1 + inf) = 0 is the
    # right probability, so the sample must neither warn nor change.
    config = tmp_path / "hyperbolic.json"
    config.write_text(json.dumps({
        "family": "rotinv", "kernel": {"type": "hyperbolic_soft", "R": 1.0, "T": 0.001},
        "dim": 2, "point": {"type": "poisson", "rate": 3.0}, "seed": 42,
    }))
    assert run(["sample", "--config", str(config), "--n", "6"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "053fcaa6e65a75717e369aa0e4b7eb4525db97789d4c892ff8b4a8d5317d63a1"
    )


def test_unknown_flag_exits_one(capsys):
    assert run(["sample", "--bogus", "x"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_exits_one(capsys):
    assert run(["sample", "--config", "/nonexistent.json", "--n", "4"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "nope", "kernel": {"type": "constant", "p": 0.5}, "seed": 1}')
    assert run(["sample", "--config", str(bad), "--n", "4"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, missing",
    [
        ("graphon", "kernel"),
        ("graphex", "y_max"),
        ("rotinv", "point"),
        ("rotinv", "dim"),
        ("rotinv", "kernel.r0"),
        ("graphex", "kernel.a"),
        ("graphon_grid", "kernel.values"),
    ],
)
def test_config_missing_key_is_one_error_line(tmp_path, capsys, config, missing):
    data = json.loads(read(CONFIGS / f"{config}.json"))
    *parents, key = missing.split(".")
    node = data
    for name in parents:
        node = node[name]
    del node[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sample", "--config", str(bad), "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"pointgraphs: error: config is missing the key {key!r}"]


@pytest.mark.parametrize(
    "config, field, where",
    [
        ("graphon", ("y_max",), "graphon config"),
        ("graphon", ("dim",), "graphon config"),
        ("graphon", ("bogus",), "graphon config"),
        ("graphon", ("point",), "graphon config"),
        ("graphex", ("dim",), "graphex config"),
        ("rotinv", ("y_max",), "rotinv config"),
        ("rotinv", ("point", "rates"), "point"),
        ("rotinv", ("point", "bogus"), "point"),
        ("graphon", ("kernel", "q"), "kernel constant"),
        ("rotinv", ("kernel", "p"), "kernel hard_distance"),
        ("broken_fixed_direction", ("kernel", "r0"), "kernel fixed_direction_indicator"),
    ],
)
def test_config_unknown_key_is_one_error_line(tmp_path, capsys, config, field, where):
    """A key the family never reads is named, not dropped."""
    data = json.loads(read(CONFIGS / f"{config}.json"))
    *parents, key = field
    node = data
    for name in parents:
        node = node[name]
    node[key] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sample", "--config", str(bad), "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"pointgraphs: error: {where} has the unknown key {key!r}"]


@pytest.mark.parametrize(
    "config, field, value",
    [
        ("graphon", ("seed",), 42.9),
        ("graphon", ("seed",), "42"),
        ("graphon", ("seed",), True),
        ("graphon", ("seed",), None),
        ("graphon", ("kernel", "p"), True),
        ("graphon", ("kernel", "p"), "0.5"),
        ("graphon_grid", ("kernel", "values"), [[True, 0.2], [0.2, 0.6]]),
        ("graphon_grid", ("kernel", "values"), [["0.8", "0.2"], ["0.2", "0.6"]]),
        ("graphon_grid", ("kernel", "values"), "0.5"),
        ("graphex", ("kernel", "a"), "2.0"),
        ("graphex", ("y_max",), True),
        ("graphex", ("y_max",), "2.0"),
        ("rotinv", ("kernel", "r0"), True),
        pytest.param("rotinv", ("kernel", "r0"), 10**400, id="rotinv-r0-beyond-float-range"),
        ("rotinv", ("point", "rate"), True),
        ("rotinv", ("point", "rate"), "3.0"),
        ("rotinv", ("point",), {"type": "radial_table", "rates": [1.0, True]}),
        ("rotinv", ("point",), {"type": "radial_table", "rates": "12"}),
        ("rotinv", ("dim",), 2.7),
        ("rotinv", ("dim",), "2"),
        ("rotinv", ("dim",), False),
        pytest.param("graphon", ("seed",), 2.0**53, id="graphon-seed-float-2^53"),
        pytest.param("rotinv", ("dim",), -(2.0**60), id="rotinv-dim-float-minus-2^60"),
        ("graphon", ("kernel",), [1]),
        ("graphon", ("kernel",), "constant"),
        ("graphon_grid", ("kernel", "values"), 3),
        ("graphon_grid", ("kernel", "values"), [[0.5], 3]),
        ("rotinv", ("point",), 3),
        ("rotinv", ("point",), {"type": "radial_table", "rates": 5}),
    ],
)
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, config, field, value):
    data = json.loads(read(CONFIGS / f"{config}.json"))
    *parents, key = field
    node = data
    for name in parents:
        node = node[name]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sample", "--config", str(bad), "--n", "3"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: config field ")


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"graphon"', "null"])
@pytest.mark.parametrize("seed", [[], ["--seed", "5"]])
def test_config_that_is_no_json_object_is_one_error_line(tmp_path, capsys, text, seed):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["sample", "--config", str(bad), "--n", "3", *seed]) == 1
    message = f"config must be a JSON object, got {json.loads(text)!r}"
    assert capsys.readouterr().err.splitlines() == [f"pointgraphs: error: {message}"]
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_dict(json.loads(text))


@pytest.mark.parametrize(
    "config, field, message",
    [
        ("graphon", ("family",), "unknown family [1]"),
        ("graphon", ("kernel", "type"), "unknown kernel type [1]"),
        ("rotinv", ("point", "type"), "unknown point spec [1]"),
    ],
)
def test_config_names_that_are_no_strings_are_one_error_line(
    tmp_path, capsys, config, field, message
):
    data = json.loads(read(CONFIGS / f"{config}.json"))
    *parents, key = field
    node = data
    for name in parents:
        node = node[name]
    node[key] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sample", "--config", str(bad), "--n", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"pointgraphs: error: {message}"]


@pytest.mark.parametrize("config, key, value", [("graphon", "seed", 42.0), ("rotinv", "dim", 2.0)])
def test_config_integers_may_be_integral_floats(tmp_path, capsys, config, key, value):
    cfg = CONFIGS / f"{config}.json"
    data = json.loads(read(cfg))
    data[key] = value
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(data))
    assert run(["sample", "--config", str(cfg), "--n", "3"]) == 0
    expected = capsys.readouterr().out
    assert run(["sample", "--config", str(floats), "--n", "3"]) == 0
    assert capsys.readouterr().out == expected


def test_seed_json_cannot_name_exactly_is_one_error_line(tmp_path, capsys):
    # JSON parsing rounds 9007199254740993.0 to 2^53, a seed the config does not name
    cfg = tmp_path / "big-seed.json"
    text = read(CONFIGS / "graphon.json")
    cfg.write_text(text.replace('"seed": 42', '"seed": 9007199254740993.0'))
    assert "9007199254740993.0" in read(cfg)
    assert run(["sample", "--config", str(cfg), "--n", "3"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: config field 'seed' must be an int")
    # the largest integral float below 2^53 still names its seed exactly
    cfg.write_text(text.replace('"seed": 42', '"seed": 9007199254740991.0'))
    assert run(["sample", "--config", str(cfg), "--n", "3"]) == 0
    assert "#seed 9007199254740991\n" in capsys.readouterr().out


def test_empty_graphon_grid_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "empty-grid.json"
    cfg.write_text(json.dumps(
        {"family": "graphon", "kernel": {"type": "graphon_grid", "values": []}, "seed": 1}
    ))
    assert run(["sample", "--config", str(cfg), "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["pointgraphs: error: grid must have at least one cell"]


def test_commands_never_import_numpy_random(tmp_path):
    # every draw is a keyed coin, so numpy.random (which numpy imports
    # lazily) never loads: not for sampling, statistics or restriction, and
    # not for the certification reports.  Nor does numpy.ma (np.unique
    # imports it).  They would add ~6 and ~1 MiB of resident memory.
    import pointgraphs

    graph = tmp_path / "g.el"
    cfg = {name: str(CONFIGS / f"{name}.json") for name in
           ("graphon", "graphex", "rotinv", "broken_window_scaled")}
    script = f"""
import sys
from pointgraphs.cli import run
cfg, graph = {cfg!r}, {str(graph)!r}
codes = [
    run(["sample", "--config", cfg["graphon"], "--n", "20", "--out", graph]),
    run(["stats", "--in", graph, "--out", graph + ".json"]),
    run(["restrict", "--in", graph, "--n", "5", "--out", graph + ".5"]),
    run(["test-projectivity", "--config", cfg["graphon"], "--n", "5", "--m", "20",
         "--trials", "500", "--out", graph + ".p"]),
    run(["test-invariance", "--config", cfg["graphex"], "--n", "2", "--trials", "250",
         "--out", graph + ".g"]),
    run(["test-invariance", "--config", cfg["rotinv"], "--n", "8", "--trials", "100",
         "--out", graph + ".r"]),
    run(["test-projectivity", "--config", cfg["broken_window_scaled"], "--n", "3", "--m", "6",
         "--trials", "1000", "--mode", "distributional", "--out", graph + ".d"]),
    run(["test-compatibility", "--config", cfg["rotinv"], "--n", "2", "--m", "8",
         "--trials", "100", "--out", graph + ".c"]),
]
print(codes, "numpy.random" in sys.modules, "numpy.ma" in sys.modules, "numpy" in sys.modules)
"""
    src = str(Path(pointgraphs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 2, 0] False False True"


def test_label_collision_is_one_error_line(capsys, monkeypatch):
    from pointgraphs import samplers

    monkeypatch.setattr(
        samplers, "coin_position_batch", lambda prf, tag, *cols: np.zeros(len(cols[0]))
    )
    assert run(["sample", "--config", str(CONFIGS / "graphex.json"), "--n", "6", "--seed", "5"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("pointgraphs: error: bit-equal label collision in graphex sample")
    assert "seed 5" in line


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pointgraphs.cli", "sample",
         "--config", str(CONFIGS / "graphon.json"), "--n", "4", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("#window kind=integer_prefix size=4")


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    from pointgraphs.cli import _build_parser

    assert _build_parser() is _build_parser()
    sample_argv = ["sample", "--config", str(CONFIGS / "graphon.json"), "--n", "6", "--seed", "4"]
    assert run(sample_argv) == 0
    first = capsys.readouterr().out
    # a usage error, then another command, on the same parser
    assert run(["sample", "--bogus", "x"]) == 1
    graph = tmp_path / "g.el"
    graph.write_text(first)
    assert run(["restrict", "--in", str(graph), "--n", "3"]) == 0
    assert loads_graph(capsys.readouterr().out).n_vertices == 3
    assert run(sample_argv) == 0
    assert capsys.readouterr().out == first
