import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointgraphs.cli import run
from pointgraphs.coins import derive_seed
from pointgraphs.edgelist import loads_graph

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
    assert first["seed"] == derive_seed(json.loads(read(Path(cfg)))["seed"], first["trial"])
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


def test_identical_invocations_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    cfg = str(CONFIGS / "graphex.json")
    assert run(["sample", "--config", cfg, "--n", "3", "--out", str(a)]) == 0
    assert run(["sample", "--config", cfg, "--n", "3", "--out", str(b)]) == 0
    assert read(a) == read(b)


# sha256 of `pointgraphs sample --seed 42` at n = 3 and n = 12 for every
# config, plus rotinv at n = 400 with seed 7, under coin version 2.  Only a
# deliberate coin change may move these; any other change must keep them.
SAMPLE_PINS = {
    ("broken_fixed_direction", 3, 42): "e276bb318c80980a29446ec004c2c2fd360852d1ea79b9f4fd5b07eff7e8600c",
    ("broken_window_scaled", 3, 42): "a554d4e7234ee5c9508affef0ec3689384d798fa3fa8c19ddc61aefa927e6005",
    ("graphex", 3, 42): "794da4f15fbed80a1bfa7753a51e2a9d85dbde014b38018431f8fa283488a109",
    ("graphon", 3, 42): "b976df66a5aaa719496dcef6fd54be71ddd51291edff9d5710b579eec8bdba8f",
    ("graphon_grid", 3, 42): "a8fe554878ce23109565d2770d9855498e7653c50283fbf3c0c6339d3dc387f5",
    ("rotinv", 3, 42): "0924152862ad6caf8c86815dec866bd5ddeb1b12a1a5df427359c9f085c36804",
    ("broken_fixed_direction", 12, 42): "5138cf4b592439061d75d177c545a3af7eee83a3ff9f84efc3ef80e96ebf0573",
    ("broken_window_scaled", 12, 42): "244640c629141117dce4ae8982e5f86edf1c46cd91612793481bc3f5a733cf4f",
    ("graphex", 12, 42): "dc28944c5020156c9eae69c1321553ffda4efe76744097ff5107704c0d79b525",
    ("graphon", 12, 42): "52d2fc818bf2ae03e14f6340e40be8a4ed5c4c9005614a62828cdddf549091f8",
    ("graphon_grid", 12, 42): "b919d3c4a3aaffae5eb45b8fed69cb062dd5c966046d360d5c62a1504d5ddc07",
    ("rotinv", 12, 42): "7598a818dc6305c31ee8fb352becb6c6819275a336ca57bc8cdeff6b7d564b81",
    ("rotinv", 400, 7): "dfb03ccb3fac2a36326df0e6771120809ee073ce43c83f6b75482d2d2bb3f915",
}


def test_every_config_is_pinned():
    assert {p.stem for p in CONFIGS.glob("*.json")} == {c for c, _, _ in SAMPLE_PINS}


@pytest.mark.parametrize("config, n, seed", list(SAMPLE_PINS), ids=lambda v: str(v))
def test_sample_output_matches_pinned_hash(capsys, config, n, seed):
    argv = ["sample", "--config", str(CONFIGS / f"{config}.json"), "--n", str(n), "--seed", str(seed)]
    assert run(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == SAMPLE_PINS[(config, n, seed)]


# sha256 of certification reports at --seed 42 under coin version 2,
# recorded before the harness drew its trials in batches.  How the trials
# are drawn must not move a report's bytes.
REPORT_PINS = {
    "projectivity-exact-graphon": (
        ["test-projectivity", "--config", "graphon", "--n", "5", "--m", "20", "--trials", "500"],
        0,
        "4ad4a23ab73a5307f33891508f3d4738dac8ceb92e9aebf639f524a4e46c4bdf",
    ),
    "projectivity-distributional-window-scaled": (
        ["test-projectivity", "--config", "broken_window_scaled", "--n", "3", "--m", "6",
         "--trials", "1000", "--mode", "distributional"],
        2,
        "324a658fdcafd14f219b9b55ba5ea36b3eb97d3641cbab5d0b64000fe471731b",
    ),
    "invariance-graphex-dyadic-swaps": (
        ["test-invariance", "--config", "graphex", "--n", "2", "--trials", "250"],
        0,
        "59bc4119b9bd2613d44beee965b2a81793208ef42b187f359f22ae3cf57cce79",
    ),
    "invariance-rotinv-d2-rotations": (
        ["test-invariance", "--config", "rotinv", "--n", "8", "--trials", "100"],
        0,
        "82f2a04e82c94100c993fd065274bfaa9937e9201956b62cc578a054518595b3",
    ),
    "enumerate-graphon-grid": (
        ["enumerate", "--config", "graphon_grid", "--n", "3", "--trials", "2000"],
        0,
        "e8443a59ce2c640798c0e3750b34b748acf1977385443de134f5fbea5c4c34cf",
    ),
    # recorded while the CLI still built each family's group itself; moving
    # the family-to-group mapping into the harness must keep these bytes
    "invariance-graphon-transpositions": (
        ["test-invariance", "--config", "graphon", "--n", "5", "--trials", "250"],
        0,
        "4284039ef19ae7094e8f352cb58ce31611f2ac91c2fa25d8e9fd182c45f2257c",
    ),
    # re-recorded when compatibility reports took the spec fingerprint in
    # place of the generator set's repr; every other field kept its bytes
    "compatibility-graphon-transpositions": (
        ["test-compatibility", "--config", "graphon", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "4054077683a17e8a39ac92f3abf3bade71b778e3f1dd6039e6fb0ebf25a17659",
    ),
    "compatibility-graphex-dyadic-swaps": (
        ["test-compatibility", "--config", "graphex", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "17ba01a3c13fd967b245f54a16ffb8c64a328ea91cc48bc1ae30c2d545cebfa3",
    ),
    "compatibility-rotinv-d2-rotations": (
        ["test-compatibility", "--config", "rotinv", "--n", "4", "--m", "9", "--trials", "1000"],
        0,
        "32ada14d4aba3890cdb101cf5712f4a4b30d3b6e47f29beb0245f443603572ad",
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
    # The dense-graphon benchmark's config at n = 300: 19,906 edges.  Recorded
    # while graph_stats still intersected Python sets; a faster count and a
    # bulk edge-list reader must keep these bytes.
    path = tmp_path / "dense.el"
    assert run(["sample", "--config", str(CONFIGS / "graphon_grid.json"), "--n", "300",
                "--seed", "42", "--out", str(path)]) == 0
    assert run(["stats", "--in", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "b85565f6aab587d497328e65a3619cc1e268b148eae42b65a1b521181daad0ff"
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
        "9a46ae3472de7e68db053e2a741a59e9b6cddfeaeaaf3a35c5d9d805c22e44d1"
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
    [("graphon", "kernel"), ("graphex", "y_max"), ("rotinv", "point"), ("rotinv", "dim")],
)
def test_config_missing_key_is_one_error_line(tmp_path, capsys, config, missing):
    data = json.loads(read(CONFIGS / f"{config}.json"))
    del data[missing]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sample", "--config", str(bad), "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"pointgraphs: error: config is missing the key {missing!r}"]


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
