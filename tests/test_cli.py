import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointgraphs.cli import run
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


def test_invariance_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-invariance", "--config", str(CONFIGS / "graphex.json"),
                "--n", "2", "--trials", "600", "--out", str(out)])
    assert code == 0
    assert json.loads(read(out))["verdict"] == "Pass"


def test_compatibility_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(["test-compatibility", "--config", str(CONFIGS / "graphon.json"),
                "--n", "4", "--m", "9", "--trials", "1000", "--out", str(out)])
    assert code == 0
    assert json.loads(read(out))["verdict"] == "Pass"


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
