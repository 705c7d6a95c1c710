"""The benchmark's workloads: generated configs, one op, and its check.

An op drives the package only through ``pointgraphs.cli.run(argv)`` with
configs written by the benchmark; the per-op seed lives in those configs.
Checks run outside the timed region and use only public functions.  No
check pins an artifact hash: a versioned coin change may move every bit
and still pass, as long as restriction, round-trip and verdicts hold.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from pointgraphs import cli, edgelist

# Every op draws from its own seed; configs for this many seeds are
# written during set-up and reused cyclically by longer runs.
CONFIG_POOL = 128
WARMUP_SEED = 1
# The certification verdicts are statistical: a passing family fails with
# probability up to alpha per report, and the negative control passes by
# chance when its KS statistic lands far below its mean.  A strict alpha
# keeps chance failures of the positive tests out of the fail count, and
# 1000 negative-control trials keep its chance pass below ~1e-9 per op
# (at 500 trials it was seen to pass at this alpha).
ALPHA = "0.001"
NEGATIVE_TRIALS = 1000


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def op_seed(bench_seed: int, workload: str, index: int) -> int:
    digest = hashlib.blake2b(f"{bench_seed}:{workload}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _run(argv) -> int:
    return cli.run([str(a) for a in argv])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


class Workload:
    """One workload: ``op`` produces files, ``check`` verifies them."""

    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def config(self, slot) -> Path:
        return self.workdir / f"cfg-{slot}.json"

    def write_configs(self, seeds) -> None:
        """Write one config set per slot; ``seeds`` maps slot -> seed."""
        for slot, seed in seeds.items():
            _write_json(self.config(slot), self.config_payload(seed))

    def outputs(self, tag: str) -> dict:
        return {key: self.workdir / f"{tag}-{key}" for key in self.output_keys}

    def read_outputs(self, out: dict) -> dict:
        return {key: path.read_bytes() for key, path in out.items()}


def _strip_seed_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    if len(lines) > 1 and lines[1].startswith("#seed "):
        del lines[1]
    return "".join(lines)


class _Sampling(Workload):
    """Shared op and checks of the two single-sample workloads."""

    output_keys = ("graph.el",)
    size = 0
    half = 0

    def op(self, slot, out: dict) -> dict:
        rc = _run(["sample", "--config", self.config(slot), "--n", self.size,
                   "--out", out["graph.el"]])
        return {"sample": rc}

    def check(self, slot, out: dict, codes: dict) -> None:
        _expect(all(rc == 0 for rc in codes.values()), f"exit codes {codes}")
        text = out["graph.el"].read_text()
        graph = edgelist.loads_graph(text)
        _expect(graph.family == self.family, "wrong family in artifact")
        _expect(graph.window.size == self.size, "wrong window size in artifact")
        # Round trip: dumps_graph(read_graph(artifact)) reproduces the
        # artifact byte for byte, minus the CLI's #seed comment, so reading
        # it back gives the same graph.
        _expect(edgelist.dumps_graph(graph) == _strip_seed_line(text),
                "edge list does not round-trip through read_graph/dumps_graph")
        # Coupling: restricting the artifact to the half window equals a
        # direct sample at the half window with the same seed.
        restricted = self.workdir / "check-restricted.el"
        direct = self.workdir / "check-direct.el"
        _expect(_run(["restrict", "--in", out["graph.el"], "--n", self.half,
                      "--out", restricted]) == 0, "restrict failed")
        _expect(_run(["sample", "--config", self.config(slot), "--n", self.half,
                      "--out", direct]) == 0, "direct half-window sample failed")
        _expect(
            edgelist.loads_graph(restricted.read_text())
            == edgelist.loads_graph(direct.read_text()),
            "restricted artifact differs from the direct half-window sample",
        )
        self.check_graph(graph, out)

    def tamper(self, slot, out: dict) -> None:
        """Remove one edge whose endpoints both lie in the half window."""
        text = out["graph.el"].read_text()
        graph = edgelist.loads_graph(text)
        restricted = self.workdir / "tamper-restricted.el"
        _expect(_run(["restrict", "--in", out["graph.el"], "--n", self.half,
                      "--out", restricted]) == 0, "restrict failed")
        inside = set(edgelist.loads_graph(restricted.read_text()).vertices)
        for i, j in sorted(graph.edges):
            if graph.vertices[i] in inside and graph.vertices[j] in inside:
                break
        else:
            raise CheckFailed("no edge inside the half window to remove")
        victim = f"e {i} {j}\n"
        _expect(victim in text, "edge line not found")
        out["graph.el"].write_text(text.replace(victim, "", 1))


class DenseGraphon(_Sampling):
    """graphon_grid at n=300: every pair has 0<p<1, so every pair draws an edge coin."""

    name = "dense-graphon"
    family = "graphon"
    output_keys = ("graph.el", "stats.json")
    size, half = 300, 150

    def config_payload(self, seed: int) -> dict:
        return {"family": "graphon", "seed": seed,
                "kernel": {"type": "graphon_grid", "values": [[0.8, 0.2], [0.2, 0.6]]}}

    def op(self, slot, out: dict) -> dict:
        codes = super().op(slot, out)
        codes["stats"] = _run(["stats", "--in", out["graph.el"], "--out", out["stats.json"]])
        return codes

    def check_graph(self, graph, out: dict) -> None:
        stats = json.loads(out["stats.json"].read_text())
        adj = np.zeros((graph.n_vertices, graph.n_vertices))
        for i, j in graph.edges:
            adj[i, j] = adj[j, i] = 1.0
        degrees = adj.sum(axis=1).astype(int)
        hist = {str(d): int(c) for d, c in zip(*np.unique(degrees, return_counts=True))}
        triangles = int(round(np.trace(adj @ adj @ adj) / 6))
        _expect(stats["edge_count"] == graph.n_edges, "stats edge_count")
        _expect(stats["max_degree"] == int(degrees.max()), "stats max_degree")
        _expect(stats["degree_histogram"] == hist, "stats degree_histogram")
        _expect(stats["triangle_count"] == triangles, "stats triangle_count")


class GeoHard3d(_Sampling):
    """rotinv hard_distance r0=0.5 in 3-d at rate 3: ~1250 points, no edge coins."""

    name = "geo-hard-3d"
    family = "rotinv"
    size, half = 400.0, 200.0
    r0 = 0.5

    def config_payload(self, seed: int) -> dict:
        return {"family": "rotinv", "seed": seed, "dim": 3,
                "kernel": {"type": "hard_distance", "r0": self.r0},
                "point": {"type": "poisson", "rate": 3.0}}

    def check_graph(self, graph, out: dict) -> None:
        # Hard kernel oracle: {i, j} is an edge exactly when |x_i - x_j| <= r0.
        # Row blocks keep the check's memory well below the op's own peak.
        pts = np.asarray(graph.vertices, dtype=float)
        found = set()
        for lo in range(0, len(pts), 128):
            diff = pts[lo:lo + 128, None, :] - pts[None, :, :]
            rows, cols = np.nonzero(np.sqrt((diff * diff).sum(axis=-1)) <= self.r0)
            rows += lo
            upper = rows < cols
            found.update(zip(rows[upper].tolist(), cols[upper].tolist()))
        _expect(found == set(graph.edges), "edges differ from the hard-distance oracle")


class CertifySuite(Workload):
    """Exact projectivity, two invariance tests and a negative control via the CLI."""

    name = "certify-suite"
    families = {
        "projectivity": {"family": "graphon", "kernel": {"type": "constant", "p": 0.5}},
        "graphex": {"family": "graphex", "y_max": 1.0,
                    "kernel": {"type": "graphex_indicator", "c": 1.0}},
        "rotinv": {"family": "rotinv", "dim": 2, "point": {"type": "poisson", "rate": 3.0},
                   "kernel": {"type": "hard_distance", "r0": 0.5}},
        "negative": {"family": "graphon",
                     "kernel": {"type": "window_scaled_constant", "p": 0.6}},
    }
    # (config family, report file, command and sizes); each runs with
    # --config, --alpha and --out added.
    suite = (
        ("projectivity", "projectivity.json",
         ["test-projectivity", "--n", 5, "--m", 20, "--trials", 500]),
        ("graphex", "graphex-invariance.json",
         ["test-invariance", "--n", 2, "--trials", 250]),
        ("rotinv", "rotinv-invariance.json",
         ["test-invariance", "--n", 8, "--trials", 100]),
        ("negative", "negative-control.json",
         ["test-projectivity", "--n", 3, "--m", 6, "--trials", NEGATIVE_TRIALS,
          "--mode", "distributional"]),
    )
    output_keys = tuple(key for _, key, _ in suite)

    def config(self, slot, family="projectivity") -> Path:
        return self.workdir / f"cfg-{slot}-{family}.json"

    def write_configs(self, seeds) -> None:
        for slot, seed in seeds.items():
            for family, payload in self.families.items():
                _write_json(self.config(slot, family), dict(payload, seed=seed))

    def op(self, slot, out: dict) -> dict:
        return {
            family: _run([*argv, "--config", self.config(slot, family), "--alpha", ALPHA,
                          "--out", out[key]])
            for family, key, argv in self.suite
        }

    def check(self, slot, out: dict, codes: dict) -> None:
        seed = json.loads(self.config(slot).read_text())["seed"]
        reports = {key: json.loads(path.read_text()) for key, path in out.items()}
        for key, report in reports.items():
            _expect(report["seeds"]["seed"] == seed, f"{key}: report seed differs from config")
        proj = reports["projectivity.json"]
        _expect(proj["test_name"] == "projectivity_exact", "projectivity test name")
        _expect(proj["verdict"] == "Pass" and proj["details"]["mismatches"] == 0,
                "exact projectivity did not pass with zero mismatches")
        _expect(proj["sizes"]["N"] == 500, "projectivity trial count")
        for key in ("graphex-invariance.json", "rotinv-invariance.json"):
            _expect(reports[key]["test_name"] == "invariance", f"{key}: test name")
            _expect(reports[key]["verdict"] == "Pass", f"{key}: invariance did not pass")
        neg = reports["negative-control.json"]
        _expect(neg["test_name"] == "projectivity_distributional", "negative control test name")
        _expect(neg["verdict"] == "Fail", "negative control passed")
        _expect(codes == {"projectivity": 0, "graphex": 0, "rotinv": 0, "negative": 2},
                f"exit codes {codes}")

    def tamper(self, slot, out: dict) -> None:
        """Make the negative control's report claim a pass."""
        path = out["negative-control.json"]
        report = json.loads(path.read_text())
        report["verdict"] = "Pass"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


WORKLOADS = {cls.name: cls for cls in (DenseGraphon, GeoHard3d, CertifySuite)}

# Traced runs record spans for this many ops, so counts repeat exactly
# for a given --seed and the span buffer stays small.
TRACE_OPS = {"dense-graphon": 4, "geo-hard-3d": 8, "certify-suite": 2}
