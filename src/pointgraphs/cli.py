"""Command-line front end.

One config file describes one graph family (JSON mirroring FamilySpec);
commands sample and extend graphs, restrict and summarize edge lists, and
run the certification harness.  Exit status is 0 for success or a passing
test, 2 for a failing test, 1 for usage or configuration errors.
Identical argv plus identical config produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys

from . import harness
from .edgelist import read_graph, write_graph
from .kernels import config_object
from .pairs import restrict_table
from .samplers import FamilySpec, extend_sample, fingerprint, sample, spec_from_dict
from .stats import chi_square_gof, graph_stats
from .windows import make_window, window_to_dict

USAGE_ERROR, TEST_FAIL = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(prog="pointgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, config=True, n=False, m=False, trials=False, infile=False):
        if config:
            p.add_argument("--config", required=True, help="family config JSON")
            p.add_argument("--seed", type=int, help="override the config seed")
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="edge-list input")
        if n:
            p.add_argument("--n", type=float, required=True, help="window size")
        if m:
            p.add_argument("--m", type=float, required=True, help="larger window size")
        if trials:
            p.add_argument("--trials", type=int, default=2000)
        p.add_argument("--out", help="output path (default: stdout)")

    common(sub.add_parser("sample", help="draw one graph"), n=True)
    common(sub.add_parser("extend", help="grow a sampled graph to a larger window"),
           n=True, m=True, infile=True)
    common(sub.add_parser("restrict", help="restrict an edge list to a smaller window"),
           config=False, n=True, infile=True)
    common(sub.add_parser("stats", help="graph statistics of an edge list"),
           config=False, infile=True)
    p = sub.add_parser("test-projectivity", help="restriction-consistency certification")
    common(p, n=True, m=True, trials=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--mode", choices=["exact", "distributional"], default="exact")
    p = sub.add_parser("test-invariance", help="symmetry certification")
    common(p, n=True, trials=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--kmax", type=int, default=3, help="dyadic depth bound (graphex)")
    p = sub.add_parser("test-compatibility", help="embedding/action commutation check")
    common(p, n=True, m=True, trials=True)
    p.add_argument("--kmax", type=int, default=3, help="dyadic depth bound (graphex)")
    p = sub.add_parser("enumerate", help="labeled-graph distribution at small n")
    common(p, n=True, trials=True)
    return parser


def _load_spec(args) -> FamilySpec:
    with open(args.config) as fh:
        data = config_object(json.load(fh))
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    elif "seed" not in data:
        data["seed"] = secrets.randbits(64)  # recorded in every output
    return spec_from_dict(data)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_graph(graph, out_path, seed: int | None = None) -> None:
    """Stream the graph's edge list to its file, or to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            write_graph(graph, fh, seed)
    else:
        write_graph(graph, sys.stdout, seed)


def _finish_report(report, out_path) -> int:
    _emit(report.to_json(), out_path)
    if out_path:
        print(f"{report.test_name}: {report.verdict}")
    return 0 if report.passed else TEST_FAIL


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"pointgraphs: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "sample":
        spec = _load_spec(args)
        _emit_graph(sample(spec, args.n), args.out, spec.seed)
        return 0
    if cmd == "extend":
        spec = _load_spec(args)
        with open(args.infile) as fh:
            graph = read_graph(fh)
        _emit_graph(extend_sample(spec, graph, args.n, args.m), args.out, spec.seed)
        return 0
    if cmd == "restrict":
        with open(args.infile) as fh:
            graph = read_graph(fh)
        window = make_window(graph.window.kind, args.n, graph.window.dim)
        _emit_graph(restrict_table(graph, window), args.out)
        return 0
    if cmd == "stats":
        with open(args.infile) as fh:
            graph = read_graph(fh)
        payload = graph_stats(graph).as_dict()
        payload["window"] = window_to_dict(graph.window)
        if graph.fingerprint:
            payload["fingerprint"] = graph.fingerprint
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    if cmd == "test-projectivity":
        spec = _load_spec(args)
        report = harness.test_projectivity(
            spec, args.n, args.m, args.trials, args.alpha, args.mode
        )
        return _finish_report(report, args.out)
    if cmd == "test-invariance":
        spec = _load_spec(args)
        report = harness.test_invariance(spec, args.n, args.trials, args.alpha, args.kmax)
        return _finish_report(report, args.out)
    if cmd == "test-compatibility":
        spec = _load_spec(args)
        report = harness.test_compatibility(spec, args.n, args.m, args.trials, args.kmax)
        return _finish_report(report, args.out)
    if cmd == "enumerate":
        spec = _load_spec(args)
        dist = harness.enumerate_labeled_distribution(spec, args.n, args.trials)
        payload = {
            "n": dist.n,
            "trials": dist.trials,
            "counts": list(dist.counts),
            "probs": list(dist.probs),
            "fingerprint": fingerprint(spec),
            "seed": spec.seed,
        }
        if len(dist.counts) >= 2 and dist.trials * min(dist.probs) >= 5:
            stat, p = chi_square_gof(dist.counts, dist.probs, dist.trials)
            payload["chi_square"] = {"statistic": stat, "p_value": p}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    raise ValueError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
