"""One workload process: set up, run a closed loop of ops, check each op.

Started by run.py, one process at a time.  Modes:

* ``setup``: import, write configs, one warm-up op; report set-up time.
* ``run``: set up, then time ops until ``--seconds`` of op time have
  passed (and at least MIN_OPS ops ran), checking each op untimed; then
  re-run the first op to check byte determinism and feed a tampered op
  through the same accounting to show the check trips.
* ``trace``: set up, install the tracer, run a fixed number of traced ops
  and report per-layer metrics; the spans go to an .npz file.

The result is one JSON object written to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# At least this many ops per run, so the tail (ten samples beyond it) is
# at p66 or higher; certify-suite ops take ~1 s, so it measures longer
# than --seconds.
MIN_OPS = 30


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--deadline", type=float, required=True, help="time.monotonic() limit")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    return p.parse_args(argv)


class Tally:
    """Attempted and failed ops, and latencies of the ops that passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.op_seconds = 0.0
        self.errors: list[str] = []

    def run(self, wl, slot, out, tracer=None, tamper=False) -> bool:
        """Time one op, then check it; a raise or a failed check is a failed op."""
        self.attempted += 1
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            codes = wl.op(slot, out)
        except Exception:  # a raising op is a failed op; keep measuring
            self.op_seconds += time.perf_counter() - t0
            return self._fail(f"op {slot} raised: {traceback.format_exc(limit=3)}")
        finally:
            if tracer is not None:
                tracer.recording = False
        dt = time.perf_counter() - t0
        self.op_seconds += dt
        try:
            if tamper:
                wl.tamper(slot, out)
            wl.check(slot, out, codes)
        except Exception as exc:  # any check error fails the op
            return self._fail(f"op {slot} check: {type(exc).__name__}: {exc}")
        self.latencies.append(dt)
        return True

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        return False

    def summary(self) -> dict:
        lat = sorted(self.latencies)
        out = {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "op_seconds": self.op_seconds,
            "ok_ops": len(lat),
            "latencies_ms": [x * 1e3 for x in self.latencies],
            "op_p50_ms": statistics.median(lat) * 1e3 if lat else None,
        }
        # Tail: the highest percentile that still has ten samples beyond it.
        if len(lat) >= 11:
            out["op_tail_ms"] = lat[len(lat) - 11] * 1e3
            out["op_tail_percentile"] = 100.0 * (len(lat) - 10) / len(lat)
        return out


def main(argv=None) -> int:
    args = _parse(argv)
    src = args.root / "src"
    sys.path.insert(0, str(src))
    import pointgraphs

    if Path(pointgraphs.__file__).resolve().parent != (src / "pointgraphs").resolve():
        raise SystemExit(f"imported pointgraphs from {pointgraphs.__file__}, not from {src}")
    import numpy

    rss_after_import = _maxrss_mib()
    from workloads import CONFIG_POOL, TRACE_OPS, WARMUP_SEED, WORKLOADS, op_seed

    workdir = args.root / ".perfbench_out" / f"work-{args.workload}-{args.mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir)
    seeds = {i: op_seed(args.seed, args.workload, i) for i in range(CONFIG_POOL)}
    seeds["warmup"] = WARMUP_SEED
    wl.write_configs(seeds)
    tracer = None
    if args.mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install(pointgraphs)
    warm = wl.outputs("warmup")
    warm_codes = wl.op("warmup", warm)
    setup_s = time.monotonic() - args.spawned

    result = {
        "setup_s": setup_s,
        "rss_after_import_mib": rss_after_import,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    try:
        wl.check("warmup", warm, warm_codes)
        result["warmup_ok"] = True
    except Exception as exc:  # reported, and makes the run incorrect
        result["warmup_ok"] = False
        result["warmup_error"] = f"{type(exc).__name__}: {exc}"
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    tally = Tally()
    out = wl.outputs("op")
    if args.mode == "trace":
        for i in range(TRACE_OPS[args.workload]):
            tally.run(wl, i, out, tracer=tracer)
        result["layers"] = tracer.layer_metrics(tally.attempted)
        result["spans"] = tracer.write_spans(args.spans)
        result.update(tally.summary())
        args.result.write_text(json.dumps(result))
        return 0

    first = None
    i = 0
    while tally.op_seconds < args.seconds or tally.attempted < MIN_OPS:
        if time.monotonic() > args.deadline:
            result["deadline_hit"] = True
            break
        tally.run(wl, i % CONFIG_POOL, out)
        if first is None:
            first = wl.read_outputs(out)
        i += 1
    result["peak_rss_mib"] = _maxrss_mib()
    result.update(tally.summary())

    # Determinism: the first op's argv again gives identical bytes.
    repeat = wl.outputs("repeat")
    wl.op(0, repeat)
    result["deterministic"] = wl.read_outputs(repeat) == first
    # The check's own negative check: a tampered op must count as failed.
    negative = Tally()
    negative.run(wl, 0, wl.outputs("tamper"), tamper=True)
    result["negative_check"] = {
        "attempted": negative.attempted,
        "failed": negative.failed,
        "error": negative.errors[:1],
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
