"""Benchmark of the pointgraphs package: one workload per invocation.

    python3 perfbench/run.py --workload dense-graphon --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built.  Workload processes run one at a
time, single-threaded (OMP/OpenBLAS/MKL pinned to one thread), each a
fresh interpreter started by this script:

* ``--trace 0``: two set-up-only processes and one measuring process.
  Prints the end-to-end metrics; ``setup_s`` is the median of the three
  set-up times.
* ``--trace 1``: one untraced process for half of ``--seconds``, then one
  traced process for a fixed number of ops.  Prints the per-layer metrics
  and the tracing overhead.

The line before the last holds the details (environment, ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms`` with its percentile, op count, RSS after import, fail
ratio, determinism and the check's negative check); the last line is the
result object.  Spans and
details are kept under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# The whole invocation must end well within 180 s.
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one workload process to completion and return its result."""
    tag = f"{args.workload}-seed{args.seed}-{mode}"
    result_path = OUT / f"worker-{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        raise BenchError("time budget exhausted before all workload processes ran")
    cmd = [
        sys.executable, "-s", str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", repr(seconds),
        "--deadline", repr(deadline - 10), "--result", str(result_path),
        "--spans", str(OUT / f"spans-{args.workload}.npz"),
        "--spawned", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def _end_to_end(setups: list, run: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": run["peak_rss_mib"],
        "ok_ratio": run["ok_ops"] / run["attempted"],
    }


def _correct(run: dict) -> bool:
    neg = run["negative_check"]
    return (
        run["warmup_ok"]
        and run["failed"] == 0
        and run["deterministic"]
        and not run.get("deadline_hit", False)
        and neg["attempted"] == 1
        and neg["failed"] == 1
    )


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "pointgraphs" / "__init__.py").is_file():
        raise BenchError(f"no pointgraphs source under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                **{var: "1" for var in THREAD_VARS}},
    }
    try:
        if args.trace == 0:
            setups = [_spawn(args, "setup", 0.0, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            run = _spawn(args, "run", args.seconds, deadline)
            setups.append(run["setup_s"])
            metrics = _end_to_end(setups, run)
            wanted = spec["end_to_end"]
            details.update(
                setup_samples_s=setups,
                ops_per_s=run["ok_ops"] / run["op_seconds"],
                op_p50_ms=run["op_p50_ms"],
                op_tail_ms=run.get("op_tail_ms"),
                op_tail_percentile=run.get("op_tail_percentile"),
                fail_ratio=run["failed"] / run["attempted"],
            )
        else:
            run = _spawn(args, "run", args.seconds / 2, deadline)
            traced = _spawn(args, "trace", 0.0, deadline)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = traced["op_p50_ms"] / run["op_p50_ms"]
            wanted = spec["per_layer"]
            details["traced_ops"] = traced["attempted"]
            details["traced_failed"] = traced["failed"]
            details["traced_op_p50_ms"] = traced["op_p50_ms"]
            details["untraced_op_p50_ms"] = run["op_p50_ms"]
            details["spans"] = traced["spans"]
            run["failed"] += traced["failed"]
            run["attempted"] += traced["attempted"]
            run["warmup_ok"] = run["warmup_ok"] and traced["warmup_ok"]
    finally:
        for workdir in OUT.glob(f"work-{args.workload}-*"):
            shutil.rmtree(workdir, ignore_errors=True)
    details["env"].update(python=run["python"], numpy=run["numpy"])
    details.update(
        ops=run["attempted"],
        ok_ops=run["ok_ops"],
        rss_after_import_mib=run["rss_after_import_mib"],
        deterministic=run["deterministic"],
        negative_check=run["negative_check"],
        errors=run["errors"],
    )
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": _correct(run),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(1)
