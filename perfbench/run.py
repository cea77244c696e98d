"""Seeded benchmark of the rfsentry CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it uses the
package sources under ``src/`` of that checkout. It sets the workload
up several times (timed, for ``setup_s``), then runs the timed loop in a
fresh process for ``--seconds`` and checks every output against an
oracle. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in ``BENCHMARK.json``, or with ``--trace 1`` the per-layer
ones. Spans of a traced run go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within this many seconds, the timed child included.
RUN_LIMIT_S = 170.0


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(workloads.SCALES), default="full",
        help="input sizes; 'tiny' exists for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def end_to_end(setup_s, result, state) -> dict:
    """End-to-end metrics; times are at the speed probe's nominal host speed."""
    wall = statistics.median(result["scaled_walls"])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "samples_per_s": state["samples_per_op"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def context(args, state, result, setup_times) -> dict:
    import numpy
    from rfsentry import gbdt

    walls = sorted(result["scaled_walls"])
    p99 = min(len(walls) - 1, int(0.99 * len(walls)))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "jobs": 1,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "use_numba": getattr(gbdt, "USE_NUMBA", None),
        "rows": state["rows"],
        "segments": state["segments"],
        "requests": len(state.get("pairs", ())),
        "samples_per_op": state["samples_per_op"],
        "setups": len(setup_times),
        "raw_setup_times_s": setup_times,
        "timed_ops": len(walls),
        "traced_ops": len(result["traced_walls"]),
        "wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "wall_p99_s": walls[p99],
        "samples_beyond_p99": len(walls) - 1 - p99,
        "ops_per_s": len(walls) / sum(walls),
        "raw_wall_median_s": statistics.median(result["walls"]),
        "accuracy": result["accuracy"],
        "error_rate": result["failed"] / result["attempted"],
        "failure_notes": result["notes"],
    }


def run(args) -> dict:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](workloads.SCALES[args.scale])
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    probe = speed.SpeedProbe()
    probe.run(speed.START_REPS)
    try:
        setups = []  # (start, seconds) of each set-up
        for i in range(workload.scale.setups):
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            t0 = time.perf_counter()
            state = workload.setup(work / f"setup{i}", args.seed)
            setups.append((t0, time.perf_counter() - t0))
            probe.keep_up(sum(seconds for _, seconds in setups))
        setup_s = statistics.median(probe.scaled(t0, seconds) for t0, seconds in setups)
        setup_times = [seconds for _, seconds in setups]
        job = {
            "src": str(ROOT / "src"),
            "workload": args.workload,
            "scale": args.scale,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "state": state,
            "spans": str(out_dir / f"spans-{args.workload}-seed{args.seed}.json"),
        }
        (work / "job.json").write_text(json.dumps(job))
        subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(work / "job.json"), str(work / "result.json")],
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
        )
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        wanted, values = spec["per_layer"], result["per_layer"]
    else:
        wanted, values = spec["end_to_end"], end_to_end(setup_s, result, state)
    ctx = context(args, state, result, setup_times)
    if args.trace:
        ctx["ratio_bases"] = result["bases"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "context": ctx,
        "result": {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    src = ROOT / "src" / "rfsentry" / "__init__.py"
    if not src.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no rfsentry sources at {src} (run inside a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    report = run(args)
    ctx, result = report["context"], report["result"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['failed']} of {result['attempted']} commands failed")
    for note in ctx["failure_notes"]:
        print(f"  failure: {note}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print("context " + json.dumps(ctx, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
