"""The timed part of one benchmark run.

It runs in a process of its own, started by ``run.py`` after set-up, so
that the peak RSS it reports belongs to the timed part alone.

    python3 perfbench/measure.py STATE_JSON RESULT_JSON
"""

from __future__ import annotations

import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

MIN_OPS = 3
# However slow the program gets, stop starting operations past this many windows.
HARD_STOP_WINDOWS = 4
MAX_NOTES = 5


def measure(workload, state: dict, seconds: float, trace: bool) -> tuple[dict, list]:
    """Closed loop with one caller: warm up, then run operations for ``seconds``.

    With ``trace``, every other operation runs traced, so the untraced
    ones give the baseline that the tracing overhead is measured against.
    The speed probe runs between operations, a tenth of the loop's time.
    Returns the loop's result and the recorded spans.
    """
    probe = speed.SpeedProbe(workload.probe_kind)
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    tally = {"attempted": 0, "failed": 0, "notes": []}
    accuracies: list[float] = []

    def run_op(index: int, traced: bool) -> tuple[float, float]:
        """Returns the operation's start and the time its commands took."""
        tracer.armed, tracer.request = traced, index if traced else None
        start = time.perf_counter()
        try:
            commands, accuracy = workload.operation(state, index)
        finally:
            tracer.armed = False
        for command in commands:
            tally["attempted"] += 1
            if not command.ok:
                tally["failed"] += 1
                if len(tally["notes"]) < MAX_NOTES:
                    tally["notes"].append(f"op {index}: {command.note}")
        if accuracy is not None:
            accuracies.append(accuracy)
        return start, sum(c.wall_s for c in commands)

    # Operations by whether they ran traced: (start, wall) pairs.
    ops: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    try:
        index = 0
        for index in range(workload.warmup_ops):
            run_op(index, traced=False)
        probe.run(speed.START_REPS)
        busy = 0.0
        loop_start = time.perf_counter()
        while True:
            done = [wall for _, wall in ops[False] + ops[True]]
            elapsed = time.perf_counter() - loop_start
            if ops[False] and (ops[True] or not trace) and (
                elapsed > HARD_STOP_WINDOWS * seconds
                or (len(done) >= MIN_OPS and elapsed + statistics.median(done) > seconds)
            ):
                break
            index += 1
            traced = trace and len(done) % 2 == 1
            ops[traced].append(run_op(index, traced))
            busy += ops[traced][-1][1]
            probe.keep_up(busy)
    finally:
        tracer.uninstall()

    walls = {kind: [wall for _, wall in pairs] for kind, pairs in ops.items()}
    result = {
        "walls": walls[False],
        "scaled_walls": [probe.scaled(start, wall) for start, wall in ops[False]],
        "traced_walls": walls[True],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "notes": tally["notes"],
        "accuracy": statistics.fmean(accuracies) if accuracies else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        spans = tracer.spans
        per_layer, bases = tracing.layer_metrics(spans, len(walls[True]))
        # Means, like the per-layer values, so that the layers' self times
        # plus the unaccounted time add up to trace.wall_s.
        traced_wall = statistics.fmean(walls[True])
        roots = sum(s.duration for s in spans if s.parent is None) / len(walls[True])
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - statistics.fmean(walls[False])
        per_layer["trace.unaccounted_s"] = traced_wall - roots
        result["per_layer"] = per_layer
        result["bases"] = bases
    return result, tracer.to_json()


def main(argv: list[str]) -> int:
    state_path, result_path = map(Path, argv)
    spec = json.loads(state_path.read_text())
    sys.path.insert(0, spec["src"])
    # The CLI logs warnings (e.g. undefined macro precision on small folds) to
    # stderr; a handler on the root logger keeps them out of the benchmark output.
    logging.getLogger().addHandler(logging.NullHandler())
    workload = workloads.WORKLOADS[spec["workload"]](workloads.SCALES[spec["scale"]])
    result, spans = measure(workload, spec["state"], spec["seconds"], spec["trace"])
    if spec["trace"]:
        Path(spec["spans"]).write_text(json.dumps(spans) + "\n")
    result_path.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
