"""Spans around the public functions of each rfsentry module.

The package's modules call each other through module attributes
(``dataset_mod.build_dataset``, ``gbdt.train``, the ``segment_spectrum``
name in ``rfsentry.dataset``), so replacing those attributes with timing
wrappers traces every call without touching the package. Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import dataclass, field

# (module, attribute, span name). A function is wrapped in every module
# namespace it is looked up from; the span name says which layer owns it.
TRACED = (
    ("rfsentry.cli", "main", "cli.main"),
    ("rfsentry.dataset", "load_segment", "dataset.load_segment"),
    ("rfsentry.dataset", "build_dataset", "dataset.build_dataset"),
    ("rfsentry.dataset", "save_features", "dataset.save_features"),
    ("rfsentry.dataset", "load_features", "dataset.load_features"),
    ("rfsentry.dataset", "segment_spectrum", "spectrum.segment_spectrum"),
    ("rfsentry.dataset", "compute_scaling_factor", "spectrum.compute_scaling_factor"),
    ("rfsentry.dataset", "concatenate_bands", "spectrum.concatenate_bands"),
    ("rfsentry.spectrum", "segment_spectrum", "spectrum.segment_spectrum"),
    ("rfsentry.spectrum", "compute_scaling_factor", "spectrum.compute_scaling_factor"),
    ("rfsentry.spectrum", "concatenate_bands", "spectrum.concatenate_bands"),
    ("rfsentry.gbdt", "train", "gbdt.train"),
    ("rfsentry.gbdt", "predict_proba", "gbdt.predict_proba"),
    ("rfsentry.gbdt", "save_model", "gbdt.save_model"),
    ("rfsentry.gbdt", "load_model", "gbdt.load_model"),
    ("rfsentry.evaluation", "cross_validate", "evaluation.cross_validate"),
    ("rfsentry.evaluation", "compare_bands", "evaluation.compare_bands"),
    ("rfsentry.evaluation", "stratified_kfold", "evaluation.stratified_kfold"),
    ("rfsentry.evaluation", "metrics", "evaluation.metrics"),
    ("rfsentry.evaluation", "paired_ttest", "evaluation.paired_ttest"),
)

# Layers with more than one wrapped function; the cli layer's self time is cli.main.self_s.
LAYERS = ("dataset", "spectrum", "gbdt", "evaluation")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


ROOT_SPAN = "cli.main"


class Tracer:
    """Records nested spans under each ``cli.main`` call made while ``armed``.

    Work the benchmark does itself between commands, such as checking
    outputs, is never recorded. The benchmark is single-threaded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.armed = False
        self.request: int | None = None
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        import importlib

        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, original, name):
        signature = inspect.signature(original)
        count = _COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not (self._stack or (self.armed and name == ROOT_SPAN)):
                return original(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.request, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(span, bound.arguments, result)

        return wrapper

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "request": s.request,
                "start": s.start,
                "end": s.end,
                "error": s.error,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


# -- counters taken at the span boundary, outside the timed interval --------


def _count_load_segment(span, args, result):
    path = os.fspath(args["path"])
    span.counts["file"] = path
    span.counts["bytes"] = os.path.getsize(path)


def _count_segment_spectrum(span, args, result):
    n = len(args["samples"])
    frame = args["frame_size"]
    hop = args["hop"] if args["hop"] is not None else frame
    span.counts["frames"] = max(0, (n - frame) // hop + 1)


def _count_train(span, args, result):
    n, d = args["features"].shape
    span.counts["shape"] = [int(n), int(d), int(args["config"].n_classes)]
    if result is not None:
        span.counts["trees"] = len(result.trees)
        span.counts["nodes"] = sum(count_nodes(entry) for entry in result.trees)


def _count_predict(span, args, result):
    features = args["features"]
    span.counts["rows"] = 1 if getattr(features, "ndim", 2) == 1 else len(features)


def _count_model_file(span, args, result):
    path = os.fspath(args["path"])
    if os.path.exists(path):
        span.counts["bytes"] = os.path.getsize(path)


def _count_cli(span, args, result):
    span.counts["failed"] = int(span.error is not None or result != 0)


_COUNTERS = {
    "dataset.load_segment": _count_load_segment,
    "spectrum.segment_spectrum": _count_segment_spectrum,
    "gbdt.train": _count_train,
    "gbdt.predict_proba": _count_predict,
    "gbdt.save_model": _count_model_file,
    "gbdt.load_model": _count_model_file,
    "cli.main": _count_cli,
}


def count_nodes(entry) -> int:
    """Nodes of one forest entry: a (round, class, tree) tuple or a bare tree."""
    tree = entry[-1] if isinstance(entry, tuple) else entry
    if hasattr(tree, "left"):
        total, stack = 0, [tree]
        while stack:
            node = stack.pop()
            total += 1
            if node.left is not None:
                stack.extend((node.left, node.right))
        return total
    return len(tree)


# -- per-layer metrics -------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its direct children cover."""
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in covered:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def layer_metrics(spans: list[Span], n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced operation, and the bases of each ratio."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / n_ops

    def busy_total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def busy(name):
        return busy_total(name) / n_ops

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, ())) / n_ops

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    loads = by_name.get("dataset.load_segment", ())
    load_bytes = total("dataset.load_segment", "bytes")
    load_busy = busy_total("dataset.load_segment")
    distinct_files = len({(s.request, s.counts.get("file")) for s in loads})
    frames = total("spectrum.segment_spectrum", "frames")
    spectrum_busy = busy_total("spectrum.segment_spectrum")
    trees = total("gbdt.train", "trees")
    train_busy = busy_total("gbdt.train")
    predict_rows = total("gbdt.predict_proba", "rows")
    predict_busy = busy_total("gbdt.predict_proba")
    model_bytes = [
        s.counts["bytes"]
        for name in ("gbdt.save_model", "gbdt.load_model")
        for s in by_name.get(name, ())
        if "bytes" in s.counts
    ]
    train_shapes = sorted({tuple(s.counts["shape"]) for s in by_name.get("gbdt.train", ())})

    metrics = {
        "dataset.load_segment.calls": calls("dataset.load_segment"),
        "dataset.load_segment.busy_s": busy("dataset.load_segment"),
        "dataset.load_segment.bytes": load_bytes / n_ops,
        "dataset.parse_mb_per_s": ratio(load_bytes / 1e6, load_busy),
        "dataset.load_segment.per_file": ratio(len(loads), distinct_files),
        "dataset.build_dataset.busy_s": busy("dataset.build_dataset"),
        "dataset.build_dataset.self_s": self_s("dataset.build_dataset"),
        "dataset.save_features.busy_s": busy("dataset.save_features"),
        "dataset.load_features.busy_s": busy("dataset.load_features"),
        "spectrum.segment_spectrum.calls": calls("spectrum.segment_spectrum"),
        "spectrum.segment_spectrum.busy_s": busy("spectrum.segment_spectrum"),
        "spectrum.frames": frames / n_ops,
        "spectrum.frames_per_s": ratio(frames, spectrum_busy),
        "spectrum.compute_scaling_factor.calls": calls("spectrum.compute_scaling_factor"),
        "spectrum.seam_fallbacks": sum(
            1
            for s in by_name.get("spectrum.compute_scaling_factor", ())
            if s.error == "DegenerateSpectrumError"
        )
        / n_ops,
        "spectrum.concatenate_bands.busy_s": busy("spectrum.concatenate_bands"),
        "gbdt.train.calls": calls("gbdt.train"),
        "gbdt.train.busy_s": busy("gbdt.train"),
        "gbdt.trees": trees / n_ops,
        "gbdt.nodes": total("gbdt.train", "nodes") / n_ops,
        "gbdt.ms_per_tree": ratio(1000.0 * train_busy, trees),
        "gbdt.predict_proba.calls": calls("gbdt.predict_proba"),
        "gbdt.predict_proba.busy_s": busy("gbdt.predict_proba"),
        "gbdt.predict_rows_per_s": ratio(predict_rows, predict_busy),
        "gbdt.load_model.busy_s": busy("gbdt.load_model"),
        "gbdt.save_model.busy_s": busy("gbdt.save_model"),
        "gbdt.model_bytes": max(model_bytes, default=0),
        "evaluation.cross_validate.self_s": self_s("evaluation.cross_validate"),
        "evaluation.compare_bands.self_s": self_s("evaluation.compare_bands"),
        "evaluation.stratified_kfold.busy_s": busy("evaluation.stratified_kfold"),
        "evaluation.metrics.calls": calls("evaluation.metrics"),
        "evaluation.paired_ttest.busy_s": busy("evaluation.paired_ttest"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.main.failures": total("cli.main", "failed") / n_ops,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(own[s.id] for s in spans if s.name.split(".")[0] == layer) / n_ops
        )
    bases = {
        "traced_ops": n_ops,
        "dataset.parse_mb_per_s": {"bytes": load_bytes, "busy_s": load_busy},
        "dataset.load_segment.per_file": {"calls": len(loads), "distinct_files": distinct_files},
        "spectrum.frames_per_s": {"frames": frames, "busy_s": spectrum_busy},
        "gbdt.ms_per_tree": {
            "trees": trees,
            "busy_s": train_busy,
            "n_d_k": [list(shape) for shape in train_shapes],
        },
        "gbdt.predict_rows_per_s": {"rows": predict_rows, "busy_s": predict_busy},
    }
    return metrics, bases
