"""The four workloads: seeded inputs, the CLI commands one operation runs,
and the oracles its outputs are checked against.

Each workload is a closed loop with one caller, driven through the
public CLI (``rfsentry.cli.main`` in-process, ``--jobs 1``). Inputs are
synthesized in set-up; the program only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FRAME_SIZE = 2048
SEAM_BINS = 8
K_FOLDS = 10
DESK_LENGTH = 8192
# Two-sided 5% critical value of Student's t with K_FOLDS - 1 = 9 degrees of freedom.
T_CRIT_DOF9 = 2.2621571627409915
HELDOUT_INDEX = 1 << 20  # held-out detect segments never collide with corpus indices
LONG_PAIRS = 1
# Accuracy floors for the small desk corpus. Case 3 has ten classes (chance 0.1);
# the lowest mean CV accuracy seen over seeds 0-29 was 0.28. In case 1 always
# answering "drone" scores 0.9, and one wrong segment out of 60 gives 0.983.
CASE3_FLOOR = 0.2
CASE1_FLOOR = 0.95


@dataclass(frozen=True)
class Scale:
    n_per_class: int  # desk corpus segments per 10-way class
    cv_rounds: int
    detect_rounds: int
    long_length: int
    heldout_per_class: int
    setups: int


SCALES = {
    "full": Scale(
        n_per_class=6,
        cv_rounds=3,
        detect_rounds=12,
        long_length=1 << 20,
        heldout_per_class=2,
        setups=3,
    ),
    # Small enough for the benchmark's own tests; the checks stay the same.
    "tiny": Scale(
        n_per_class=6,
        cv_rounds=1,
        detect_rounds=2,
        long_length=1 << 14,
        heldout_per_class=1,
        setups=2,
    ),
}


@dataclass
class Command:
    """One CLI command or detect request, as the loop saw it."""

    wall_s: float
    ok: bool
    note: str = ""


def run_cli(argv: list[str]) -> tuple[float, int | None, str]:
    """Call ``rfsentry.cli.main`` in-process; returns (wall, exit code, stdout)."""
    from rfsentry import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed command, not a crashed run
        wall = time.perf_counter() - start
        return wall, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def run_command(argv: list[str]) -> tuple[Command, str]:
    """Run one timed CLI command; returns it and its standard output."""
    wall, code, out = run_cli(argv)
    return Command(wall, code == 0, "" if code == 0 else f"exit code {code}: {out}"), out


def run_setup_cli(argv: list[str]) -> str:
    _, code, out = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} failed with exit code {code}: {out}")
    return out


def write_segment(path: Path, samples: np.ndarray) -> None:
    """A band file in the documented text format: comma-separated samples."""
    path.write_text(",".join(map(repr, samples.tolist())) + "\n")


def write_manifest(path: Path, entries: list[tuple[str, str, int]]) -> None:
    payload = {
        "source": "Synthetic",
        "entries": [{"lb_path": lb, "ub_path": ub, "label": label} for lb, ub, label in entries],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def manifest_labels(path: Path) -> np.ndarray:
    return np.array([e["label"] for e in json.loads(path.read_text())["entries"]])


def fold_fingerprint(labels: np.ndarray, k: int, seed: int) -> str:
    """Oracle for the fold assignment: each class shuffled, dealt round-robin."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        rows = rng.permutation(np.flatnonzero(labels == cls))
        fold_of[rows] = (cursor + np.arange(rows.shape[0])) % k
        cursor = (cursor + rows.shape[0]) % k
    digest = hashlib.sha256(f"{k}:{seed}:".encode())
    digest.update(fold_of.astype("<i8").tobytes())
    return digest.hexdigest()


def ttest_rejects(a: list[float], b: list[float]) -> bool:
    """Oracle for the two-sided paired t-test verdict at alpha 0.05, K = 10."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return bool(diff.mean() != 0.0)
    return bool(abs(diff.mean() / (sd / np.sqrt(diff.shape[0]))) > T_CRIT_DOF9)


def band_spectrum(samples: np.ndarray) -> np.ndarray:
    """Oracle spectrum: mean one-sided |np.fft| over non-overlapping frames."""
    count = samples.shape[0] // FRAME_SIZE
    frames = samples[: count * FRAME_SIZE].reshape(count, FRAME_SIZE)
    return np.abs(np.fft.fft(frames, axis=1)[:, : FRAME_SIZE // 2]).mean(axis=0)


class Workload:
    name = ""
    warmup_ops = 1
    probe_kind = "interpreted"  # the speed.py kernel whose slowdowns track the operation's

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def setup(self, workdir: Path, seed: int) -> dict:
        """Write the inputs; returns the JSON-able state the operations need."""
        raise NotImplementedError

    def operation(self, state: dict, index: int) -> tuple[list[Command], float | None]:
        """Run one operation; returns its commands and its accuracy, if any."""
        raise NotImplementedError

    def _desk_corpus(self, workdir: Path, seed: int) -> Path:
        from rfsentry.dataset import write_synthetic_corpus

        corpus = workdir / "corpus"
        write_synthetic_corpus(corpus, n_per_class=self.scale.n_per_class, seed=seed)
        return corpus / "manifest.json"


def _train_flags(rounds: int) -> list[str]:
    return ["--rounds", str(rounds), "--max-depth", "4"]


class DeskCv(Workload):
    name = "desk-cv"
    probe_kind = "numeric"

    def setup(self, workdir, seed):
        manifest = self._desk_corpus(workdir, seed)
        labels = manifest_labels(manifest)
        return {
            "manifest": str(manifest),
            "features": str(workdir / "lower-case3.rfds"),
            "report": str(workdir / "cv-case3.json"),
            "seed": seed,
            "fold_fingerprint": fold_fingerprint(labels, K_FOLDS, seed),
            "rows": int(labels.shape[0]),
            "segments": int(labels.shape[0]),
            "samples_per_op": int(labels.shape[0]) * DESK_LENGTH,
        }

    def operation(self, state, index):
        features, _ = run_command(
            ["features", "--manifest", state["manifest"], "--band", "lower", "--case", "3",
             "--jobs", "1", "--out", state["features"]]
        )
        cv, _ = run_command(
            ["cv", "--features", state["features"], "--case", "3",
             *_train_flags(self.scale.cv_rounds), "--k-folds", str(K_FOLDS),
             "--seed-data", str(state["seed"]), "--jobs", "1", "--out", state["report"]]
        )
        accuracy = None
        if cv.ok:
            report = json.loads(Path(state["report"]).read_text())
            accuracy = report["mean"]["accuracy"]
            if report["fold_fingerprint"] != state["fold_fingerprint"]:
                cv.ok, cv.note = False, "fold fingerprint differs from the oracle"
            elif not accuracy >= CASE3_FLOOR:
                cv.ok, cv.note = False, f"case-3 accuracy {accuracy} below {CASE3_FLOOR}"
        return [features, cv], accuracy


class Compare(Workload):
    name = "compare"

    def setup(self, workdir, seed):
        manifest = self._desk_corpus(workdir, seed)
        labels = manifest_labels(manifest)
        case1 = (labels > 0).astype(np.int64)
        return {
            "manifest": str(manifest),
            "report": str(workdir / "compare-case1.json"),
            "seed": seed,
            "fold_fingerprint": fold_fingerprint(case1, K_FOLDS, seed),
            "rows": int(labels.shape[0]),
            "segments": int(labels.shape[0]),
            # lower, upper and both-band builds read 1 + 1 + 2 band files per segment
            "samples_per_op": 4 * int(labels.shape[0]) * DESK_LENGTH,
        }

    def operation(self, state, index):
        command, _ = run_command(
            ["compare", "--manifest", state["manifest"], "--case", "1",
             *_train_flags(self.scale.cv_rounds), "--k-folds", str(K_FOLDS),
             "--seed-data", str(state["seed"]), "--jobs", "1", "--out", state["report"]]
        )
        if not command.ok:
            return [command], None
        report = json.loads(Path(state["report"]).read_text())
        bands = report["bands"]
        folds = {name: [f["accuracy"] for f in band["per_fold"]] for name, band in bands.items()}
        problems = [
            f"{name} accuracy {band['mean']['accuracy']} below {CASE1_FLOOR}"
            for name, band in bands.items()
            if not band["mean"]["accuracy"] >= CASE1_FLOOR
        ]
        if report["fold_fingerprint"] != state["fold_fingerprint"]:
            problems.append("fold fingerprint differs from the oracle")
        for test, (a, b) in {"lb_vs_ub": ("lower", "upper"), "lb_vs_both": ("lower", "both")}.items():
            if report["ttests"][test]["rejected"] != ttest_rejects(folds[a], folds[b]):
                problems.append(f"{test} verdict differs from the oracle")
        if problems:
            command.ok, command.note = False, "; ".join(problems)
        return [command], bands["lower"]["mean"]["accuracy"]


class LongExtract(Workload):
    name = "long-extract"

    def setup(self, workdir, seed):
        from rfsentry.dataset import synth_segment

        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        entries, expected = [], []
        for index in range(LONG_PAIRS):
            class_id = int(rng.integers(0, 10))
            lb, ub = synth_segment(class_id, seed, length=self.scale.long_length, index=index)
            names = (f"long{index}_lb.csv", f"long{index}_ub.csv")
            write_segment(workdir / names[0], lb.samples)
            write_segment(workdir / names[1], ub.samples)
            entries.append((*names, class_id))
            lb_bins, ub_bins = band_spectrum(lb.samples), band_spectrum(ub.samples)
            scale = lb_bins[-SEAM_BINS:].mean() / ub_bins[:SEAM_BINS].mean()
            expected.append(np.concatenate((lb_bins, scale * ub_bins)))
        write_manifest(workdir / "manifest.json", entries)
        np.save(workdir / "expected.npy", np.array(expected))
        return {
            "manifest": str(workdir / "manifest.json"),
            "features": str(workdir / "both-case3.rfds"),
            "expected": str(workdir / "expected.npy"),
            "rows": len(entries),
            "segments": len(entries),
            "samples_per_op": 2 * len(entries) * self.scale.long_length,
        }

    def operation(self, state, index):
        from rfsentry import dataset

        command, _ = run_command(
            ["features", "--manifest", state["manifest"], "--band", "both", "--case", "3",
             "--jobs", "1", "--out", state["features"]]
        )
        if command.ok:
            command.note = check_spectra(
                dataset.load_features(state["features"]).features, np.load(state["expected"])
            )
            command.ok = not command.note
        return [command], None


def check_spectra(rows: np.ndarray, expected: np.ndarray) -> str:
    """Rows within 1e-9 relative of the oracle, and a continuous seam."""
    if rows.shape != expected.shape:
        return f"feature shape {rows.shape} differs from the oracle's {expected.shape}"
    if not np.all(np.abs(rows - expected) <= 1e-9 * np.abs(expected)):
        return "feature rows differ from the np.fft oracle by more than 1e-9"
    half = rows.shape[1] // 2
    tail = rows[:, half - SEAM_BINS : half].mean(axis=1)
    head = rows[:, half : half + SEAM_BINS].mean(axis=1)
    if not np.all(np.abs(tail - head) <= 1e-9 * tail):
        return "band seam is not continuous within 1e-9"
    return ""


_ROW_RE = re.compile(r"^row 0: .* \(class (\d+)\)", re.MULTILINE)


class Detect(Workload):
    name = "detect"
    warmup_ops = 20

    def setup(self, workdir, seed):
        from rfsentry.dataset import synth_segment

        train_manifest = self._desk_corpus(workdir, seed)
        train_features = workdir / "train-both-case3.rfds"
        model = workdir / "model.rfgb"
        run_setup_cli(
            ["features", "--manifest", str(train_manifest), "--band", "both", "--case", "3",
             "--jobs", "1", "--out", str(train_features)]
        )
        run_setup_cli(
            ["train", "--features", str(train_features), "--case", "3",
             *_train_flags(self.scale.detect_rounds), "--out", str(model)]
        )
        heldout = workdir / "heldout"
        heldout.mkdir()
        entries = []
        for class_id in range(10):
            for j in range(self.scale.heldout_per_class):
                lb, ub = synth_segment(class_id, seed, length=DESK_LENGTH, index=HELDOUT_INDEX + j)
                names = (f"{class_id:02d}_{j:03d}_lb.csv", f"{class_id:02d}_{j:03d}_ub.csv")
                write_segment(heldout / names[0], lb.samples)
                write_segment(heldout / names[1], ub.samples)
                entries.append((*names, class_id))
        write_manifest(heldout / "manifest.json", entries)
        heldout_features = workdir / "heldout-both-case3.rfds"
        batch = workdir / "batch.json"
        run_setup_cli(
            ["features", "--manifest", str(heldout / "manifest.json"), "--band", "both",
             "--case", "3", "--jobs", "1", "--out", str(heldout_features)]
        )
        run_setup_cli(
            ["predict", "--model", str(model), "--features", str(heldout_features),
             "--out", str(batch)]
        )
        batch_labels = json.loads(batch.read_text())["labels"]
        train_rows = len(manifest_labels(train_manifest))
        return {
            "model": str(model),
            "pairs": [
                [str(heldout / lb), str(heldout / ub), label, int(batch_labels[i])]
                for i, (lb, ub, label) in enumerate(entries)
            ],
            "rows": train_rows,
            "segments": train_rows + len(entries),
            "samples_per_op": 2 * DESK_LENGTH,
        }

    def operation(self, state, index):
        lb, ub, true_label, batch_label = state["pairs"][index % len(state["pairs"])]
        command, out = run_command(
            ["predict", "--model", state["model"], "--lb", lb, "--ub", ub, "--band", "both"]
        )
        if not command.ok:
            return [command], None
        match = _ROW_RE.search(out)
        label = int(match.group(1)) if match else None
        if label != batch_label:
            command.ok = False
            command.note = f"request label {label} differs from batch label {batch_label}"
        return [command], float(label == true_label)


WORKLOADS = {w.name: w for w in (DeskCv, Compare, LongExtract, Detect)}
