"""Stratified K-fold cross-validation, classification metrics, and the
paired t-test used to compare band variants over shared fold partitions.

Fold membership depends only on (labels, K, seed), so runs that differ
in band mode but share a manifest pair up fold-for-fold; every report
records its partition's fold fingerprint.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dataset as dataset_mod
from . import gbdt
from .errors import (
    ConfigurationError,
    EmptyEvaluationError,
    ShapeError,
)
from .spectrum import BandMode, Extraction

METRIC_NAMES = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


@dataclass(frozen=True)
class FoldAssignment:
    """Row-to-fold map; per class, fold counts differ by at most one."""

    fold_of: np.ndarray
    k: int
    seed: int

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"{self.k}:{self.seed}:".encode())
        digest.update(np.ascontiguousarray(self.fold_of, dtype="<i8").tobytes())
        return digest.hexdigest()


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> FoldAssignment:
    """Shuffle each class with the seeded generator and deal it round-robin.

    The dealing pointer carries over between classes, so overall fold
    sizes differ by at most one too, and with k <= n no fold is empty.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    if k > n:
        raise ConfigurationError(f"k={k} exceeds the {n} available rows")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        rows = rng.permutation(np.flatnonzero(labels == cls))
        fold_of[rows] = (cursor + np.arange(rows.shape[0])) % k
        cursor = (cursor + rows.shape[0]) % k
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Count matrix M[i, j] = number of rows with true class i predicted j."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ShapeError(
            f"label vectors must be 1-D and equal length, got {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size and (
        y_true.min() < 0
        or y_true.max() >= n_classes
        or y_pred.min() < 0
        or y_pred.max() >= n_classes
    ):
        raise ShapeError(f"labels out of range for {n_classes} classes")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def metrics(confusion: np.ndarray) -> dict:
    """Accuracy plus macro-averaged precision, recall and F1, with the confusion
    matrix they came from as nested lists: the per-fold entry of a cv report.

    A class never predicted (zero column) contributes precision 0 to the
    macro mean, and a class never present (zero row) contributes recall
    0; undefined_precision and undefined_recall count how often that happened.
    """
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {confusion.shape}")
    if (confusion < 0).any():
        raise ShapeError("confusion matrix counts must be non-negative")
    total = int(confusion.sum())
    if total == 0:
        raise EmptyEvaluationError("confusion matrix is all zeros")
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col_sums > 0, diag / col_sums, 0.0)
        recall = np.where(row_sums > 0, diag / row_sums, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / pr, 0.0)
    return {
        "accuracy": float(diag.sum() / total),
        "macro_precision": float(precision.mean()),
        "macro_recall": float(recall.mean()),
        "macro_f1": float(f1.mean()),
        "confusion": confusion.tolist(),
        "undefined_precision": int((col_sums == 0).sum()),
        "undefined_recall": int((row_sums == 0).sum()),
    }


def config_fingerprint(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _fold_confusion(
    features: np.ndarray,
    labels: np.ndarray,
    fold_of: np.ndarray,
    config: gbdt.TrainConfig,
    presort: gbdt.Presort,
    fold: int,
) -> np.ndarray:
    in_train = fold_of != fold
    train_rows = np.flatnonzero(in_train)
    test_rows = np.flatnonzero(~in_train)
    model = gbdt.train(features[train_rows], labels[train_rows], config, presort.subset(in_train))
    predicted = gbdt.predict(model, features[test_rows])
    return confusion_matrix(labels[test_rows], predicted, config.n_classes)


def _check_n_classes(train_config: gbdt.TrainConfig, case: "dataset_mod.Case") -> None:
    if train_config.n_classes != case.n_classes:
        raise ConfigurationError(
            f"train config declares {train_config.n_classes} classes but "
            f"case {case.value} has {case.n_classes}"
        )


def cross_validate(
    dataset: "dataset_mod.LabeledDataset",
    train_config: gbdt.TrainConfig,
    k: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> dict:
    """Train K times, each fold held out once; folds are fixed by seed.

    Returns the report `rfsentry cv` writes, less its case, band_mode and
    extraction keys. The features are sorted once, and each fold's fit
    filters that presort. The fits in this process scan in one workspace,
    one after another; a pool's workers each make their own per fit.
    """
    _check_n_classes(train_config, dataset.case)
    folds = stratified_kfold(dataset.labels, k, seed)
    presort = gbdt.Presort.of(dataset.features).with_workspace()
    fit = functools.partial(
        _fold_confusion, dataset.features, dataset.labels, folds.fold_of, train_config, presort
    )
    per_fold = [metrics(c) for c in dataset_mod.pool_map(fit, jobs, k, range(k))]
    scores = {name: np.array([m[name] for m in per_fold]) for name in METRIC_NAMES}
    config = {"train": dataclasses.asdict(train_config), "k_folds": k, "seed_data": seed}
    return {
        "k_folds": k,
        "seed_data": seed,
        "per_fold": per_fold,
        "mean": {name: float(s.mean()) for name, s in scores.items()},
        "std": {name: float(s.std(ddof=1)) for name, s in scores.items()},
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "fold_fingerprint": folds.fingerprint,
    }


# ---------------------------------------------------------------------------
# Student-t critical values from the finite series for integer df.
# ---------------------------------------------------------------------------


def _check_dof(df) -> None:
    if not isinstance(df, (int, np.integer)) or isinstance(df, bool) or df < 1:
        raise ConfigurationError(f"degrees of freedom must be an integer >= 1, got {df!r}")


def student_t_cdf(t: float, df: int) -> float:
    """CDF of the Student-t distribution with integer df >= 1.

    A = P(|T| <= |t|) is a finite series in theta = atan(|t| / sqrt(df))
    (Abramowitz & Stegun 26.7.3-4): sin(theta) times a sum of powers of
    cos(theta), plus theta and a factor 2 / pi for odd df.
    """
    _check_dof(df)
    theta = math.atan(abs(t) / math.sqrt(df))
    cos, odd = math.cos(theta), df % 2
    term = cos if odd else 1.0
    series = 0.0
    for j in range(odd + 2, df + 1, 2):
        series += term
        term *= (j - 1) / j * cos * cos
    tail = math.sin(theta) * series
    a = (theta + tail) * 2.0 / math.pi if odd else tail
    return 0.5 + math.copysign(0.5 * a, t)


def t_critical(prob: float, df: int) -> float:
    """Quantile of the Student-t distribution (inverse CDF) by bisection.

    The bisection stops when the midpoint rounds to an end of the
    interval; no later step could move either end.
    """
    if not (0.0 < prob < 1.0):
        raise ConfigurationError(f"quantile probability must be in (0, 1), got {prob}")
    _check_dof(df)
    if prob == 0.5:
        return 0.0
    target = prob if prob > 0.5 else 1.0 - prob
    lo, hi = 0.0, 1.0
    while hi <= 1e300 and student_t_cdf(hi, df) < target:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if student_t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid if prob > 0.5 else -mid


@dataclass(frozen=True)
class TTestResult:
    """Two-sided paired t-test on per-fold score differences a - b."""

    mean_diff: float
    t_stat: float
    dof: int
    ci_low: float
    ci_high: float
    alpha: float
    rejected: bool
    degenerate: bool = False


def paired_ttest(
    scores_a: np.ndarray, scores_b: np.ndarray, alpha: float = 0.05
) -> TTestResult:
    """Test the null that the mean per-fold difference is zero.

    The pairs must come from identical fold partitions, as they do when
    the runs share labels, K and seed. A zero-spread difference vector is
    reported as degenerate: t = 0 and no rejection when the mean is also
    zero, otherwise an infinite t with a point confidence interval.
    A NaN or infinite score is a ShapeError.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"score vectors must be 1-D and equal length, got {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ShapeError("score vectors must be finite")
    k = a.shape[0]
    if k < 2:
        raise ConfigurationError(f"paired t-test needs at least 2 pairs, got {k}")
    if not (0.0 < alpha < 1.0):
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    diff = a - b
    mean_diff = float(diff.mean())
    s_d = float(diff.std(ddof=1))
    dof = k - 1
    if s_d == 0.0:
        if mean_diff == 0.0:
            return TTestResult(0.0, 0.0, dof, 0.0, 0.0, alpha, False, degenerate=True)
        t_stat = math.inf if mean_diff > 0 else -math.inf
        return TTestResult(
            mean_diff, t_stat, dof, mean_diff, mean_diff, alpha, True, degenerate=True
        )
    se = s_d / math.sqrt(k)
    t_stat = mean_diff / se
    half_width = t_critical(1.0 - alpha / 2.0, dof) * se
    ci_low = mean_diff - half_width
    ci_high = mean_diff + half_width
    rejected = not (ci_low <= 0.0 <= ci_high)
    return TTestResult(mean_diff, t_stat, dof, ci_low, ci_high, alpha, rejected)


def compare_bands(
    manifest: "dataset_mod.Manifest",
    case: "dataset_mod.Case",
    train_config: gbdt.TrainConfig,
    k: int = 10,
    seed: int = 0,
    alpha: float = 0.05,
    extraction: Extraction = Extraction(),
    jobs: int = 1,
) -> dict:
    """Run lower-only, upper-only and concatenated CV plus the two t-tests.

    Returns the report `rfsentry compare` writes, less its extraction key:
    the three cross_validate reports under "bands", keyed by band-mode
    value, and the t-tests on their per-fold accuracies. The three layouts
    come from one extraction pass, so each band file is parsed once. All
    three runs share one fold partition (same labels, K and seed), which
    the paired t-tests require. The class count, k, alpha and seed are
    checked before any band file is read.
    """
    if not (0.0 < alpha < 1.0 and 2 <= k <= len(manifest.entries)):
        raise ConfigurationError(
            f"need alpha in (0, 1) and k in [2, {len(manifest.entries)}], got {alpha} and {k}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    _check_n_classes(train_config, case)
    datasets = dataset_mod.build_datasets(
        manifest,
        (BandMode.LOWER_ONLY, BandMode.UPPER_ONLY, BandMode.CONCATENATED),
        case,
        extraction,
        jobs=jobs,
    )
    bands = {
        mode.value: cross_validate(ds, train_config, k=k, seed=seed, jobs=jobs)
        for mode, ds in datasets.items()
    }
    acc = {band: [m["accuracy"] for m in rep["per_fold"]] for band, rep in bands.items()}
    return {
        "case": case.value,
        "bands": bands,
        "ttests": {
            name: dataclasses.asdict(paired_ttest(acc["lower"], acc[other], alpha))
            for name, other in (("lb_vs_ub", "upper"), ("lb_vs_both", "both"))
        },
        "alpha": alpha,
        "config_fingerprint": bands["lower"]["config_fingerprint"],
        "fold_fingerprint": bands["lower"]["fold_fingerprint"],
    }
