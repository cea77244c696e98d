"""Acceptance suite: every release gate runs here at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. The end-to-end runs (criteria 7 and 8) drive the real
CLI against a generated corpus and stay inside a ten-minute budget.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from rfsentry.cli import main
from rfsentry.dataset import synth_segment
from rfsentry.evaluation import paired_ttest, stratified_kfold
from rfsentry.gbdt import TrainConfig, leaf_weight, softmax_grad_hess, train
from rfsentry.spectrum import (
    Band,
    compute_scaling_factor,
    concatenate_bands,
    dft,
    segment_spectrum,
)

E2E_SEED_DATA = 202406
E2E_SEED_FOLDS = 1
E2E_N_PER_CLASS = 40
E2E_SEGMENT_LENGTH = 8192
E2E_TRAIN_FLAGS = ["--rounds", "12", "--max-depth", "4"]
E2E_ACCURACY_FLOOR = {1: 0.99, 2: 0.90, 3: 0.70}
E2E_BUDGET_SECONDS = 600.0


def ok(message):
    print(f"PASS  {message}")


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_fft_matches_naive_sum_and_parseval():
    for n in (8, 64, 256, 2048):
        k = np.arange(n)
        dft_matrix = np.exp(-2j * np.pi * np.outer(k, k) / n)
        for trial in range(20):
            rng = np.random.default_rng(1000 * n + trial)
            x = rng.uniform(-1.0, 1.0, n)
            fast = dft(x)
            naive = dft_matrix @ x
            rel = np.abs(fast - naive) / np.abs(naive)
            assert rel.max() <= 1e-9, f"N={n} trial={trial}: rel err {rel.max():.2e}"
            time_energy = np.sum(x * x)
            freq_energy = np.sum(np.abs(fast) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-9 * time_energy
    ok("criterion 1: FFT equals the naive transform sum and satisfies Parseval (1e-9)")


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_feature_dimensions_and_seam_continuity():
    lb_record, ub_record = synth_segment(3, 8, length=4096, index=0)
    lb = segment_spectrum(lb_record.samples, Band.LOWER, frame_size=2048)
    ub = segment_spectrum(ub_record.samples, Band.UPPER, frame_size=2048)
    assert len(lb.bins) == 1024
    assert len(ub.bins) == 1024
    for q in (4, 8, 16):
        scale = compute_scaling_factor(lb, ub, q=q)
        row = concatenate_bands(lb, ub, scale)
        assert len(row) == 2048
        lb_tail = row[1024 - q : 1024].mean()
        ub_head = row[1024 : 1024 + q].mean()
        assert abs(lb_tail - ub_head) <= 1e-9 * lb_tail
    ok("criterion 2: 1024/1024/2048 feature dimensions and seam continuity (1e-9)")


# -- criterion 3 -----------------------------------------------------------


def _finite_diff(logits, true_class, eps=1e-4):
    def loss(z):
        shifted = z - z.max()
        return math.log(np.exp(shifted).sum()) - shifted[true_class]

    k = len(logits)
    g = np.empty(k)
    h = np.empty(k)
    for c in range(k):
        up, down = logits.copy(), logits.copy()
        up[c] += eps
        down[c] -= eps
        g[c] = (loss(up) - loss(down)) / (2 * eps)
        h[c] = (loss(up) - 2 * loss(logits) + loss(down)) / (eps * eps)
    return g, h


def _exhaustive_stump(x, g, h, lam):
    order = np.argsort(x, kind="stable")
    xs, gs, hs = x[order], g[order], h[order]
    best = None
    for i in range(len(xs) - 1):
        if not xs[i] < xs[i + 1]:
            continue
        thr = 0.5 * (xs[i] + xs[i + 1])
        if not thr > xs[i]:
            continue
        gl, hl = gs[: i + 1].sum(), hs[: i + 1].sum()
        gr, hr = gs[i + 1 :].sum(), hs[i + 1 :].sum()
        gain = 0.5 * (
            gl * gl / (hl + lam) + gr * gr / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam)
        )
        if best is None or gain > best[0]:
            best = (gain, thr, -gl / (hl + lam), -gr / (hr + lam))
    return best


def test_criterion_3_gbdt_numeric_core():
    rng = np.random.default_rng(300)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        logits = rng.normal(scale=2.0, size=k)
        true_class = int(rng.integers(0, k))
        g, h = softmax_grad_hess(logits[None, :], [true_class])
        fd_g, fd_h = _finite_diff(logits, true_class)
        assert np.abs(g[0] - fd_g).max() <= 1e-6
        assert np.abs(h[0] - fd_h).max() <= 1e-6

    grid = np.linspace(-10.0, 10.0, 10_000)
    for _ in range(200):
        g_sum = rng.uniform(-5, 5)
        h_sum = rng.uniform(0, 5)
        lam = rng.uniform(0.05, 3)
        w = leaf_weight(g_sum, h_sum, lam)
        objective = g_sum * grid + 0.5 * (h_sum + lam) * grid * grid
        assert g_sum * w + 0.5 * (h_sum + lam) * w * w <= objective.min() + 1e-12

    config = TrainConfig(
        n_rounds=1,
        learning_rate=1.0,
        max_depth=1,
        reg_lambda=1.0,
        gamma=0.0,
        min_child_weight=0.0,
        n_classes=2,
    )
    for trial in range(25):
        trial_rng = np.random.default_rng(310 + trial)
        n = int(trial_rng.integers(10, 60))
        x = trial_rng.normal(size=n)
        y = trial_rng.integers(0, 2, n)
        model = train(x[:, None], y, config)
        forest, root = model.forest, model.trees[0][2].start
        g = 0.5 - (y == 1)  # softmax gradients at the uniform start
        h = np.full(n, 0.25)
        best = _exhaustive_stump(x, g.astype(float), h, config.reg_lambda)
        if best is None or not best[0] > 0:
            assert forest.feature[root] == -1
            continue
        assert forest.feature[root] != -1
        assert forest.threshold[root] == best[1]
        assert forest.value[root + 1] == pytest.approx(best[2], rel=1e-12)
        assert forest.value[forest.right[root]] == pytest.approx(best[3], rel=1e-12)
    ok(
        "criterion 3: softmax grad/hess vs finite differences (1e-6), "
        "leaf weights beat a 1e4 grid, stumps match exhaustive search"
    )


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_training_objective_monotone():
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        centers = rng.normal(scale=3.0, size=(3, 6))
        features = np.vstack([c + rng.normal(scale=2.0, size=(30, 6)) for c in centers])
        labels = np.repeat(np.arange(3), 30)
        config = TrainConfig(
            n_rounds=50,
            learning_rate=0.3,
            max_depth=3,
            reg_lambda=1.0,
            gamma=0.0,
            min_child_weight=0.0,
            n_classes=3,
        )
        model = train(features, labels, config)
        history = np.array(model.objective_history)
        assert history.shape[0] == 51
        worst = np.diff(history).max()
        assert worst <= 1e-12, f"seed {seed}: objective rose by {worst:.3e}"
    ok("criterion 4: regularized training loss non-increasing over 50 rounds (10 seeds)")


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_stratification():
    def check(labels, k, seed):
        assignment = stratified_kfold(labels, k, seed)
        covered = np.concatenate([assignment.test_rows(f) for f in range(k)])
        assert sorted(covered.tolist()) == list(range(len(labels)))
        for cls in np.unique(labels):
            counts = [
                int((labels[assignment.test_rows(f)] == cls).sum()) for f in range(k)
            ]
            assert max(counts) - min(counts) <= 1

    check(np.array([1] * 186 + [0] * 41), 10, 0)
    rng = np.random.default_rng(500)
    for trial in range(50):
        n_classes = int(rng.integers(2, 8))
        n = int(rng.integers(20, 150))
        labels = rng.integers(0, n_classes, n)
        k = int(rng.integers(2, min(10, n) + 1))
        check(labels, k, trial)
    ok("criterion 5: stratified folds partition rows with per-class counts within 1")


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_paired_ttest_oracle():
    rng = np.random.default_rng(600)
    for _ in range(50):
        a = rng.uniform(0.2, 1.0, 10)
        b = rng.uniform(0.2, 1.0, 10)
        alpha = float(rng.uniform(0.01, 0.2))
        result = paired_ttest(a, b, alpha=alpha)
        d = a - b
        se = d.std(ddof=1) / math.sqrt(10)
        t_ref = d.mean() / se
        crit = scipy.stats.t.ppf(1 - alpha / 2, 9)
        assert abs(result.t_stat - t_ref) <= 1e-10
        assert abs(result.ci_low - (d.mean() - crit * se)) <= 1e-10
        assert abs(result.ci_high - (d.mean() + crit * se)) <= 1e-10

    a = np.array([0.5, 0.7, 0.9, 1.1])
    b = a - np.array([0.1, 0.2, 0.3, 0.4])
    result = paired_ttest(a, b, alpha=0.05)
    assert result.t_stat == pytest.approx(3.873, abs=1e-3)
    assert result.ci_low == pytest.approx(0.0446, abs=1e-3)
    assert result.ci_high == pytest.approx(0.4554, abs=1e-3)
    assert result.rejected
    ok("criterion 6: paired t-test matches textbook values (1e-10) and the K=4 example (1e-3)")


# -- criteria 7 and 8 ------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    cache = {}

    def run(jobs):
        if jobs in cache:
            return cache[jobs]
        workdir = base / f"jobs{jobs}"
        corpus = workdir / "corpus"
        started = time.perf_counter()
        assert (
            main(
                [
                    "synth",
                    "--out-dir",
                    str(corpus),
                    "--n-per-class",
                    str(E2E_N_PER_CLASS),
                    "--seed-data",
                    str(E2E_SEED_DATA),
                    "--length",
                    str(E2E_SEGMENT_LENGTH),
                ]
            )
            == 0
        )
        reports = {}
        caches = {}
        for case in (1, 2, 3):
            cache_path = workdir / f"lower-case{case}.rfds"
            assert (
                main(
                    [
                        "features",
                        "--manifest",
                        str(corpus / "manifest.json"),
                        "--band",
                        "lower",
                        "--case",
                        str(case),
                        "--jobs",
                        str(jobs),
                        "--out",
                        str(cache_path),
                    ]
                )
                == 0
            )
            report_path = workdir / f"cv-case{case}.json"
            assert (
                main(
                    [
                        "cv",
                        "--features",
                        str(cache_path),
                        *E2E_TRAIN_FLAGS,
                        "--k-folds",
                        "10",
                        "--seed-data",
                        str(E2E_SEED_FOLDS),
                        "--jobs",
                        str(jobs),
                        "--out",
                        str(report_path),
                    ]
                )
                == 0
            )
            reports[case] = report_path
            caches[case] = cache_path
        elapsed = time.perf_counter() - started
        cache[jobs] = (reports, caches, elapsed)
        return cache[jobs]

    return run


def test_criterion_7_end_to_end_accuracy_hierarchy(pipeline):
    reports, _, elapsed = pipeline(1)
    means = {}
    for case, path in reports.items():
        payload = json.loads(path.read_text())
        means[case] = payload["mean"]["accuracy"]
        floor = E2E_ACCURACY_FLOOR[case]
        assert means[case] >= floor, f"case {case}: {means[case]:.4f} < {floor}"
    assert means[1] >= means[2] >= means[3], f"hierarchy violated: {means}"
    assert elapsed <= E2E_BUDGET_SECONDS, f"pipeline took {elapsed:.0f}s"
    ok(
        "criterion 7: desk-scale hierarchy "
        f"I={means[1]:.4f} >= II={means[2]:.4f} >= III={means[3]:.4f} "
        f"(floors 0.99/0.90/0.70) in {elapsed:.0f}s"
    )


def test_criterion_8_reports_byte_identical_across_jobs(pipeline):
    reports_serial, caches_serial, _ = pipeline(1)
    reports_parallel, caches_parallel, _ = pipeline(2)
    for case in (1, 2, 3):
        assert (
            reports_serial[case].read_bytes() == reports_parallel[case].read_bytes()
        ), f"case {case} report differs across job counts"
        assert (
            caches_serial[case].read_bytes() == caches_parallel[case].read_bytes()
        ), f"case {case} feature cache differs across job counts"
    ok("criterion 8: JSON reports and feature caches byte-identical for --jobs 1 vs 2")
