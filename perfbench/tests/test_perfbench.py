"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--scale", "tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_label_counts_as_failure(tmp_path, monkeypatch):
    from rfsentry import gbdt

    workload = workloads.Detect(workloads.SCALES["tiny"])
    state = workload.setup(tmp_path / "detect", seed=3)
    honest = gbdt.predict_proba

    def shifted(model, features):
        # Every request's label moves to the next class; batch labels were taken honestly.
        return np.roll(honest(model, features), 1, axis=-1)

    monkeypatch.setattr(gbdt, "predict_proba", shifted)
    result, _ = measure.measure(workload, state, seconds=0.2, trace=False)
    assert result["attempted"] >= workload.warmup_ops + measure.MIN_OPS
    assert result["failed"] == result["attempted"]
    assert "differs from batch label" in result["notes"][0]


def test_wrong_spectrum_and_seam_are_caught():
    rng = np.random.default_rng(0)
    lb, ub = rng.uniform(1.0, 2.0, 1024), rng.uniform(1.0, 2.0, 1024)
    scale = lb[-8:].mean() / ub[:8].mean()
    row = np.concatenate((lb, scale * ub))[None, :]
    assert workloads.check_spectra(row, row.copy()) == ""
    bad = row.copy()
    bad[0, 10] *= 1 + 1e-6
    assert "np.fft oracle" in workloads.check_spectra(bad, row)
    unscaled = np.concatenate((lb, ub))[None, :]
    assert "seam" in workloads.check_spectra(unscaled, unscaled)


def test_oracles_agree_with_the_package():
    from rfsentry.evaluation import paired_ttest, stratified_kfold
    from rfsentry.spectrum import Band, segment_spectrum

    rng = np.random.default_rng(1)
    labels = rng.integers(0, 10, 97)
    for seed in (0, 7):
        assert workloads.fold_fingerprint(labels, 10, seed) == stratified_kfold(labels, 10, seed).fingerprint
    for _ in range(20):
        a, b = rng.uniform(0.5, 1.0, 10), rng.uniform(0.5, 1.0, 10)
        assert workloads.ttest_rejects(a, b) == paired_ttest(a, b).rejected
    same = rng.uniform(0.5, 1.0, 10)
    assert workloads.ttest_rejects(same, same) == paired_ttest(same, same).rejected
    samples = rng.normal(size=5 * 2048 + 100)
    expected = segment_spectrum(samples, Band.LOWER).bins
    assert np.allclose(workloads.band_spectrum(samples), expected, rtol=1e-12, atol=0)


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span(0, "cli.main", None, None, 0.0, 10.0),
        tracing.Span(1, "dataset.build_dataset", 0, None, 1.0, 6.0),
        tracing.Span(2, "dataset.load_segment", 1, None, 2.0, 5.0),
        tracing.Span(3, "gbdt.train", 0, None, 6.0, 9.0, counts={"shape": [4, 2, 2], "trees": 6}),
    ]
    assert tracing.self_times(spans) == {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}
    metrics, _ = tracing.layer_metrics(spans, n_ops=1)
    assert metrics["cli.main.self_s"] + metrics["dataset.self_s"] + metrics["gbdt.self_s"] == 10.0
    assert metrics["gbdt.ms_per_tree"] == 500.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "detect", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_predictions_name_known_metrics_and_workloads():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())["predictions"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for prediction in predictions:
        assert set(prediction["per_layer"]) <= per_layer, prediction["id"]
        for effect in prediction["moves"] + prediction["unchanged"]:
            assert effect["metric"] in end_to_end and effect["workload"] in names, prediction["id"]
