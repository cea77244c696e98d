import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfsentry.dataset as dataset_mod
from rfsentry import evaluation, gbdt
from rfsentry.dataset import Case, LabeledDataset, build_dataset
from rfsentry.errors import ConfigurationError, EmptyEvaluationError, ShapeError
from rfsentry.evaluation import (
    compare_bands,
    confusion_matrix,
    cross_validate,
    metrics,
    paired_ttest,
    stratified_kfold,
    student_t_cdf,
    t_critical,
)
from rfsentry.gbdt import TrainConfig
from rfsentry.spectrum import BandMode, Extraction

FRAMES_1024 = Extraction(frame_size=1024)


def fold_class_counts(assignment, labels):
    counts = np.zeros((assignment.k, int(labels.max()) + 1), dtype=int)
    for row, fold in enumerate(assignment.fold_of):
        counts[fold, labels[row]] += 1
    return counts


def round_robin_folds(labels, k, seed):
    """Reference dealing, one row at a time: each class shuffled, the
    pointer carried over from class to class."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    cursor = 0
    for cls in np.unique(labels):
        for row in rng.permutation(np.flatnonzero(labels == cls)):
            fold_of[row] = cursor
            cursor = (cursor + 1) % k
    return fold_of


class TestStratifiedKfold:
    def test_41_rows_over_10_folds(self):
        labels = np.zeros(41, dtype=int)
        counts = fold_class_counts(stratified_kfold(labels, 10, 0), labels)[:, 0]
        assert sorted(counts.tolist()) == [4] * 9 + [5]

    def test_two_fold_toy_case(self):
        labels = np.array([0, 0, 1, 1])
        counts = fold_class_counts(stratified_kfold(labels, 2, 3), labels)
        np.testing.assert_array_equal(counts, [[1, 1], [1, 1]])

    def test_dronerf_case1_proportions(self):
        labels = np.array([1] * 186 + [0] * 41)
        assignment = stratified_kfold(labels, 10, 7)
        counts = fold_class_counts(assignment, labels)
        assert set(counts[:, 1].tolist()) <= {18, 19}
        assert set(counts[:, 0].tolist()) <= {4, 5}

    def test_partition_and_proportionality_on_random_labels(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            n_classes = int(rng.integers(2, 6))
            k = int(rng.integers(2, 11))
            # Half the trials have n within a few rows of k, down to n = k.
            n = k + int(rng.integers(0, 4 if trial % 2 else 110))
            labels = rng.integers(0, n_classes, n)
            assignment = stratified_kfold(labels, k, trial)
            assert assignment.fold_of.shape == (n,)
            assert set(np.unique(assignment.fold_of)) <= set(range(k))
            np.testing.assert_array_equal(assignment.fold_of, round_robin_folds(labels, k, trial))
            all_rows = np.concatenate([np.flatnonzero(assignment.fold_of == f) for f in range(k)])
            assert sorted(all_rows.tolist()) == list(range(n))
            sizes = np.bincount(assignment.fold_of, minlength=k)
            assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
            for per_fold in fold_class_counts(assignment, labels).T:
                assert per_fold.max() - per_fold.min() <= 1

    def test_deterministic_for_seed(self):
        labels = np.random.default_rng(9).integers(0, 3, 50)
        a = stratified_kfold(labels, 5, 17)
        b = stratified_kfold(labels, 5, 17)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)
        assert a.fingerprint == b.fingerprint
        c = stratified_kfold(labels, 5, 18)
        assert c.fingerprint != a.fingerprint

    def test_bad_k(self):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ConfigurationError):
            stratified_kfold(labels, 1, 0)
        with pytest.raises(ConfigurationError):
            stratified_kfold(labels, 11, 0)


class TestConfusionMatrix:
    def test_diagonal_when_perfect(self):
        y = np.array([0, 1, 2, 1])
        np.testing.assert_array_equal(confusion_matrix(y, y, 3), np.diag([1, 2, 1]))

    def test_hand_counted(self):
        matrix = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 1]])

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(10)
        y_true = rng.integers(0, 5, 200)
        y_pred = rng.integers(0, 5, 200)
        matrix = confusion_matrix(y_true, y_pred, 5)
        for i in range(5):
            for j in range(5):
                assert matrix[i, j] == np.sum((y_true == i) & (y_pred == j))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1], [0], 2)
        with pytest.raises(ShapeError):
            confusion_matrix([0, 2], [0, 1], 2)


class TestMetrics:
    def test_perfect_three_class(self):
        m = metrics(np.diag([5, 3, 2]))
        assert m["accuracy"] == 1.0
        assert m["macro_precision"] == 1.0
        assert m["macro_recall"] == 1.0
        assert m["macro_f1"] == 1.0

    def test_hand_computed_two_class(self):
        m = metrics(np.array([[1, 1], [0, 1]]))
        assert m["accuracy"] == pytest.approx(2 / 3)
        assert m["macro_precision"] == pytest.approx((1.0 + 0.5) / 2)
        assert m["macro_recall"] == pytest.approx((0.5 + 1.0) / 2)
        assert m["macro_f1"] == pytest.approx(2 / 3)

    def test_single_class_predictions(self):
        # All rows predicted as class 0: class 1 fully missed.
        m = metrics(np.array([[4, 0], [4, 0]]))
        assert m["macro_recall"] == pytest.approx(0.5)
        assert m["undefined_precision"] == 1

    def test_all_metrics_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            matrix = rng.integers(0, 10, size=(4, 4))
            if matrix.sum() == 0:
                continue
            m = metrics(matrix)
            for value in (m["accuracy"], m["macro_precision"], m["macro_recall"], m["macro_f1"]):
                assert 0.0 <= value <= 1.0
            assert m["accuracy"] == pytest.approx(np.trace(matrix) / matrix.sum())

    def test_empty_matrix(self):
        with pytest.raises(EmptyEvaluationError):
            metrics(np.zeros((3, 3), dtype=int))

    @pytest.mark.parametrize(
        "confusion, message",
        [(np.ones((2, 3)), "square"), (np.ones(4), "square"), ([[2, -1], [0, 1]], "non-negative")],
    )
    def test_malformed_matrix_rejected(self, confusion, message):
        with pytest.raises(ShapeError, match=message):
            metrics(confusion)


class TestStudentT:
    def test_pinned_quantile(self):
        assert t_critical(0.975, 9) == pytest.approx(2.262, abs=1e-3)

    def test_against_scipy(self):
        # K <= rows, and DroneRF has 454 segments: df reaches past 450.
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(12)
        for df in [*range(1, 61), 99, 199, 453, 500, *rng.integers(61, 501, 30).tolist()]:
            prob = rng.uniform(0.6, 0.999)
            ours = t_critical(prob, df)
            reference = scipy_stats.t.ppf(prob, df)
            assert ours == pytest.approx(reference, abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        t=st.floats(allow_nan=False),
        gap=st.floats(0.0, 1e3),
        df=st.integers(1, 40) | st.integers(1, 500),
    )
    def test_cdf_properties(self, t, gap, df):
        low, high = student_t_cdf(t, df), student_t_cdf(t + gap, df)
        assert 0.0 <= low <= 1.0
        # Non-decreasing up to rounding: adjacent floats can swap by a few ulps.
        assert low <= high + 1e-14
        assert abs(low + student_t_cdf(-t, df) - 1.0) <= 1e-15
        assert student_t_cdf(-math.inf, df) == 0.0
        assert student_t_cdf(math.inf, df) == 1.0

    def test_symmetry_and_median(self):
        assert t_critical(0.5, 7) == 0.0
        assert t_critical(0.1, 7) == pytest.approx(-t_critical(0.9, 7), abs=1e-12)

    def test_cdf_round_trip(self):
        for prob in (0.6, 0.9, 0.975, 0.995):
            for df in (1, 4, 9, 30):
                assert student_t_cdf(t_critical(prob, df), df) == pytest.approx(prob, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            t_critical(1.0, 5)
        with pytest.raises(ConfigurationError):
            t_critical(0.9, 0)

    def test_bisection_stops_once_the_interval_cannot_move(self, monkeypatch):
        def two_hundred_steps(prob, df):
            # The bisection as it was, with a fixed 200 steps.
            target = prob if prob > 0.5 else 1.0 - prob
            lo, hi = 0.0, 1.0
            while student_t_cdf(hi, df) < target:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if student_t_cdf(mid, df) < target:
                    lo = mid
                else:
                    hi = mid
            t = 0.5 * (lo + hi)
            return t if prob > 0.5 else -t

        grid = [(p, df) for p in (0.0005, 0.025, 0.1, 0.6, 0.9, 0.975, 0.995, 0.9995)
                for df in (*range(1, 31), 99, 453)]
        expected = [two_hundred_steps(p, df) for p, df in grid]
        calls = []
        real = evaluation.student_t_cdf

        def counting(t, df):
            calls.append(t)
            return real(t, df)

        monkeypatch.setattr(evaluation, "student_t_cdf", counting)
        for (p, df), reference in zip(grid, expected):
            calls.clear()
            assert t_critical(p, df) == reference, (p, df)
            # The bracket doubles hi from 1; the bisection's calls follow.
            doubling = next(i for i, t in enumerate(calls) if t != 2.0**i)
            assert len(calls) - doubling <= 64, (p, df)

    @pytest.mark.parametrize("df", [2.5, True, 0])
    def test_non_integer_or_zero_dof_rejected(self, df):
        with pytest.raises(ConfigurationError, match="integer >= 1"):
            student_t_cdf(1.0, df)
        with pytest.raises(ConfigurationError, match="integer >= 1"):
            t_critical(0.9, df)


class TestPairedTTest:
    def test_equal_scores_not_rejected(self):
        scores = np.array([0.9, 0.8, 0.95, 0.85])
        result = paired_ttest(scores, scores)
        assert result.mean_diff == 0.0
        assert not result.rejected
        assert result.ci_low <= 0.0 <= result.ci_high

    def test_hand_derived_k4_example(self):
        # d = (0.1, 0.2, 0.3, 0.4): mean 0.25, sample std 0.1291,
        # t = 3.873, CI = 0.25 +- 3.182 * 0.06455.
        a = np.array([0.5, 0.7, 0.9, 1.1])
        b = a - np.array([0.1, 0.2, 0.3, 0.4])
        result = paired_ttest(a, b, alpha=0.05)
        assert result.dof == 3
        assert result.mean_diff == pytest.approx(0.25)
        assert result.t_stat == pytest.approx(3.873, abs=1e-3)
        assert result.ci_low == pytest.approx(0.0446, abs=1e-3)
        assert result.ci_high == pytest.approx(0.4554, abs=1e-3)
        assert result.rejected

    def test_textbook_formula_oracle(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(0.3, 1.0, 10)
            b = rng.uniform(0.3, 1.0, 10)
            alpha = float(rng.uniform(0.01, 0.2))
            result = paired_ttest(a, b, alpha=alpha)
            d = a - b
            mean = d.mean()
            sd = d.std(ddof=1)
            se = sd / math.sqrt(10)
            t_ref = mean / se
            crit = scipy_stats.t.ppf(1 - alpha / 2, 9)
            assert result.t_stat == pytest.approx(t_ref, abs=1e-10)
            assert result.ci_low == pytest.approx(mean - crit * se, abs=1e-10)
            assert result.ci_high == pytest.approx(mean + crit * se, abs=1e-10)
            assert result.rejected == (not (result.ci_low <= 0 <= result.ci_high))

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(0, 1, 10)
        b = rng.uniform(0, 1, 10)
        ab = paired_ttest(a, b)
        ba = paired_ttest(b, a)
        assert ab.mean_diff == pytest.approx(-ba.mean_diff)
        assert ab.t_stat == pytest.approx(-ba.t_stat)
        assert ab.ci_low == pytest.approx(-ba.ci_high)
        assert ab.ci_high == pytest.approx(-ba.ci_low)
        assert ab.rejected == ba.rejected

    def test_degenerate_zero_spread(self):
        same = np.full(5, 0.9)
        result = paired_ttest(same, same)
        assert result.degenerate and not result.rejected and result.t_stat == 0.0
        shifted = paired_ttest(same + 0.1, same)
        assert shifted.degenerate and shifted.rejected
        assert math.isinf(shifted.t_stat) and shifted.t_stat > 0

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            paired_ttest(np.ones(5), np.ones(4))
        with pytest.raises(ConfigurationError):
            paired_ttest(np.ones(1), np.ones(1))
        with pytest.raises(ConfigurationError):
            paired_ttest(np.ones(5), np.zeros(5), alpha=0.0)


def blob_dataset(seed, n_per_class=30, n_classes=2, dim=6, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(n_classes, dim))
    features = np.abs(
        np.vstack([center + spread * rng.normal(size=(n_per_class, dim)) for center in centers])
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(features, labels, Case.for_n_classes(n_classes), BandMode.LOWER_ONLY)


class TestCrossValidate:
    def test_separable_data_scores_high_with_zero_std(self):
        ds = blob_dataset(20, spread=0.1)
        config = TrainConfig(n_rounds=8, max_depth=3, n_classes=2)
        report = cross_validate(ds, config, k=5, seed=1)
        assert report["mean"]["accuracy"] >= 0.99
        assert report["std"]["accuracy"] == pytest.approx(0.0, abs=1e-9)
        assert len(report["per_fold"]) == 5

    def test_bit_identical_reports_for_same_seed(self):
        ds = blob_dataset(21, spread=1.5)
        config = TrainConfig(n_rounds=4, max_depth=3, n_classes=2)
        a = cross_validate(ds, config, k=4, seed=9)
        b = cross_validate(ds, config, k=4, seed=9)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_jobs_do_not_change_results(self):
        ds = blob_dataset(22, spread=1.0)
        config = TrainConfig(n_rounds=3, max_depth=3, n_classes=2)
        serial = cross_validate(ds, config, k=4, seed=2, jobs=1)
        parallel = cross_validate(ds, config, k=4, seed=2, jobs=3)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_mean_std_recomputable_from_folds(self):
        ds = blob_dataset(23, spread=2.0)
        report = cross_validate(ds, TrainConfig(n_rounds=3, max_depth=2, n_classes=2), k=5, seed=3)
        scores = np.array([fold["accuracy"] for fold in report["per_fold"]])
        assert report["mean"]["accuracy"] == pytest.approx(scores.mean())
        assert report["std"]["accuracy"] == pytest.approx(scores.std(ddof=1))

    @pytest.mark.parametrize("case", [Case.I, Case.III])
    def test_fold_models_match_plain_train(self, small_corpus, case, monkeypatch):
        # Each fold's fit takes its presort from one sort of the whole
        # matrix; its trees must be those of a fit on the fold's rows alone.
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, case, FRAMES_1024)
        real, fits = gbdt.train, []

        def recording(features, labels, config, presort=None):
            fits.append((features, labels, config, presort, real(features, labels, config, presort)))
            return fits[-1][-1]

        monkeypatch.setattr(gbdt, "train", recording)
        config = TrainConfig(n_rounds=3, max_depth=4, n_classes=case.n_classes)
        cross_validate(ds, config, k=5, seed=2)
        fold_of = stratified_kfold(ds.labels, 5, 2).fold_of
        assert len(fits) == 5
        for fold, (features, labels, config, presort, model) in enumerate(fits):
            assert presort is not None
            assert features.tobytes() == ds.features[fold_of != fold].tobytes()
            plain = real(features, labels, config)
            for name in ("feature", "threshold", "value", "right"):
                assert getattr(model.forest, name).tobytes() == getattr(plain.forest, name).tobytes()
            assert model.trees == plain.trees

    def test_schema_mismatch(self):
        ds = blob_dataset(24)
        with pytest.raises(ConfigurationError):
            cross_validate(ds, TrainConfig(n_classes=4), k=3, seed=0)


@pytest.fixture(scope="module")
def comparison(small_corpus):
    config = TrainConfig(n_rounds=3, max_depth=3, min_child_weight=0.5)
    return compare_bands(
        small_corpus, Case.I, config, k=5, seed=4, extraction=FRAMES_1024, jobs=1
    )


class TestCompareBands:
    def test_three_reports_and_two_tests(self, comparison):
        assert set(comparison["bands"]) == {
            BandMode.LOWER_ONLY.value,
            BandMode.UPPER_ONLY.value,
            BandMode.CONCATENATED.value,
        }
        assert comparison["ttests"]["lb_vs_ub"]["dof"] == 4
        assert comparison["ttests"]["lb_vs_both"]["dof"] == 4

    def test_shared_fold_partition(self, comparison):
        fingerprints = {rep["fold_fingerprint"] for rep in comparison["bands"].values()}
        assert fingerprints == {comparison["fold_fingerprint"]}

    def test_report_dict_structure(self, comparison):
        assert comparison["case"] == 1
        assert set(comparison["bands"]) == {"lower", "upper", "both"}
        assert set(comparison["ttests"]) == {"lb_vs_ub", "lb_vs_both"}
        for block in comparison["ttests"].values():
            assert {"mean_diff", "t_stat", "dof", "ci_low", "ci_high", "rejected"} <= set(block)

    def test_each_band_file_parsed_once(self, small_corpus, monkeypatch):
        seen = []
        real = dataset_mod.load_segment

        def counting(path):
            seen.append(str(path))
            return real(path)

        monkeypatch.setattr(dataset_mod, "load_segment", counting)
        config = TrainConfig(n_rounds=1, max_depth=1)
        compare_bands(small_corpus, Case.I, config, k=2, seed=0, extraction=FRAMES_1024)
        n = len(small_corpus.entries)
        assert len(seen) == len(set(seen)) == 2 * n
        assert seen[:2] == [str(path) for path in small_corpus.resolve(small_corpus.entries[0])]

    def test_class_count_mismatch_rejected_before_band_files_are_read(self, tmp_path, monkeypatch):
        # Ten entries whose band files do not exist: only the config can fail first.
        entries = tuple(
            dataset_mod.ManifestEntry(f"{i}_lb.csv", f"{i}_ub.csv", i) for i in range(10)
        )
        manifest = dataset_mod.Manifest(entries=entries, source="Synthetic", root=tmp_path)
        seen = []
        monkeypatch.setattr(dataset_mod, "load_segment", seen.append)
        with pytest.raises(ConfigurationError, match="declares 2 classes but case 3 has 10"):
            compare_bands(manifest, Case.III, TrainConfig(n_rounds=1), k=2)
        assert seen == []

    def test_parallel_report_is_identical(self, small_corpus, comparison):
        config = TrainConfig(n_rounds=3, max_depth=3, min_child_weight=0.5)
        parallel = compare_bands(
            small_corpus, Case.I, config, k=5, seed=4, extraction=FRAMES_1024, jobs=2
        )
        assert json.dumps(parallel, sort_keys=True) == json.dumps(comparison, sort_keys=True)


class TestSyntheticEndToEnd:
    def test_case1_synthetic_cv_is_nearly_perfect(self, small_corpus):
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, Case.I, FRAMES_1024)
        config = TrainConfig(n_rounds=6, max_depth=3, n_classes=2)
        report = cross_validate(ds, config, k=5, seed=5)
        assert report["mean"]["accuracy"] >= 0.99

    def test_case1_training_accuracy_within_20_rounds(self):
        from rfsentry.dataset import synth_segment
        from rfsentry.gbdt import predict, train
        from rfsentry.spectrum import Band, segment_spectrum

        rows, labels = [], []
        for class_id in range(10):
            for index in range(20):
                lb, _ = synth_segment(class_id, 55, length=4096, index=index)
                rows.append(segment_spectrum(lb.samples, Band.LOWER).bins)
                labels.append(int(class_id > 0))
        features = np.array(rows)
        labels = np.array(labels)
        model = train(features, labels, TrainConfig(n_rounds=20, n_classes=2))
        assert (predict(model, features) == labels).mean() >= 0.99
