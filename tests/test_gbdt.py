import hashlib
import logging
import math
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import rfsentry.gbdt as gbdt
from rfsentry.cli import main
from rfsentry.dataset import BandMode, Case, build_dataset
from rfsentry.spectrum import Extraction
from rfsentry.errors import (
    ConfigurationError,
    FormatError,
    SchemaError,
    ShapeError,
    TrainingError,
)
from rfsentry.gbdt import (
    GbdtModel,
    TrainConfig,
    Tree,
    build_tree,
    leaf_weight,
    load_model,
    predict,
    predict_proba,
    save_model,
    softmax_grad_hess,
    train,
)


def multiclass_logloss(logits, true_class):
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[true_class])


def finite_diff_grad_hess(logits, true_class, eps=1e-4):
    """Central differences of the log-loss, one class at a time."""
    k = len(logits)
    g = np.empty(k)
    h = np.empty(k)
    for c in range(k):
        up = logits.copy()
        down = logits.copy()
        up[c] += eps
        down[c] -= eps
        loss_up = multiclass_logloss(up, true_class)
        loss_down = multiclass_logloss(down, true_class)
        loss_mid = multiclass_logloss(logits, true_class)
        g[c] = (loss_up - loss_down) / (2 * eps)
        h[c] = (loss_up - 2 * loss_mid + loss_down) / (eps * eps)
    return g, h


def split_gain(g_left, h_left, g_right, h_right, reg_lambda, gamma):
    """Second-order gain of a split relative to keeping the parent leaf."""
    g_total = g_left + g_right
    h_total = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + reg_lambda)
        + g_right * g_right / (h_right + reg_lambda)
        - g_total * g_total / (h_total + reg_lambda)
    ) - gamma


def enumerate_best_stump(x, g, h, reg_lambda, gamma):
    """Exhaustive depth-1 search over all midpoints of a single feature."""
    order = np.argsort(x, kind="stable")
    xs, gs, hs = x[order], g[order], h[order]
    best = None
    for i in range(len(xs) - 1):
        if xs[i] == xs[i + 1]:
            continue
        thr = 0.5 * (xs[i] + xs[i + 1])
        if thr <= xs[i]:
            continue
        gl, hl = gs[: i + 1].sum(), hs[: i + 1].sum()
        gr, hr = gs[i + 1 :].sum(), hs[i + 1 :].sum()
        gain = split_gain(gl, hl, gr, hr, reg_lambda, gamma)
        if best is None or gain > best[0]:
            best = (gain, thr, leaf_weight(gl, hl, reg_lambda), leaf_weight(gr, hr, reg_lambda))
    return best


class TestSoftmaxGradHess:
    def test_uniform_three_class(self):
        g, h = softmax_grad_hess(np.zeros((1, 3)), [0])
        np.testing.assert_allclose(g, [[-2 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(h, [[2 / 9, 2 / 9, 2 / 9]])

    def test_binary_symmetry(self):
        g, h = softmax_grad_hess(np.zeros((1, 2)), [1])
        np.testing.assert_allclose(g, [[0.5, -0.5]])
        np.testing.assert_allclose(h, [[0.25, 0.25]])

    def test_specific_logits_match_finite_differences(self):
        logits = np.array([1.0, -0.5, 0.2])
        g, h = softmax_grad_hess(logits[None, :], [2])
        fd_g, fd_h = finite_diff_grad_hess(logits, 2)
        np.testing.assert_allclose(g[0], fd_g, atol=1e-6)
        np.testing.assert_allclose(h[0], fd_h, atol=1e-6)

    def test_out_of_range_class(self):
        with pytest.raises(ShapeError):
            softmax_grad_hess(np.zeros((1, 3)), [3])
        with pytest.raises(ShapeError):
            softmax_grad_hess(np.zeros((2, 3)), [0])

    def test_extreme_logits_stay_finite(self):
        g, h = softmax_grad_hess(np.array([[800.0, -800.0, 0.0]]), [0])
        assert np.isfinite(g).all() and np.isfinite(h).all()

    def test_rows_are_independent(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(scale=2.0, size=(6, 4))
        labels = rng.integers(0, 4, 6)
        g, h = softmax_grad_hess(logits, labels)
        for i in range(6):
            g_row, h_row = softmax_grad_hess(logits[i : i + 1], labels[i : i + 1])
            assert g_row.tobytes() == g[i].tobytes() and h_row.tobytes() == h[i].tobytes()


class TestLeafWeight:
    def test_forced_by_formula(self):
        assert leaf_weight(2.0, 4.0, 1.0) == pytest.approx(-0.4)

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 3.0, 0.5) == 0.0

    def test_minimizes_quadratic_on_grid(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(-10.0, 10.0, 10_001)
        for _ in range(50):
            g = rng.uniform(-5, 5)
            h = rng.uniform(0, 5)
            lam = rng.uniform(0.1, 3)
            w = leaf_weight(g, h, lam)
            objective = lambda v: g * v + 0.5 * (h + lam) * v * v
            assert objective(w) <= objective(grid).min() + 1e-12

    def test_degenerate_leaf(self):
        # No hessian mass and lambda = 0: XGBoost's leaf value 0, not an error.
        assert leaf_weight(1.0, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("h_sum, reg_lambda", [(-1.0, 1.0), (1.0, -0.5)])
    def test_negative_hessian_or_lambda_rejected(self, h_sum, reg_lambda):
        with pytest.raises(ConfigurationError, match="must be >= 0"):
            leaf_weight(1.0, h_sum, reg_lambda)


class TestSplitGain:
    def test_identical_halves_gain_nothing(self):
        # Exactly zero without regularization; never positive with it.
        assert split_gain(1.5, 2.0, 1.5, 2.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert split_gain(1.5, 2.0, 1.5, 2.0, 0.7, 0.0) < 0.0

    def test_hand_value(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 1.0, 0.0) == pytest.approx(2.0)

    def test_objective_difference_identity(self):
        rng = np.random.default_rng(22)

        def leaf_objective(g, h, lam):
            w = leaf_weight(g, h, lam)
            return g * w + 0.5 * (h + lam) * w * w

        for _ in range(100):
            gl, gr = rng.uniform(-4, 4, 2)
            hl, hr = rng.uniform(0.1, 4, 2)
            lam = rng.uniform(0.0, 2)
            gamma = rng.uniform(0.0, 1)
            parent = leaf_objective(gl + gr, hl + hr, lam)
            split = leaf_objective(gl, hl, lam) + leaf_objective(gr, hr, lam)
            expected = (parent - split) - gamma
            assert split_gain(gl, hl, gr, hr, lam, gamma) == pytest.approx(expected, abs=1e-12)


def stump_config(**overrides):
    base = dict(
        n_rounds=1,
        learning_rate=1.0,
        max_depth=1,
        reg_lambda=0.0,
        gamma=0.0,
        min_child_weight=0.0,
        n_classes=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestBuildTree:
    def test_all_zero_gradients_give_zero_leaf(self):
        tree = build_tree(np.arange(4.0)[:, None], np.zeros(4), np.ones(4), stump_config())
        assert len(tree) == 1 and tree.feature[0] == -1
        assert tree.value[0] == 0.0

    def test_hand_derived_stump(self):
        # Candidates 1.5 / 2.5 / 3.5 have gains 2/3, 2, 2/3; midpoint 2.5
        # wins, leaving mean gradients of -1 and +1 per side.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        tree = build_tree(x, np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), stump_config())
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(2.5)
        assert tree.value[1] == pytest.approx(1.0)
        assert tree.value[tree.right[0]] == pytest.approx(-1.0)

    def test_tie_breaks_to_lowest_feature(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        duplicated = np.hstack([x, x])
        tree = build_tree(duplicated, np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), stump_config())
        assert tree.feature[0] == 0

    def test_tie_at_a_later_position_still_goes_to_lowest_feature(self):
        # Cuts {0,1,2}|{3,4} and {0,1}|{2,3,4} both score 4/3 + 2. Feature
        # 0 allows only the first, at sorted position 2; feature 1 only the
        # second, at position 1. Scanning positions before features would
        # meet feature 1's cut first.
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        g = np.array([-1.0, -1.0, 0.0, 1.0, 1.0])
        tree = build_tree(x, g, np.ones(5), stump_config())
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
        assert tree.value[1] == pytest.approx(2 / 3)
        assert tree.value[tree.right[0]] == -1.0

    @pytest.mark.parametrize(
        "g, free, threshold, left, right",
        [
            ([1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -5.0], 6.5, 5.5, -4 / 6, 2.0),
            ([-5.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0], 0.5, 1.5, 2.0, -4 / 6),
        ],
    )
    def test_min_child_weight_window_excludes_best_cut(self, g, free, threshold, left, right):
        # With unit hessians and min_child_weight 2 only sorted positions
        # 1..5 of 8 rows are valid. Unconstrained, isolating the -5 row
        # wins, at position 6 or 0; constrained, the cut next to it does.
        x = np.column_stack([np.arange(8.0), np.repeat([0.0, 1.0], 4)])
        g = np.array(g)
        unconstrained = build_tree(x, g, np.ones(8), stump_config())
        assert (unconstrained.feature[0], unconstrained.threshold[0]) == (0, free)
        tree = build_tree(x, g, np.ones(8), stump_config(min_child_weight=2.0))
        assert (tree.feature[0], tree.threshold[0]) == (0, threshold)
        assert tree.value[1] == pytest.approx(left)
        assert tree.value[tree.right[0]] == pytest.approx(right)

    def test_xor_pattern_depth_two(self):
        # Exact-greedy needs a slightly asymmetric corner weight; a
        # perfectly balanced XOR has zero first-level gain everywhere.
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        target = np.array([-1.0, 1.0, 1.0, -1.5])
        tree = build_tree(x, -target, np.ones(4), stump_config(max_depth=2))
        outputs = tree.apply(x)[:, 0]
        assert (np.sign(outputs) == np.sign(target)).all()
        np.testing.assert_allclose(outputs, target)

    def test_matches_exhaustive_stump_search(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            x = rng.normal(size=n)
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 2.0, size=n)
            lam = rng.uniform(0.0, 2.0)
            tree = build_tree(x[:, None], g, h, stump_config(reg_lambda=lam))
            best = enumerate_best_stump(x, g, h, lam, 0.0)
            assert best is not None and best[0] > 0
            assert tree.threshold[0] == pytest.approx(best[1])
            assert tree.value[1] == pytest.approx(best[2])
            assert tree.value[tree.right[0]] == pytest.approx(best[3])

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("g", np.nan, "must be finite"),
            ("g", np.inf, "must be finite"),
            ("h", np.nan, "must be finite"),
            ("h", -np.inf, "must be finite"),
            ("h", -0.25, "h must be >= 0, got -0.25 in row 2"),
        ],
    )
    def test_bad_gradient_statistics_rejected(self, name, value, message):
        stats = {"g": np.array([-1.0, -1.0, 1.0, 1.0]), "h": np.ones(4)}
        stats[name][2] = value
        with pytest.raises(TrainingError, match=message):
            build_tree(np.arange(4.0)[:, None], stats["g"], stats["h"], stump_config())

    def test_mismatched_gradient_statistics_rejected(self):
        with pytest.raises(ShapeError, match="h must have one entry per feature row"):
            build_tree(np.zeros((4, 2)), np.zeros(4), np.ones(3), stump_config())

    def test_non_finite_feature_rejected(self):
        x = np.arange(8.0).reshape(4, 2)
        x[3, 1] = np.inf
        with pytest.raises(TrainingError, match="row 3"):
            build_tree(x, np.zeros(4), np.ones(4), stump_config())

    def test_values_near_the_float64_limit_split_as_scaled_down_ones(self):
        # Scaling by a power of two is exact and keeps every midpoint's bits,
        # so a tree on values beyond half the float64 range, where the sum
        # of two neighbours overflows, is the tree on the scaled-down values.
        rng = np.random.default_rng(11)
        small = rng.choice([-1.0, 1.0], size=(40, 3)) * rng.uniform(0.5, 1.79, size=(40, 3))
        g, h = rng.normal(size=40), rng.uniform(0.5, 1.0, size=40)
        config = stump_config(max_depth=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            huge = build_tree(small * 2.0**1023, g, h, config)
        tree = build_tree(small, g, h, config)
        assert (huge.feature >= 0).sum() > 3
        np.testing.assert_array_equal(huge.feature, tree.feature)
        np.testing.assert_array_equal(huge.threshold, tree.threshold * 2.0**1023)
        np.testing.assert_array_equal(huge.value, tree.value)

    def test_gradients_whose_scores_overflow_leave_a_silent_leaf(self):
        # With lambda = 1e-8 and h = 0, GL^2/(HL+lambda) of the middle cut is
        # (2e150)^2 / 1e-8, past the float64 range: the best score is inf,
        # so the node stays a leaf, and no RuntimeWarning is printed.
        x = np.arange(4.0)[:, None]
        g = np.array([1e150, 1e150, -1e150, -1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = build_tree(x, g, np.zeros(4), stump_config(reg_lambda=1e-8))
        assert tree.feature.tolist() == [-1]

    def test_max_depth_respected(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(200, 3))
        g = rng.normal(size=200)
        tree = build_tree(x, g, np.ones(200), stump_config(max_depth=3))
        depth = np.zeros(len(tree), dtype=int)
        for i in np.flatnonzero(tree.feature >= 0):  # pre-order: parents come first
            depth[i + 1] = depth[tree.right[i]] = depth[i] + 1
        assert depth.max() <= 3

    def test_min_child_weight_blocks_small_leaves(self):
        x = np.arange(6.0)[:, None]
        g = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        tree = build_tree(x, g, np.ones(6), stump_config(min_child_weight=2.0))
        # Unconstrained, the best cut isolates row 0; with unit hessians the
        # weight floor forces at least two rows into each leaf.
        assert tree.feature[0] == 0
        left = (x[:, 0] < tree.threshold[0]).sum()
        assert left >= 2 and (6 - left) >= 2
        out = tree.apply(x)[:, 0]
        leaf_rows = [(out == tree.value[1]).sum(), (out == tree.value[tree.right[0]]).sum()]
        assert leaf_rows == [2, 4]

    def test_pure_children_are_neither_scanned_nor_partitioned(self, monkeypatch):
        # Feature 0 separates the classes, so each child's rows share one
        # (g, h), and with lambda = 1 no cut of such a node gains.
        x = np.column_stack([np.repeat([0.0, 1.0], 8), np.arange(16.0)])
        g, h = np.repeat([0.5, -0.5], 8), np.full(16, 0.25)
        scans, partitions = [], []
        best_split, partition = gbdt._ScanState.best_split, gbdt._ScanState.partition

        def recording_scan(state, rows, *args):
            scans.append(rows.shape)
            return best_split(state, rows, *args)

        def recording_partition(state, rows, *args):
            partitions.append(rows.shape)
            return partition(state, rows, *args)

        monkeypatch.setattr(gbdt._ScanState, "best_split", recording_scan)
        monkeypatch.setattr(gbdt._ScanState, "partition", recording_partition)
        tree = build_tree(x, g, h, TrainConfig(max_depth=3))
        assert tree.feature.tolist() == [0, -1, -1]
        # Only the root is scanned: the gain bound prunes both children.
        assert scans == [(2, 16)]
        assert partitions == []

    def test_node_with_distinct_gradients_that_cannot_gain_is_not_scanned(self, monkeypatch):
        # Six gradients of one sign within a factor of two: with lambda = 1
        # every cut scores below the unsplit node, though no two rows agree.
        x = np.arange(6.0)[:, None]
        g, h = np.array([0.1, 0.2, 0.15, 0.12, 0.18, 0.11]), np.full(6, 0.25)
        config = TrainConfig(max_depth=3, min_child_weight=0.0)
        state = gbdt._ScanState(x, gbdt.Presort.of(x))
        g_total, h_total = float(g.sum()), float(h.sum())
        args = (g, h, g_total, h_total, config)
        assert state.best_split(state.root_rows, state.root_ranks, *args) is None
        assert not state.worth_scanning(np.arange(6), *args)
        assert state.pruned == 1
        scans = []
        best_split = gbdt._ScanState.best_split

        def recording_scan(state, rows, *args):
            scans.append(rows.shape)
            return best_split(state, rows, *args)

        monkeypatch.setattr(gbdt._ScanState, "best_split", recording_scan)
        tree = build_tree(x, g, h, config)
        assert tree.feature.tolist() == [-1]
        assert scans == []


def blobs(seed, n_per_class=40, n_classes=3, dim=5, spread=1.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(n_classes, dim))
    features = np.vstack(
        [center + spread * rng.normal(size=(n_per_class, dim)) for center in centers]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return features, labels


class TestTrain:
    def test_single_class_dataset_predicts_it(self):
        rng = np.random.default_rng(30)
        features = rng.normal(size=(25, 4))
        labels = np.ones(25, dtype=int)
        model = train(features, labels, TrainConfig(n_rounds=5, n_classes=2, max_depth=2))
        assert (predict(model, features) == 1).all()

    def test_training_objective_non_increasing(self):
        features, labels = blobs(31, spread=2.5)
        config = TrainConfig(
            n_rounds=30, max_depth=3, min_child_weight=0.0, gamma=0.0, n_classes=3
        )
        model = train(features, labels, config)
        history = np.array(model.objective_history)
        assert history.shape[0] == 31
        assert (np.diff(history) <= 1e-12).all()

    def test_separable_blobs_reach_high_accuracy(self):
        features, labels = blobs(32, spread=0.5)
        model = train(features, labels, TrainConfig(n_rounds=20, max_depth=3, n_classes=3))
        assert (predict(model, features) == labels).mean() >= 0.99

    def test_binary_route_equals_two_tree_softmax(self):
        # Reference route: two softmax trees per round, mirrored updates.
        features, labels = blobs(33, n_classes=2, spread=1.5)
        config = TrainConfig(n_rounds=8, max_depth=3, n_classes=2)
        model = train(features, labels, config)

        logits = np.zeros((features.shape[0], 2))
        onehot = labels[:, None] == np.arange(2)[None, :]
        for _ in range(config.n_rounds):
            p = gbdt.softmax(logits)
            grad = p - onehot
            hess = p * (1.0 - p)
            for c in (0, 1):
                tree = build_tree(features, grad[:, c], hess[:, c], config)
                logits[:, c] += tree.apply(features)[:, 0] * config.learning_rate
        reference = gbdt.softmax(logits)
        np.testing.assert_allclose(predict_proba(model, features), reference, atol=1e-9)

    def test_deterministic_given_inputs(self, tmp_path):
        features, labels = blobs(34)
        config = TrainConfig(n_rounds=5, max_depth=3, n_classes=3)
        paths = []
        for i in range(2):
            model = train(features, labels, config)
            path = tmp_path / f"model-{i}.rfgb"
            save_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_scale_free_argmax(self):
        features, labels = blobs(35, spread=1.5)
        config = TrainConfig(n_rounds=10, max_depth=3, n_classes=3)
        base = predict(train(features, labels, config), features)
        scaled_features = features * 3.7
        scaled = predict(train(scaled_features, labels, config), scaled_features)
        np.testing.assert_array_equal(base, scaled)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_whose_sum_overflows_split_at_a_finite_midpoint(self, sign, tmp_path):
        # 1e308 + 1.5e308 is past the float64 range; the midpoint is not.
        features = sign * np.array([[1e308], [1.5e308], [1e308], [1.5e308]])
        labels = np.array([0, 1, 0, 1])
        config = TrainConfig(n_rounds=2, max_depth=1, min_child_weight=0.0, n_classes=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = train(features, labels, config)
        splits = model.forest.feature >= 0
        np.testing.assert_array_equal(model.forest.threshold[splits], sign * 1.25e308)
        np.testing.assert_array_equal(predict(model, features), labels)
        path = tmp_path / "huge.rfgb"
        save_model(model, path)
        np.testing.assert_array_equal(predict(load_model(path), features), labels)

    def test_absent_class_root_is_pruned_beside_scanned_roots(self, caplog):
        # Class 3 has no rows: its gradients start uniform and its root is
        # pruned by the gain bound in every round, next to three scanned
        # roots. Its tree is one leaf, and the fit's INFO line counts it as
        # pruned.
        features, labels = blobs(39, n_per_class=8)
        config = TrainConfig(n_rounds=4, max_depth=3, n_classes=4)
        verdicts, worth_scanning = [], gbdt._ScanState.worth_scanning

        def recording(state, idx, *args):
            verdict = worth_scanning(state, idx, *args)
            if idx.size == features.shape[0]:  # a root: every other node has fewer rows
                verdicts.append(verdict)
            return verdict

        caplog.set_level(logging.INFO, logger="rfsentry.gbdt")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbdt._ScanState, "worth_scanning", recording)
            model = train(features, labels, config)
        rounds = [verdicts[i : i + 4] for i in range(0, len(verdicts), 4)]
        assert rounds == [[True, True, True, False]] * 4
        assert [len(nodes) for _, c, nodes in model.trees if c == 3] == [1] * 4
        (fit,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit on")]
        assert int(fit.split()[-6]) >= 4
        # A fresh fit without the recording grows the same forest.
        plain = train(features, labels, config)
        for name in ("feature", "threshold", "value", "right"):
            assert getattr(model.forest, name).tobytes() == getattr(plain.forest, name).tobytes()

    @pytest.mark.parametrize(
        "seed, n_classes, n_per_class, spread, counts",
        [(40, 10, 6, 2.0, (120, 212, 36)), (41, 2, 20, 3.0, (12, 18, 6))],
    )
    def test_fit_line_counts(self, caplog, seed, n_classes, n_per_class, spread, counts):
        # Trees, nodes scanned and nodes pruned of two fixed fits: any gate
        # verdict that moves changes a count. The gradients come from exp,
        # so the counts are pinned for the exp bits the golden forest pins.
        if sha256(np.exp(np.linspace(-10.0, 0.0, 20001))) != TestGoldenForest.EXP:
            pytest.skip("this numpy build's exp rounds differently from the pinned one")
        features, labels = blobs(seed, n_per_class, n_classes, dim=4, spread=spread)
        caplog.set_level(logging.INFO, logger="rfsentry.gbdt")
        train(features, labels, TrainConfig(n_rounds=12, max_depth=3, n_classes=n_classes))
        (fit,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit on")]
        words = fit.split()
        assert (int(words[-11]), int(words[-9]), int(words[-6])) == counts

    def test_one_feature_forest_matches_a_duplicated_column(self):
        # Every round scans one root per class over the same root gap
        # flags. Ties go to the lowest feature, so a second copy of the
        # one column must leave every tree as it is.
        rng = np.random.default_rng(42)
        labels = np.repeat(np.arange(3), 12)
        x = rng.normal(size=labels.size) + labels
        config = TrainConfig(n_rounds=3, max_depth=3, n_classes=3)
        one = train(x[:, None], labels, config)
        two = train(np.stack([x, x], axis=1), labels, config)
        for name in ("feature", "threshold", "value", "right"):
            assert getattr(one.forest, name).tobytes() == getattr(two.forest, name).tobytes()
        assert one.trees == two.trees

    @pytest.mark.parametrize("shape", [(12, 1), (2, 3)])
    def test_root_scan_leaves_the_root_gap_flags_as_they_were(self, shape):
        # For one feature or two rows the position-major gap flags have
        # the layout of the scan's mask buffers, so a view of those would
        # pass as them. A scan that writes its masks and finds no gain
        # must leave the flags as they were for the next root. Nor may a
        # root scan or a root partition write the presort's row ids and
        # ranks or the root id layout that every root scan reads; for one
        # feature that layout is a view of the presort's rows.
        n, d = shape
        x = np.arange(n * d, dtype=np.float64).reshape(d, n).T
        x[:, -1] = 1.0
        presort = gbdt.Presort.of(x)
        state = gbdt._ScanState(x, presort)
        gaps, rows, ranks = state.root_gaps.copy(), presort.rows.copy(), presort.ranks.copy()
        g = np.where(np.arange(n) < n // 2, -1.0, 1.0)
        root = (state.root_rows, state.root_ranks)
        config = stump_config(gamma=1e6)
        assert state.best_split(*root, g, np.ones(n), 0.0, float(n), config) is None
        np.testing.assert_array_equal(state.root_gaps, gaps)
        state.partition(*root, np.arange(n), g > 0, 0)
        np.testing.assert_array_equal(presort.rows, rows)
        np.testing.assert_array_equal(presort.ranks, ranks)
        np.testing.assert_array_equal(state.root_ids, rows[:, :-1].T)

    def test_non_finite_feature_names_row(self):
        features, labels = blobs(36)
        features[17, 2] = np.nan
        with pytest.raises(TrainingError, match="row 17"):
            train(features, labels, TrainConfig(n_classes=3))

    @pytest.mark.parametrize("shape", [(20, 0), (0, 3), (20,)])
    def test_empty_or_flat_features_rejected(self, shape):
        features = np.zeros(shape)
        labels = np.arange(shape[0]) % 2
        with pytest.raises(ShapeError, match="at least one row and one column"):
            train(features, labels, TrainConfig(n_classes=2))
        with pytest.raises(ShapeError, match="at least one row and one column"):
            build_tree(features, np.zeros(shape[0]), np.ones(shape[0]), stump_config())

    def test_label_range_checked(self):
        features, labels = blobs(37)
        with pytest.raises(SchemaError):
            train(features, labels, TrainConfig(n_classes=2))

    def test_float_labels_rejected(self):
        features, labels = blobs(37)
        with pytest.raises(SchemaError, match="integers"):
            train(features, labels.astype(np.float64), TrainConfig(n_classes=3))

    def test_presort_of_other_rows_rejected(self):
        features, labels = blobs(38)
        presort = gbdt.Presort.of(features[:-1])
        with pytest.raises(ShapeError, match="presort has shape"):
            train(features, labels, TrainConfig(n_classes=3), presort=presort)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(n_classes=1)
        with pytest.raises(ConfigurationError):
            TrainConfig(reg_lambda=-0.1)

    @pytest.mark.parametrize(
        "name, value", [("n_rounds", 2**16), ("max_depth", 2**31)], ids=["rounds-2^16", "depth-2^31"]
    )
    def test_config_beyond_the_model_container_rejected(self, name, value, tmp_path):
        # The container stores round ids as u16 and max_depth as i32; one less saves and loads.
        with pytest.raises(ConfigurationError, match=f"{name} must be >= [01] and < 2\\*\\*"):
            TrainConfig(**{name: value})
        model = GbdtModel(config=TrainConfig(**{name: value - 1}), feature_dim=1)
        save_model(model, tmp_path / "edge.rfgb")
        assert load_model(tmp_path / "edge.rfgb").config == model.config

    @pytest.mark.parametrize("name", ["reg_lambda", "gamma", "min_child_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_penalty_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestGoldenForest:
    """The forests `train` grew on the session corpus before the split
    scan worked on per-node partitioned orders, pinned bit for bit."""

    # Lower-band features of the session corpus, 60 rows x 1024 bins.
    FEATURES = "b630b3815f647f6034e2002a1636de8c71b00acc431d385ef6afcd7b5bbf15ea"
    # np.exp over [-10, 0]; the softmax gradients after the first round
    # depend on it, and numpy's SIMD exp and libm's differ in the last bit.
    EXP = "9acae64fdba716fa0ff6e5cd0c05ca4133dde404d1c68b04f22369cf598625be"
    # case, min_child_weight -> digests of feature, threshold, value,
    # right and of the (round, class, node count) table.
    GOLDEN = {
        (Case.III, 1.0): (
            "ce04f46821386e22d0ef19407e1d85dc0da5de1174300e4d8e2c122aacf3b196",
            "507c491090d636a8620473590071b96fbd89233a69de0eaac823bbb483131fe9",
            "ac93de07ac39ec3cf6b322a2d8f74c6351783259badfa958b31454f9959c7c12",
            "9a3121c3846cbf1b8311f9fc032e12a5ff1b636fc5e01062c88820b1da9965fe",
            "4d6628d8e6ce1b126f64f5098d6a5852426a1fb209430363022da12f40e5cc7a",
        ),
        (Case.III, 0.0): (
            "b3a970714ab0035b8c2a507dce17292a4f39c0449cae8b667753e2aaaf0ef002",
            "ae53fbe76c48bf5a94f62da4a58bc00122ef3a334866398e852675f461eefb37",
            "9ec33fa11f4962a96e5cc5c34f35d9823fb0bf41216e691ef1f600b15a295ca4",
            "36e21ec6985d33067e62ba27d58692860870cb947d32703c931c14b875c54001",
            "9e1b1902b1c45a0009aa6be46ed3704bf94c09e222b4fa72b0f7af9acad22dda",
        ),
        (Case.I, 1.0): (
            "b74e6dae34b9984308ca688a3737280e0a9ae98b10ab99625862a6e4b5d2e75f",
            "efa6448b9374bbc8ae2703e4dd3dd6271f0123e503cce883395c17558c4a1981",
            "137ba6ef2e1be94fdd7788f19c6d8aca8221cdd4ee2a8f8b9c1f469d854c9485",
            "94f94ccab42fdf758d9f7cd7b97b76ee3078c8e23f76191900982d8ae692a3ce",
            "33a347e0363197b79bd34eeda987dddb778b45288d2b41cf3ec7b6a7e7a52856",
        ),
    }

    @pytest.mark.parametrize("case, min_child_weight", sorted(GOLDEN, key=str))
    def test_forest_bits_unchanged(self, small_corpus, case, min_child_weight):
        ds = build_dataset(small_corpus, BandMode.LOWER_ONLY, case)
        # The FFT build decides the feature bits, and the thresholds are
        # midpoints of them; the digests hold only for these inputs.
        if sha256(ds.features) != self.FEATURES:
            pytest.skip("this numpy build extracts other feature bits than the pinned ones")
        if sha256(np.exp(np.linspace(-10.0, 0.0, 20001))) != self.EXP:
            pytest.skip("this numpy build's exp rounds differently from the pinned one")
        config = TrainConfig(
            n_rounds=3,
            max_depth=4,
            min_child_weight=min_child_weight,
            n_classes=ds.case.n_classes,
        )
        model = train(ds.features, ds.labels, config)
        forest = model.forest
        table = np.array([(rnd, c, len(nodes)) for rnd, c, nodes in model.trees], dtype=np.int64)
        arrays = (forest.feature, forest.threshold, forest.value, forest.right, table)
        digests = tuple(sha256(a) for a in arrays)
        assert digests == self.GOLDEN[case, min_child_weight]


def exact_problem(n=200, d=48, seed=7):
    """Integer features and g, h in multiples of 1/64: every sum the scan
    takes is exact, and no FFT or exp is involved, so the grown tree is
    the same on every platform. random.random's sequence is stable
    across Python versions."""
    rng = random.Random(seed)

    def draw(k):
        return int(rng.random() * k)

    x = np.array([[draw(16) for _ in range(d)] for _ in range(n)], dtype=np.float64)
    g = np.array([draw(129) - 64 for _ in range(n)]) / 64.0
    h = np.array([draw(17) for _ in range(n)]) / 64.0
    return x, g, h


class TestGoldenTree:
    """`build_tree` on exactly representable data, pinned bit for bit
    before the scan went position-major. It never skips."""

    # reg_lambda, min_child_weight -> digest of feature, threshold, value, right.
    GOLDEN = {
        (0.0, 0.0): "cd752e4a4b2dd301c5e50f44b3f105565538e8393461fc76ef8ea3b10e1b54a0",
        (0.0, 1.0): "f68fd0cefde15464011b9f61fb77f41da93ffdc6a47366c5577a862a0e754148",
        (1.0, 0.0): "cdbb4b802b541c0edd0ff20693bc4492e950ab36e3cff298ca2a7358c2bc7c5b",
        (1.0, 1.0): "e70e3f43f9824579bf6e9eb314f33772f450d3f16c389ed9fbd498b8140c8676",
    }

    @pytest.mark.parametrize("reg_lambda, min_child_weight", sorted(GOLDEN))
    def test_tree_bits_unchanged(self, reg_lambda, min_child_weight):
        x, g, h = exact_problem()
        config = TrainConfig(max_depth=4, reg_lambda=reg_lambda, min_child_weight=min_child_weight)
        tree = build_tree(x, g, h, config)
        dtypes = (("feature", "<i4"), ("threshold", "<f8"), ("value", "<f8"), ("right", "<i4"))
        blob = b"".join(getattr(tree, name).astype(dtype).tobytes() for name, dtype in dtypes)
        assert hashlib.sha256(blob).hexdigest() == self.GOLDEN[reg_lambda, min_child_weight]

class TestPredict:
    def test_zero_round_model_is_uniform(self):
        features, labels = blobs(40, n_classes=4)
        model = train(features, labels, TrainConfig(n_rounds=0, n_classes=4))
        probs = predict_proba(model, features)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_rows_sum_to_one(self):
        features, labels = blobs(41)
        model = train(features, labels, TrainConfig(n_rounds=6, max_depth=3, n_classes=3))
        probs = predict_proba(model, features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_single_tree_is_piecewise_constant(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        config = TrainConfig(
            n_rounds=1, max_depth=1, min_child_weight=0.0, n_classes=2, learning_rate=0.5
        )
        model = train(x, y, config)
        threshold = model.forest.threshold[model.trees[0][2].start]
        below = predict_proba(model, np.array([threshold - 0.25]))
        above = predict_proba(model, np.array([threshold + 0.25]))
        np.testing.assert_allclose(
            predict_proba(model, np.array([[-5.0], [0.49], [0.51], [99.0]])),
            np.vstack([below, below, above, above]),
            atol=1e-15,
        )

    def test_exact_tie_goes_to_lowest_class(self):
        features, labels = blobs(42, n_classes=2)
        model = train(features, labels, TrainConfig(n_rounds=0, n_classes=2))
        assert predict(model, features[0]) == 0

    def test_batch_matches_single_rows(self):
        features, labels = blobs(43)
        model = train(features, labels, TrainConfig(n_rounds=4, max_depth=3, n_classes=3))
        batch = predict(model, features)
        singles = np.array([predict(model, row) for row in features])
        np.testing.assert_array_equal(batch, singles)

    @pytest.mark.parametrize("n_classes", [2, 4])
    def test_forest_walk_matches_per_row_loop(self, n_classes):
        features, labels = blobs(45 + n_classes, n_classes=n_classes, spread=2.0)
        model = train(features, labels, TrainConfig(n_rounds=5, max_depth=4, n_classes=n_classes))
        forest = model.forest
        probe = np.random.default_rng(46).normal(scale=4.0, size=(60, features.shape[1]))
        roots = [nodes.start for _, _, nodes in model.trees]
        leaf = forest.apply(probe, roots)

        logits = np.zeros((len(probe), n_classes))
        for r, row in enumerate(probe):
            for t, (_, class_id, _) in enumerate(model.trees):
                i = roots[t]
                while forest.feature[i] >= 0:
                    i = i + 1 if row[forest.feature[i]] < forest.threshold[i] else forest.right[i]
                assert leaf[r, t] == forest.value[i]
                if n_classes == 2:
                    logits[r, 1] += forest.value[i]
                    logits[r, 0] -= forest.value[i]
                else:
                    logits[r, class_id] += forest.value[i]
        np.testing.assert_array_equal(predict_proba(model, probe), gbdt.softmax(logits))

    def test_dimension_mismatch(self):
        features, labels = blobs(44)
        model = train(features, labels, TrainConfig(n_rounds=1, n_classes=3))
        with pytest.raises(ShapeError, match="feature dimension"):
            predict(model, features[:, :3])


class TestModelIO:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        features, labels = blobs(50)
        model = train(features, labels, TrainConfig(n_rounds=6, max_depth=4, n_classes=3))
        model.band_mode = BandMode.CONCATENATED
        model.extraction = Extraction(frame_size=512, hop=128, q=3, window="hann")
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        restored = load_model(path)
        rng = np.random.default_rng(51)
        probe = rng.normal(size=(100, features.shape[1]))
        np.testing.assert_array_equal(predict_proba(model, probe), predict_proba(restored, probe))
        assert restored.config == model.config
        assert (restored.band_mode, restored.extraction) == (model.band_mode, model.extraction)

    def test_empty_forest_round_trips(self, tmp_path):
        model = GbdtModel(config=TrainConfig(n_rounds=0, n_classes=2), feature_dim=7)
        path = tmp_path / "empty.rfgb"
        save_model(model, path)
        restored = load_model(path)
        assert restored.trees == []
        assert restored.feature_dim == 7

    @pytest.mark.parametrize("n_classes", [2, 10])
    def test_tree_table_round_trips_as_python_ints(self, tmp_path, n_classes):
        features, labels = blobs(52, n_per_class=8, n_classes=n_classes)
        model = train(features, labels, TrainConfig(n_rounds=3, max_depth=3, n_classes=n_classes))
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        restored = load_model(path)
        assert restored.trees == model.trees
        assert len(restored.trees) == 3 * (1 if n_classes == 2 else n_classes)
        for rnd, class_id, nodes in restored.trees:
            assert (type(rnd), type(class_id), type(nodes)) == (int, int, range)

    def test_corrupted_magic(self, tmp_path):
        features, labels = blobs(52)
        model = train(features, labels, TrainConfig(n_rounds=1, n_classes=3))
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        features, labels = blobs(53)
        model = train(features, labels, TrainConfig(n_rounds=1, n_classes=3))
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 99"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        features, labels = blobs(54)
        model = train(features, labels, TrainConfig(n_rounds=2, n_classes=3))
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(FormatError):
            load_model(path)
        # A prefix that declares 5 trees and ends before the tree table.
        prefix = bytearray(data[: gbdt._PREFIX.size])
        struct.pack_into("<I", prefix, gbdt._PREFIX.size - 4, 5)
        path.write_bytes(bytes(prefix))
        with pytest.raises(FormatError, match="no room for a table of 5 trees"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        features, labels = blobs(55)
        model = train(features, labels, TrainConfig(n_rounds=1, n_classes=3))
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_model(path)

    def test_out_of_range_feature_index_rejected(self, tmp_path):
        model = GbdtModel(
            config=TrainConfig(n_rounds=1, n_classes=2),
            feature_dim=5,
            forest=Tree.from_rows([[10, 0.5, 0.0, 2], [-1, 0.0, -1.0, -1], [-1, 0.0, 1.0, -1]]),
            trees=[(0, 1, range(3))],
        )
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        with pytest.raises(FormatError, match="feature 10"):
            load_model(path)

    def test_tree_with_no_nodes_rejected(self, tmp_path):
        model = GbdtModel(
            config=TrainConfig(n_rounds=2, n_classes=2),
            feature_dim=1,
            forest=Tree.from_rows([[-1, 0.0, 0.5, -1]]),
            trees=[(0, 1, range(1)), (1, 1, range(1, 1))],
        )
        path = tmp_path / "model.rfgb"
        save_model(model, path)
        with pytest.raises(FormatError, match="tree with no nodes"):
            load_model(path)

    @staticmethod
    def chain_model_bytes(
        depth,
        max_depth,
        feature_dim=3,
        version=3,
        nodes=None,
        right=None,
        threshold=None,
        value=None,
        layout=(0, 0, 2048, 2048, 8),
    ):
        """A one-tree model whose splits all go left, packed by hand.

        nodes overrides the node count in the tree table, and right,
        threshold and value the node arrays; all default to the true
        chain's. layout is the header's band code, window code, frame
        size, hop and q; bytes stand in for all five.
        """
        config = struct.pack("<ididddi", 1, 0.3, max_depth, 1.0, 0.0, 1.0, 2)
        n = 2 * depth + 1
        feature = [0] * depth + [-1] * (depth + 1)
        if threshold is None:
            threshold = [0.5] * depth + [0.0] * (depth + 1)
        if value is None:
            value = [0.0] * depth + [-1.0] + [1.0] * depth
        if right is None:
            right = [2 * depth - i for i in range(depth)] + [-1] * (depth + 1)
        if not isinstance(layout, bytes):
            layout = struct.pack("<BBIII", *layout)
        return (
            struct.pack("<4sH", b"RFGB", version)
            + config
            + layout
            + struct.pack("<II", feature_dim, 1)
            + struct.pack("<HHI", 0, 1, n if nodes is None else nodes)
            + struct.pack(f"<{n}i", *feature)
            + struct.pack(f"<{n}d", *threshold)
            + struct.pack(f"<{n}d", *value)
            + struct.pack(f"<{n}i", *right)
        )

    def test_deep_tree_loads_without_recursion(self, tmp_path):
        path = tmp_path / "deep.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=5000, max_depth=5000))
        model = load_model(path)
        forest = model.forest
        node, depth = model.trees[0][2].start, 0
        while forest.feature[node] >= 0:
            node, depth = node + 1, depth + 1
        assert depth == 5000 and forest.value[node] == -1.0
        probe = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(forest.apply(probe)[:, 0], [-1.0, 1.0])

    def test_deep_tree_saves_without_recursion(self, tmp_path):
        data = self.chain_model_bytes(depth=5000, max_depth=5000)
        path = tmp_path / "deep.rfgb"
        path.write_bytes(data)
        model = load_model(path)
        again = tmp_path / "again.rfgb"
        save_model(model, again)
        assert again.read_bytes() == data
        restored = load_model(again)
        for name in ("feature", "threshold", "value", "right"):
            expected = getattr(model.forest, name)
            np.testing.assert_array_equal(getattr(restored.forest, name), expected)
        assert restored.trees == model.trees
        probe = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(restored.forest.apply(probe)[:, 0], [-1.0, 1.0])

    def test_tree_deeper_than_max_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=4, max_depth=4))
        assert len(load_model(path).trees) == 1
        path.write_bytes(self.chain_model_bytes(depth=5, max_depth=4))
        with pytest.raises(FormatError, match="max_depth 4"):
            load_model(path)

    def test_invalid_stored_config_is_format_error(self, tmp_path):
        path = tmp_path / "config.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=0, max_depth=0))
        with pytest.raises(FormatError, match="max_depth must be >= 1"):
            load_model(path)

    @pytest.mark.parametrize("index, name", enumerate(["reg_lambda", "gamma", "min_child_weight"]))
    def test_non_finite_stored_penalty_is_format_error(self, tmp_path, index, name):
        data = bytearray(self.chain_model_bytes(depth=1, max_depth=1))
        # magic, version, n_rounds, learning_rate, max_depth, then the three doubles
        offset = struct.calcsize("<4sHidi") + 8 * index
        assert struct.unpack_from("<d", data, offset)[0] == getattr(TrainConfig(max_depth=1), name)
        struct.pack_into("<d", data, offset, float("nan"))
        path = tmp_path / "nan.rfgb"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{name} must be finite"):
            load_model(path)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"value": [0.0, -1.0, math.nan]}, "non-finite leaf value"),
            ({"threshold": [math.inf, 0.0, 0.0]}, "non-finite threshold"),
        ],
        ids=["nan-leaf", "inf-threshold"],
    )
    def test_non_finite_node_or_base_score_is_format_error(self, tmp_path, override, message):
        path = tmp_path / "model.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=1, max_depth=1))
        assert len(load_model(path).trees) == 1
        path.write_bytes(self.chain_model_bytes(depth=1, max_depth=1, **override))
        with pytest.raises(FormatError, match=message):
            load_model(path)
        argv = ["predict", "--model", str(path), "--features", str(tmp_path / "absent.rfds")]
        assert main(argv) == 3

    @pytest.mark.parametrize(
        "layout, message",
        [
            ((3, 0, 2048, 2048, 8), "bad band code 3 or window code 0"),
            ((0, 2, 2048, 2048, 8), "bad band code 0 or window code 2"),
            ((0, 0, 3, 3, 1), "frame size must be a power of two"),
            ((2, 1, 2048, 0, 8), "hop must be >= 1, got 0"),
            ((1, 0, 2048, 2048, 0), "q must be in \\[1, 1024\\], got 0"),
        ],
        ids=["band-code-3", "window-code-2", "frame-size-3", "hop-0", "q-0"],
    )
    def test_bad_stored_layout_is_format_error(self, tmp_path, layout, message, capsys):
        path = tmp_path / "layout.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=1, max_depth=1, layout=layout))
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")
        # predict reads the model first: exit 3 with one error line, no traceback.
        argv = ["predict", "--model", str(path), "--lb", str(tmp_path / "absent.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {exc.value}") and err.count("\n") == 1

    def test_class_outside_model_rejected(self, tmp_path):
        data = bytearray(self.chain_model_bytes(depth=1, max_depth=1))
        struct.pack_into("<H", data, gbdt._PREFIX.size + 2, 2)  # the tree's class id
        path = tmp_path / "class.rfgb"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="class outside"):
            load_model(path)

    def test_node_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "count.rfgb"
        for claimed in (4, 6):
            path.write_bytes(self.chain_model_bytes(depth=2, max_depth=2, nodes=claimed))
            with pytest.raises(FormatError, match="node count"):
                load_model(path)

    def test_huge_node_count_rejected_without_allocating(self, tmp_path):
        data = self.chain_model_bytes(depth=1, max_depth=1, nodes=2**32 - 1)
        assert len(data) < 160
        path = tmp_path / "huge.rfgb"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=2, max_depth=2, version=1))
        with pytest.raises(FormatError, match="version 1"):
            load_model(path)
        # The model is read before the (absent) feature cache, so exit 3.
        argv = ["predict", "--model", str(path), "--features", str(tmp_path / "absent.rfds")]
        assert main(argv) == 3

    def test_version_2_rejected(self, tmp_path, capsys):
        # Version 2 held a reserved f64 where version 3 holds the band layout and extraction.
        path = tmp_path / "v2.rfgb"
        v2 = self.chain_model_bytes(depth=2, max_depth=2, version=2, layout=struct.pack("<d", 0.0))
        path.write_bytes(v2)
        with pytest.raises(FormatError, match="unsupported model container version 2; retrain the model"):
            load_model(path)
        # A v2 prefix alone is shorter than a v3 one: still the version error, not truncation.
        path.write_bytes(v2[: struct.calcsize("<4sHididddidII")])
        with pytest.raises(FormatError, match="version 2"):
            load_model(path)
        argv = ["predict", "--model", str(path), "--lb", str(tmp_path / "absent.csv")]
        assert main(argv) == 3
        assert "version 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "right, message",
        [
            ([99, 4, -1, -1, -1], "right child"),
            ([1, 4, -1, -1, -1], "right child"),
            ([4, 5, -1, -1, -1], "right child"),
            ([3, 3, -1, -1, -1], "more than one split"),  # node 3 shared, node 4 unreached
            # Split 2 is also split 0's right child: the level walk makes 9 visits to 7 nodes.
            ([2, 5, 6, -1, -1, -1, -1], "^a node is the child of more than one split"),
        ],
    )
    def test_bad_right_child_rejected(self, tmp_path, right, message):
        # depth-d chain: splits 0..d-1, leaves d..2d; right children lie in (i + 1, 2d + 1).
        depth = len(right) // 2
        path = tmp_path / "right.rfgb"
        path.write_bytes(self.chain_model_bytes(depth=depth, max_depth=depth, right=right))
        with pytest.raises(FormatError, match=message):
            load_model(path)
