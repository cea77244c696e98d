"""Regularized gradient tree boosting with exact greedy split search.

Each round fits one regression tree per class to the softmax gradient
and hessian of the multiclass log-loss at the current margins, then
shrinks the leaf values by the learning rate. Split candidates are the
midpoints between consecutive distinct sorted feature values; the best
candidate is the one maximizing the second-order gain

    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and a leaf's value is -G/(H+lambda). The two-class case trains a single
tree per round on the positive class and mirrors its output on the
negative class, which reproduces the two-tree softmax model at half the
cost.

The scan follows exact greedy search over presorted columns. Each fit
takes every feature's sorted order from a `Presort` (cross-validation
sorts once and filters per fold) and builds one workspace of flat
(d x n) buffers that every node of every tree reuses through out=
arguments. A node keeps a (d, m) block of its rows in per-feature
sorted order, one row per feature; when it splits, the block is stably
partitioned in place into its children's blocks, so a node costs d x m
rather than d x n. The scan reads the block position-major, as
(m - 1, d) planes whose row p holds every feature's p-th sorted row, so
each prefix-sum step adds d lanes in one call. Because h >= 0, the
sorted positions where some feature can leave min_child_weight on both
sides form one range, the hessian window, and only it is scored. A node
is not scanned when its hessian sum is below twice min_child_weight, or
when its rows all carry one (g, h) and the one score row all features
then share cannot gain; a split whose children are both unscanned is
not partitioned. On equal scores the lowest feature wins, then the
lowest threshold. Every sum is taken in the same order as a plain
per-node scan, so the trees are bit-identical to one.

A forest is one set of flat node arrays (:class:`Tree`), each tree's
nodes in pre-order so a split's left child directly follows it.
Prediction walks all rows through all trees together, one level per
step, and the model container stores the arrays as they are.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateLeafError,
    FormatError,
    SchemaError,
    ShapeError,
    TrainingError,
)


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters. Defaults follow the usual tree-boosting ones."""

    n_rounds: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    n_classes: int = 2

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise ConfigurationError(f"n_rounds must be >= 0, got {self.n_rounds}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        for name in ("reg_lambda", "gamma", "min_child_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if self.n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {self.n_classes}")


@dataclass
class Tree:
    """Node arrays of one or more regression trees, each in pre-order.

    Node i is a leaf when feature[i] is -1 and then predicts value[i].
    Otherwise rows whose feature value is strictly below threshold[i]
    go to the left child i + 1 and the others to right[i], an index
    into the same arrays. Leaves hold threshold 0 and right -1, splits
    hold value 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.right = np.asarray(self.right, dtype=np.int32)

    @classmethod
    def from_rows(cls, nodes: list[list]) -> "Tree":
        """Arrays from a list of [feature, threshold, value, right] rows."""
        return cls(*np.reshape(np.array(nodes, dtype=np.float64), (-1, 4)).T)

    def __len__(self) -> int:
        return self.feature.shape[0]

    def apply(self, features: np.ndarray, roots=(0,)) -> np.ndarray:
        """Leaf values of the trees rooted at `roots`, shape (n_rows, n_roots).

        Every row walks every tree at once, one level per step. For the
        walk a leaf becomes its own right child with threshold -inf, so
        a row that has reached a leaf stays there.
        """
        n, d = features.shape
        split = self.feature >= 0
        feature = np.maximum(self.feature, 0)
        threshold = np.where(split, self.threshold, -np.inf)
        right = np.where(split, self.right, np.arange(len(self)))
        cells, row_start = features.ravel(), np.arange(n)[:, None] * d
        node = np.tile(np.asarray(roots, dtype=np.intp), (n, 1))
        while split[node].any():
            go_left = cells[row_start + feature[node]] < threshold[node]
            node = np.where(go_left, node + 1, right[node])
        return self.value[node]


@dataclass
class GbdtModel:
    """Trained forest: one `Tree` of node arrays plus configuration.

    trees lists (round, class_id, nodes) per tree, where nodes is the
    range of the tree's entries in the forest arrays. objective_history
    holds the regularized training objective before any round and after
    each round; it is diagnostic only and is not serialized.
    """

    config: TrainConfig
    feature_dim: int
    forest: Tree = field(default_factory=lambda: Tree([], [], [], []))
    trees: list[tuple[int, int, range]] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad_hess(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient p_c - [c == label] and hessian p_c (1 - p_c) of the log-loss,
    row by row over an (n, K) logits matrix and its n labels."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ShapeError(
            f"expected (n, K) logits and n labels, got {logits.shape} and {labels.shape}"
        )
    k = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"labels out of range for {k} classes")
    p = softmax(logits)
    return p - (labels[:, None] == np.arange(k)), p * (1.0 - p)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Optimal leaf value -G / (H + lambda) of the quadratic objective."""
    if h_sum < 0 or reg_lambda < 0:
        raise ConfigurationError("hessian sum and lambda must be >= 0")
    denom = h_sum + reg_lambda
    if denom <= 0:
        raise DegenerateLeafError("leaf has zero hessian mass and no regularization")
    return -g_sum / denom


@dataclass(frozen=True)
class Presort:
    """Each feature's stable row order and sorted values, (d, n): the scan's root block.

    Cross-validation sorts its matrix once and gives each fold the subset
    of its training rows, a stable filter that equals a fresh stable sort.
    """

    rows: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, features: np.ndarray) -> "Presort":
        columns = np.ascontiguousarray(features.T)  # a contiguous row per feature sorts faster
        order = np.argsort(columns, axis=1, kind="stable")
        return cls(order, np.take_along_axis(columns, order, axis=1))

    def subset(self, mask: np.ndarray) -> "Presort":
        """The presort of the rows where the boolean mask holds, renumbered from 0."""
        keep, local = mask[self.rows], np.cumsum(mask, dtype=np.intp) - 1
        d = self.rows.shape[0]
        return Presort(local[self.rows[keep]].reshape(d, -1), self.vals[keep].reshape(d, -1))


def _midpoint(left, right):
    """0.5 * (left + right), or 0.5 * left + 0.5 * right where that sum overflows."""
    with np.errstate(over="ignore"):
        mid = 0.5 * (left + right)
    return np.where(np.isinf(mid), 0.5 * left + 0.5 * right, mid)


def _heavy_enough(m: int, h_total: float, mcw: float) -> bool:
    # Below 2 * mcw every hl >= mcw leaves fl(h_total - hl) < mcw, so no
    # candidate is valid; the 1e-9 margin covers the subtraction's rounding.
    return m >= 2 and h_total >= 2.0 * mcw * (1.0 - 1e-9)


class _ScanState:
    """Buffers of the exact split scan, built once per fit and reused by
    every node of every tree.

    The root's rows never change: its stable per-feature order and sorted
    values, shape (d, n), come from a `Presort` (in cross-validation, one
    filtered per fold), and which gaps between consecutive sorted values
    can hold a threshold is computed once, stored position-major as
    (n - 1, d) for the scan. A node works on a (d, m) block of row ids
    and sorted values, one row per feature. When it splits, the block is
    stably partitioned in place into [left | right] through a scratch
    buffer, so each child's block keeps its rows in sorted order and a
    node costs d x m, not d x n; a split whose children both stay
    unscanned (`worth_scanning`) is not partitioned. Blocks live in two
    flat (d x n) arrays; a child's block is the part of its parent's
    that it takes, so depth-first growth never overwrites a block that
    is still pending.

    The scan transposes a block's row ids into the third scratch buffer
    and gathers h, and g up to the window's end, into the first two as
    (m - 1, d) planes of prefix sums. Once the gathers are done the third
    buffer holds the window's transposed values, then hr; the fourth
    holds midpoints, then the score. Every temporary is written with
    out=; a partition allocates only its two index arrays. Row ids stay
    intp: np.take casts any other index dtype to a fresh intp array on
    each call. np.take runs with mode="clip" because with out= and the
    default mode="raise" it writes into a copy of out; the ids are in
    range.
    """

    def __init__(self, features: np.ndarray, presort: Presort) -> None:
        n, d = features.shape
        if presort.rows.shape != (d, n):
            raise ShapeError(f"presort has shape {presort.rows.shape}, features {(n, d)}")
        self.root_rows, self.root_vals = presort.rows, presort.vals
        left, right = self.root_vals[:, :-1], self.root_vals[:, 1:]
        # Only values beyond half the float64 range (9e307) can overflow a midpoint's sum.
        self.can_overflow = bool(np.abs(self.root_vals[:, [0, -1]]).max() > 8.9e307)
        mid = _midpoint(left, right) if self.can_overflow else 0.5 * (left + right)
        self.root_gaps = np.ascontiguousarray(((right > left) & (mid > left)).T)
        self.features = features
        self.rows = np.empty(d * n, dtype=np.intp)
        self.vals = np.empty(d * n, dtype=np.float64)
        self.scratch = np.empty((4, d * n), dtype=np.float64)
        self.masks = np.empty((2, d * n), dtype=np.bool_)
        self.go_left = np.empty(n, dtype=np.bool_)

    def block(self, depth: int, offset: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and sorted values, (d, m), of the node whose block starts at offset."""
        if depth == 0:
            return self.root_rows, self.root_vals
        d = self.features.shape[1]
        span = slice(offset, offset + d * m)
        return self.rows[span].reshape(d, m), self.vals[span].reshape(d, m)

    def best_split(
        self, rows, vals, g, h, g_total: float, h_total: float, config: TrainConfig
    ) -> tuple[int, float] | None:
        """The split of highest gain among all features, or None if none gains.

        Candidates sit at midpoints between consecutive distinct values of
        the node's rows. The scan runs position-major: row p of each
        (m - 1, d) plane holds every feature's candidate after its p-th
        sorted row, and prefix sums are added one row at a time, d lanes
        per call, in the same order as a per-feature cumsum. Only the rows
        of the hessian window are scored. On score ties the lowest feature
        wins, then the lowest threshold.
        """
        lam, mcw = config.reg_lambda, config.min_child_weight
        d, m = rows.shape
        if not _heavy_enough(m, h_total, mcw):
            return None
        cum_h, cum_g, spare, temp = (buf[: d * (m - 1)].reshape(m - 1, d) for buf in self.scratch)
        rows_t = spare.view(np.intp)
        np.copyto(rows_t, rows[:, :-1].T)
        np.take(h, rows_t, out=cum_h, mode="clip")
        for p in range(1, m - 1):
            np.add(cum_h[p - 1], cum_h[p], out=cum_h[p])
        # h >= 0, so along each feature hl never falls and fl(h_total - hl)
        # never rises: rows before lo have every hl < mcw, rows after hi
        # every fl(h_total - hl) < mcw, and no candidate there is valid.
        lo = m - 1 - np.count_nonzero(cum_h.max(axis=1) >= mcw)
        hi = np.count_nonzero(h_total - cum_h.min(axis=1) >= mcw) - 1
        if lo > hi:
            return None
        np.take(g, rows_t[: hi + 1], out=cum_g[: hi + 1], mode="clip")
        for p in range(1, hi + 1):
            np.add(cum_g[p - 1], cum_g[p], out=cum_g[p])
        w = hi + 1 - lo
        gl, hl, temp = cum_g[lo : hi + 1], cum_h[lo : hi + 1], temp[:w]
        valid, test = (buf[: w * d].reshape(w, d) for buf in self.masks)
        if rows is self.root_rows:
            np.copyto(valid, self.root_gaps[lo : hi + 1])
        else:
            # The row ids are gathered; their space holds the values now.
            vals_t = self.scratch[2, : (w + 1) * d].reshape(w + 1, d)
            np.copyto(vals_t, vals[:, lo : hi + 2].T)
            left_v, right_v = vals_t[:-1], vals_t[1:]
            np.greater(right_v, left_v, out=valid)
            if self.can_overflow:
                mid = _midpoint(left_v, right_v)
            else:
                mid = np.multiply(np.add(left_v, right_v, out=temp), 0.5, out=temp)
            valid &= np.greater(mid, left_v, out=test)
        hr = spare[:w]
        valid &= np.greater_equal(hl, mcw, out=test)
        np.subtract(h_total, hl, out=hr)
        valid &= np.greater_equal(hr, mcw, out=test)
        hl += lam
        hr += lam
        if not lam > 0.0:
            # With lam > 0 these follow from hl, hr >= mcw >= 0.
            valid &= np.greater(hl, 0.0, out=test)
            valid &= np.greater(hr, 0.0, out=test)
        score = np.subtract(g_total, gl, out=temp)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.multiply(score, score, out=score), hr, out=score)
            np.divide(np.multiply(gl, gl, out=gl), hl, out=gl)
        np.add(gl, score, out=score)
        np.copyto(score, -np.inf, where=np.logical_not(valid, out=valid))
        best = score.max()
        if not np.isfinite(best):
            return None
        gain = 0.5 * (best - g_total * g_total / (h_total + lam)) - config.gamma
        if not gain > 0.0:
            return None
        # Hits are in (position, feature) order; the first of the lowest
        # feature is also its lowest position.
        hits = np.flatnonzero(np.equal(score, best, out=valid))
        first = np.argmin(hits % d)
        pos, feature = divmod(int(hits[first]), d)
        a, b = vals[feature, lo + pos], vals[feature, lo + pos + 1]
        return feature, float(_midpoint(a, b) if self.can_overflow else 0.5 * (a + b))

    def worth_scanning(self, idx, g, h, g_total: float, h_total: float, config: TrainConfig) -> bool:
        """False only where `best_split` would find no split in the node of rows idx.

        If the rows all carry one (g, h), every feature has the same prefix
        sums, so the node is scored as one feature whose every gap can hold
        a threshold; leaving out the gap mask can only add candidates.
        """
        g_node, h_node = g[idx], h[idx]
        if idx.size and (g_node == g_node[0]).all() and (h_node == h_node[0]).all():
            ramp = np.arange(idx.size, dtype=np.float64)[None, :]
            return self.best_split(idx[None, :], ramp, g, h, g_total, h_total, config) is not None
        return _heavy_enough(idx.size, h_total, config.min_child_weight)

    def partition(self, rows, vals, idx, go_left, offset: int) -> None:
        """Stably split the node's block into [left | right] at offset.

        Each feature's rows keep their sorted order on both sides. The
        root's block is read from the root arrays; any other block is
        rewritten in place through the scratch buffers.
        """
        self.go_left[idx] = go_left
        d, m = rows.shape
        in_place = rows is not self.root_rows
        if in_place:
            out_rows = self.scratch[0].view(np.intp)[: d * m]
            out_vals = self.scratch[1, : d * m]
        else:
            out_rows = self.rows[offset : offset + d * m]
            out_vals = self.vals[offset : offset + d * m]
        mask = self.masks[0, : d * m]
        np.take(self.go_left, rows, out=mask.reshape(d, m), mode="clip")
        left = np.flatnonzero(mask)
        right = np.flatnonzero(np.logical_not(mask, out=mask))
        for src, dst in ((rows, out_rows), (vals, out_vals)):
            np.take(src, left, out=dst[: left.shape[0]], mode="clip")
            np.take(src, right, out=dst[left.shape[0] :], mode="clip")
        if in_place:
            np.copyto(rows, out_rows.reshape(d, m))
            np.copyto(vals, out_vals.reshape(d, m))


def _grow_tree(
    state: _ScanState,
    g: np.ndarray,
    h: np.ndarray,
    config: TrainConfig,
    nodes: list[list],
    scale: float,
) -> np.ndarray:
    """Depth-first growth from an explicit stack, left child first.

    Appends the tree to `nodes` in pre-order, one [feature, threshold,
    value, right] row per node, with `right` counting from the start of
    `nodes` and leaf values multiplied by `scale`. Returns the leaf
    value each training row lands in.
    """
    n, d = state.features.shape
    out = np.empty(n, dtype=np.float64)

    def entry(idx, depth, parent, offset):
        # row ids ascending, depth, parent split awaiting its right child,
        # block offset, g and h sums, and whether the node is scanned
        g_total, h_total = float(g[idx].sum()), float(h[idx].sum())
        scan = depth < config.max_depth and state.worth_scanning(idx, g, h, g_total, h_total, config)
        return idx, depth, parent, offset, g_total, h_total, scan

    pending = [entry(np.arange(n), 0, -1, 0)]
    while pending:
        idx, depth, parent, offset, g_total, h_total, scan = pending.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        if scan:
            rows, vals = state.block(depth, offset, idx.shape[0])
            found = state.best_split(rows, vals, g, h, g_total, h_total, config)
            if found is not None:
                feature, threshold = found
                go_left = state.features[idx, feature] < threshold
                left_idx = idx[go_left]
                right_idx = idx[~go_left]
                if left_idx.size and right_idx.size:
                    left = entry(left_idx, depth + 1, -1, offset)
                    right = entry(right_idx, depth + 1, len(nodes), offset + d * left_idx.size)
                    if left[-1] or right[-1]:  # only a scan reads a block
                        state.partition(rows, vals, idx, go_left, offset)
                    pending += (right, left)
                    nodes.append([feature, threshold, 0.0, -1])
                    continue
        weight = leaf_weight(g_total, h_total, config.reg_lambda) * scale
        out[idx] = weight
        nodes.append([-1, 0.0, weight, -1])
    return out


def build_tree(
    features: np.ndarray, g: np.ndarray, h: np.ndarray, config: TrainConfig
) -> Tree:
    """Grow one regression tree on per-row gradient/hessian statistics.

    Leaf values are unscaled; the training loop applies the learning
    rate. Ties between equal-gain splits resolve to the lowest feature
    index, then the lowest threshold. g and h must be finite and h >= 0,
    which the scan's hessian window relies on.
    """
    features = _check_training_arrays(features, g=g, h=h)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise TrainingError("g and h must be finite")
    bad = np.flatnonzero(h < 0)
    if bad.size:
        raise TrainingError(f"h must be >= 0, got {h[bad[0]]} in row {bad[0]}")
    nodes = []
    _grow_tree(_ScanState(features, Presort.of(features)), g, h, config, nodes, 1.0)
    return Tree.from_rows(nodes)


def _check_training_arrays(features: np.ndarray, **per_row) -> np.ndarray:
    """The input check of `train` and `build_tree`.

    Returns the features as a contiguous float64 matrix after checking
    that it has at least one row and one column and only finite entries,
    and that each per-row array has one entry per row.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or 0 in features.shape:
        raise ShapeError(
            f"features must be a 2-D matrix with at least one row and one column, "
            f"got shape {features.shape}"
        )
    for name, values in per_row.items():
        if np.shape(values) != features.shape[:1]:
            raise ShapeError(f"{name} must have one entry per feature row")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise TrainingError(f"non-finite feature in row {bad[0]}")
    return features


def _penalty(nodes: list[list], start: int, config: TrainConfig) -> float:
    """gamma per leaf plus lambda/2 times the squared leaf values, from node start on."""
    leaves = [w for f, _, w, _ in nodes[start:] if f < 0]
    return config.gamma * len(leaves) + 0.5 * config.reg_lambda * sum(w**2 for w in leaves)


def _logloss(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float((lse - shifted[np.arange(len(labels)), labels]).sum())


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig, presort=None) -> GbdtModel:
    """Boost n_rounds rounds of per-class trees; deterministic given inputs.

    A given presort must be the `Presort` of features; it saves the sort.
    """
    features = _check_training_arrays(features, labels=labels)
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise SchemaError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= config.n_classes:
        raise SchemaError(
            f"labels must lie in [0, {config.n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )

    n, d = features.shape
    k = config.n_classes
    binary = k == 2
    state = _ScanState(features, Presort.of(features) if presort is None else presort)
    logits = np.zeros((n, k))
    model = GbdtModel(config=config, feature_dim=d)
    penalty = 0.0
    model.objective_history.append((_logloss(logits, labels) + penalty) / n)

    class_ids = (1,) if binary else tuple(range(k))
    nodes = []
    for rnd in range(config.n_rounds):
        grad, hess = softmax_grad_hess(logits, labels)
        for c in class_ids:
            g_c = np.ascontiguousarray(grad[:, c])
            h_c = np.ascontiguousarray(hess[:, c])
            start = len(nodes)
            out = _grow_tree(state, g_c, h_c, config, nodes, config.learning_rate)
            if binary:
                logits[:, 1] += out
                logits[:, 0] -= out
            else:
                logits[:, c] += out
            model.trees.append((rnd, c, range(start, len(nodes))))
            penalty += _penalty(nodes, start, config)
        model.objective_history.append((_logloss(logits, labels) + penalty) / n)
    model.forest = Tree.from_rows(nodes)
    return model


def _accumulate_logits(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Each tree's output, added from zero in forest order per class.

    ufunc.at adds unbuffered in index order, so the sums are
    bit-identical to adding one tree at a time.
    """
    n, k = features.shape[0], model.config.n_classes
    leaf = model.forest.apply(features, [nodes.start for _, _, nodes in model.trees])
    logits = np.zeros((n, k))
    rows = np.broadcast_to(np.arange(n)[:, None], leaf.shape)
    if k == 2:
        np.add.at(logits, (rows, 1), leaf)
        np.subtract.at(logits, (rows, 0), leaf)
    else:
        class_ids = np.array([c for _, c, _ in model.trees], dtype=np.intp)
        np.add.at(logits, (rows, class_ids), leaf)
    return logits


def predict_proba(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Per-class probabilities for one row (1-D) or a matrix of rows."""
    features = np.asarray(features, dtype=np.float64)
    single = features.ndim == 1
    if single:
        features = features[None, :]
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise ShapeError(
            f"expected feature dimension {model.feature_dim}, got shape {features.shape}"
        )
    probs = softmax(_accumulate_logits(model, features))
    return probs[0] if single else probs


def predict(model: GbdtModel, features: np.ndarray) -> int | np.ndarray:
    """Argmax class labels; exact ties resolve to the lowest class id."""
    probs = predict_proba(model, features)
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return np.argmax(probs, axis=1)


_MAGIC = b"RFGB"
_VERSION = 2
# magic, version, the TrainConfig fields in order, a reserved slot (0.0: under softmax a
# base score shared by every class cancels), feature dim, tree count
_PREFIX = struct.Struct("<4sH ididddi dII")
_TABLE = np.dtype([("round", "<u2"), ("class_id", "<u2"), ("nodes", "<u4")])
_NODE_ARRAYS = (("feature", "<i4"), ("threshold", "<f8"), ("value", "<f8"), ("right", "<i4"))
_NODE_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _NODE_ARRAYS)


def save_model(model: GbdtModel, path) -> None:
    """Write the forest to a little-endian binary container.

    The tree table holds (round, class, node count) per tree; the node
    arrays follow whole, so the trees must tile the forest in order.
    """
    table = np.array([(rnd, c, len(nodes)) for rnd, c, nodes in model.trees], dtype=_TABLE)
    head = _PREFIX.pack(
        _MAGIC, _VERSION, *astuple(model.config), 0.0, model.feature_dim, len(table)
    )
    parts = [head, table.tobytes()]
    parts += [getattr(model.forest, name).astype(dtype).tobytes() for name, dtype in _NODE_ARRAYS]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _check_forest(forest: Tree, starts, stops, feature_dim: int, max_depth: int) -> None:
    """Reject node arrays that the trainer cannot have written.

    Feature indices lie in [-1, feature_dim); a split's right child lies
    past its left child and inside its tree; and walking each tree level
    by level from its root reaches every node exactly once, with no split
    at max_depth. The walk stops as soon as it has made more visits than
    there are nodes, so a corrupt table cannot make it run long.
    """
    if (starts == stops).any():
        raise FormatError("tree table lists a tree with no nodes")
    bad = (forest.feature < -1) | (forest.feature >= feature_dim)
    if bad.any():
        feature = forest.feature[bad][0]
        raise FormatError(f"node splits on feature {feature}; the model has {feature_dim} features")
    split = forest.feature >= 0
    index = np.arange(len(forest))
    end = np.repeat(stops, stops - starts)
    bad = split & ((forest.right <= index + 1) | (forest.right >= end))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise FormatError(f"split {i} has right child {forest.right[i]} not in ({i + 1}, {end[i]})")
    level, visits, n_visits = starts, [starts], starts.size
    for depth in range(max_depth + 1):
        level = level[split[level]]
        if not level.size:
            break
        if depth == max_depth:
            raise FormatError(f"tree is deeper than the stored max_depth {max_depth}")
        level = np.concatenate([level + 1, forest.right[level]])
        n_visits += level.size
        if n_visits > len(forest):
            raise FormatError("a node is the child of more than one split")
        visits.append(level)
    if (np.bincount(np.concatenate(visits), minlength=len(forest)) != 1).any():
        raise FormatError("a node is unreachable or the child of more than one split")


def load_model(path) -> GbdtModel:
    """Read a model container; predictions round-trip bit-exactly.

    Sizes are checked against the file length before any array is read,
    and the arrays are checked before the model is returned; any
    violation, or a reserved slot other than 0.0, is a FormatError.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {_MAGIC!r}")
    try:
        _, version, *fields, reserved, feature_dim, n_trees = _PREFIX.unpack_from(buf)
    except struct.error as exc:
        raise FormatError(f"model file is truncated: {exc}") from None
    if version != _VERSION:
        raise FormatError(f"unsupported model container version {version}; retrain the model")
    if reserved != 0.0:
        raise FormatError(f"model file holds base score {reserved}; the reserved slot must be 0.0")
    try:
        config = TrainConfig(*fields)
    except ConfigurationError as exc:
        raise FormatError(f"model file holds an invalid training configuration: {exc}") from None
    offset = _PREFIX.size
    if len(buf) < offset + n_trees * _TABLE.itemsize:
        raise FormatError(f"model file is truncated: no room for a table of {n_trees} trees")
    table = np.frombuffer(buf, dtype=_TABLE, count=n_trees, offset=offset)
    offset += table.nbytes
    if (table["class_id"] >= config.n_classes).any():
        raise FormatError(f"tree table names a class outside [0, {config.n_classes})")
    stops = np.cumsum(table["nodes"], dtype=np.int64)
    total = int(stops[-1]) if n_trees else 0
    extra = len(buf) - offset - _NODE_BYTES * total
    if extra < 0:
        raise FormatError(f"model file is truncated: the tree table's node counts sum to {total}")
    if extra > 0:
        raise FormatError(f"{extra} trailing bytes after the tree table's node counts ({total})")
    arrays = {}
    for name, dtype in _NODE_ARRAYS:
        arrays[name] = np.frombuffer(buf, dtype=dtype, count=total, offset=offset)
        offset += arrays[name].nbytes
    forest = Tree(**arrays)
    starts = stops - table["nodes"]
    _check_forest(forest, starts, stops, feature_dim, config.max_depth)
    for name, values in (("threshold", forest.threshold), ("leaf value", forest.value)):
        if not np.isfinite(values).all():
            raise FormatError(f"model file holds a non-finite {name}")
    trees = [
        (int(rnd), int(c), range(int(a), int(b)))
        for rnd, c, a, b in zip(table["round"], table["class_id"], starts, stops)
    ]
    return GbdtModel(config, int(feature_dim), forest, trees)
