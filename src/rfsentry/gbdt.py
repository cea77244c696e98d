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

The scan follows exact greedy search over presorted columns. Each value
is computed once, at the level where it is fixed. Per cross-validation:
every feature's sorted order and cut ranks, which rise exactly at the
gaps that can hold a threshold (a `Presort`, filtered per fold). Per
fit: one workspace of flat (d x n) buffers that every node of every
tree reuses through out= arguments, and one position-major layout of
the root's rank rises and row ids. Every node, roots included, passes
one gate and one scan call. A node keeps a (d, m) block of its row ids
and ranks in per-feature sorted order, one row per feature; when it
splits, the block is stably partitioned in place into its children's
blocks, so a node costs d x m rather than d x n. The scan reads the
block position-major, d lanes per prefix-sum step (`_ScanState`); it
compares ranks, not values, and forms only the winning cut's midpoint.
Because h >= 0, the sorted positions where some feature can leave
min_child_weight on both sides form one range, the hessian window, and
only it is scored. A node is not scanned when its hessian sum is below
twice min_child_weight, or when a bound on the score of every cut of its
rows (`_cannot_gain`), taken in O(m log m) from their (g, h) pairs
alone, shows that no cut can gain; a split whose children are both
unscanned is not partitioned. On equal scores the lowest feature wins,
then the lowest threshold. Every sum is taken in the same order as a
plain per-node scan, and a pruned node is one the scan would turn down,
so the trees are bit-identical to one.

A forest is one set of flat node arrays (:class:`Tree`), each tree's
nodes in pre-order so a split's left child directly follows it.
Prediction walks all rows through all trees together, one level per
step, and the model container stores the arrays as they are, after the
band layout and extraction of the rows the model was fitted to.
"""

from __future__ import annotations

import logging
import math
import resource
import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    SchemaError,
    ShapeError,
    TrainingError,
)
from .spectrum import BandMode, Extraction, decode_layout, layout_codes

log = logging.getLogger(__name__)


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
        # The ranges the model container stores: round ids as u16, max_depth as i32.
        if not 0 <= self.n_rounds < 2**16:
            raise ConfigurationError(f"n_rounds must be >= 0 and < 2**16, got {self.n_rounds}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if not 1 <= self.max_depth < 2**31:
            raise ConfigurationError(f"max_depth must be >= 1 and < 2**31, got {self.max_depth}")
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
        cells, row_start = features.ravel(), np.arange(0, n * d, d)[:, None]
        node = np.tile(np.asarray(roots, dtype=np.intp), (n, 1))
        while np.count_nonzero(split[node]):  # cheaper than .any() on a few hundred nodes
            go_left = cells[row_start + feature[node]] < threshold[node]
            node = np.where(go_left, node + 1, right[node])
        return self.value[node]


@dataclass
class GbdtModel:
    """Trained forest: one `Tree` of node arrays plus configuration.

    band_mode and extraction are the layout of the rows the model was
    fitted to; `train` leaves the defaults, the lower band at the default
    extraction, and the CLI sets the feature cache's. trees lists (round,
    class_id, nodes) per tree, where nodes is the range of the tree's
    entries in the forest arrays. objective_history holds the regularized
    training objective before any round and after each round; it is
    diagnostic only and is not serialized.
    """

    config: TrainConfig
    feature_dim: int
    band_mode: BandMode = BandMode.LOWER_ONLY
    extraction: Extraction = Extraction()
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
    """Optimal leaf value -G / (H + lambda) of the quadratic objective.

    A leaf with no hessian mass and lambda = 0 has no finite optimum; it
    gets 0, XGBoost's value for a leaf whose hessian sum is not positive.
    """
    if h_sum < 0 or reg_lambda < 0:
        raise ConfigurationError("hessian sum and lambda must be >= 0")
    denom = h_sum + reg_lambda
    return -g_sum / denom if denom > 0 else 0.0


@dataclass(frozen=True)
class Presort:
    """Each feature's stable row order and cut ranks, (d, n): the scan's root block.

    A row's cut rank counts the gaps before it in sorted order that can
    hold a threshold, whose midpoint lies above the lower value: which cuts
    are valid is decided here, once. Cross-validation gives each fold the
    `subset` of its rows, whose row ids equal a fresh stable sort's and
    whose ranks, though not dense, rise where fresh ones would: a midpoint
    equals its lower value only for equal or one-ulp-apart values, and
    round-half-even puts a threshold in one of two consecutive one-ulp gaps.
    """

    rows: np.ndarray
    ranks: np.ndarray

    @classmethod
    def of(cls, features: np.ndarray) -> "Presort":
        columns = np.ascontiguousarray(features.T)  # a contiguous row per feature sorts faster
        order = np.argsort(columns, axis=1, kind="stable")
        vals = np.take_along_axis(columns, order, axis=1)
        cuts = np.zeros(order.shape, dtype=np.bool_)  # no gap precedes a feature's first row
        cuts[:, 1:] = _midpoint(vals[:, :-1], vals[:, 1:]) > vals[:, :-1]
        return cls(order, np.cumsum(cuts, axis=1, dtype=np.int32))

    def subset(self, mask: np.ndarray) -> "Presort":
        """The presort of the rows where the boolean mask holds, renumbered from 0."""
        keep, local = mask[self.rows], np.cumsum(mask, dtype=np.intp) - 1
        d = self.rows.shape[0]
        return Presort(local[self.rows[keep]].reshape(d, -1), self.ranks[keep].reshape(d, -1))


def _midpoint(left, right):
    """0.5 * (left + right), or 0.5 * left + 0.5 * right where that sum overflows."""
    if isinstance(left, float):  # one cut: Python floats overflow to inf without a warning
        mid = 0.5 * (left + right)
        return 0.5 * left + 0.5 * right if math.isinf(mid) else mid
    with np.errstate(over="ignore"):
        mid = 0.5 * (left + right)
    return np.where(np.isinf(mid), 0.5 * left + 0.5 * right, mid)


def _heavy_enough(m: int, h_total: float, mcw: float) -> bool:
    # Below 2 * mcw every hl >= mcw leaves fl(h_total - hl) < mcw, so no
    # candidate is valid; the 1e-9 margin covers the subtraction's rounding.
    return m >= 2 and h_total >= 2.0 * mcw * (1.0 - 1e-9)


def _peak_score(g, h, g_total: float, h_total: float, lam: float) -> float:
    """The highest score GL^2/(HL+lam) + GR^2/(HR+lam) of any cut of the rows (g, h).

    For lam > 0 the score is convex in (GL, HL), so over all proper row
    sets it peaks at a vertex of the hull of their (g, h) sums: a prefix
    in angular order (h >= 0 puts all rows in one half-plane; the key
    g / (|g| + h) falls as the angle rises, to a few ulp, and puts zero
    rows last), one row, or all rows but one, which scores as that row.
    """
    with np.errstate(all="ignore"):
        order = np.argsort(g / (np.abs(g) + h), kind="stable")
        gl = np.concatenate([np.cumsum(g[order])[:-1], g])
        hl = np.concatenate([np.cumsum(h[order])[:-1], h])
        gr = g_total - gl
        hr = np.maximum(h_total - hl, 0.0)
        return (gl * gl / (hl + lam) + gr * gr / (hr + lam)).max()


def _cannot_gain(g, h, g_total: float, h_total: float, config: TrainConfig) -> bool:
    """True only if no cut of the node whose rows carry (g, h) can gain: the
    gain of `_peak_score` is below -margin, which covers the rounding of the scan,
    of the bound (underflow too) and of the angular order. Never with lambda = 0
    or a non-finite value."""
    lam, m = config.reg_lambda, g.size
    if not lam > 0.0:
        return False
    with np.errstate(all="ignore"):
        peak = _peak_score(g, h, g_total, h_total, lam)
        gain = 0.5 * (peak - g_total * g_total / (h_total + lam)) - config.gamma
        s_g = np.abs(g).sum()
        s = s_g + h_total
        margin = 2.0**-47 * ((m + 2) * s * (s_g / lam) * (1.0 + s / lam) + config.gamma)
        margin += 2.0**-1068 * (m + 2) * (1.0 + 1.0 / lam)
        return bool(gain < -margin)


class _ScanState:
    """Buffers of the exact split scan, built once per fit and reused by
    every node of every tree.

    The root's rows never change: its stable per-feature order and cut
    ranks, shape (d, n), come from a `Presort` (in cross-validation, one
    filtered per fold). Where its ranks rise, the gaps that can hold a
    threshold, and its row ids are laid out position-major, (n - 1, d),
    once per fit, in arrays that no scan or partition writes. A node works
    on a (d, m) block of row ids and ranks, one row per feature. When it
    splits, the block is stably partitioned in place into [left | right]
    through a scratch buffer, so each child's block keeps its rows in
    sorted order and a node costs d x m, not d x n. Every node, roots
    included, passes one gate, `worth_scanning`, which skips a node too
    light to split or ruled out by the gain bound (`_cannot_gain`), and
    one scan, `best_split`; a split whose children both stay unscanned is
    not partitioned. Blocks live in two flat (d x n) arrays; a child's
    block is the part of its parent's that it takes, so depth-first growth
    never overwrites a block that is still pending.

    Below the root, the scan transposes a block's row ids into the third
    scratch buffer. It gathers h, and g up to the window's end, into the
    first two as (m - 1, d) planes and adds their prefix sums through
    (row p - 1, row p) views built once, np.add(a, b, out=b): row p of a
    plane is the same d lanes for every m. Once the gathers are
    done the third buffer holds the window's transposed ranks, then hr;
    the fourth holds the score. Every temporary is written with out=; a
    partition allocates only its two index arrays.
    Row ids stay intp: np.take casts any other index dtype to a fresh
    intp array on each call. np.take runs with mode="clip" because with
    out= and the default mode="raise" it writes into a copy of out; the
    ids are in range.
    """

    def __init__(self, features: np.ndarray, presort: Presort) -> None:
        n, d = features.shape
        if presort.rows.shape != (d, n):
            raise ShapeError(f"presort has shape {presort.rows.shape}, features {(n, d)}")
        self.root_rows, self.root_ranks = presort.rows, presort.ranks
        self.root_gaps = np.ascontiguousarray((self.root_ranks[:, 1:] > self.root_ranks[:, :-1]).T)
        self.root_ids = np.ascontiguousarray(self.root_rows[:, :-1].T)
        self.features = features
        self.rows = np.empty(d * n, dtype=np.intp)
        self.ranks = np.empty(d * n, dtype=np.int32)
        self.scratch = np.empty((4, d * n), dtype=np.float64)
        self.masks = np.empty((2, d * n), dtype=np.bool_)
        self.go_left = np.empty(n, dtype=np.bool_)
        lanes = (list(buf[: d * (n - 1)].reshape(n - 1, d)) for buf in self.scratch[:2])
        self.h_steps, self.g_steps = (list(zip(rows[:-1], rows[1:])) for rows in lanes)
        self.scanned = self.pruned = 0

    def block(self, depth: int, offset: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and cut ranks, (d, m), of the node whose block starts at offset."""
        if depth == 0:
            return self.root_rows, self.root_ranks
        d = self.features.shape[1]
        span = slice(offset, offset + d * m)
        return self.rows[span].reshape(d, m), self.ranks[span].reshape(d, m)

    def best_split(
        self, rows, ranks, g, h, g_total: float, h_total: float, config: TrainConfig
    ) -> tuple[int, float] | None:
        """The split of highest gain among all features, or None if none gains.

        Candidates sit at midpoints between consecutive distinct values of
        the node's rows; one is valid where their cut ranks rise, and only
        the winner's midpoint is formed. The scan runs position-major: row
        p of each (m - 1, d) plane holds every feature's candidate after
        its p-th sorted row, and prefix sums are added one row at a time,
        d lanes per call, in the same order as a per-feature cumsum. Only
        the rows of the hessian window are scored. On score ties the lowest
        feature wins, then the lowest threshold. A node whose best score is
        not finite (GL^2/(HL+lambda) can overflow for |g| near 1e150) gets
        no split and stays a leaf.
        """
        lam, mcw = config.reg_lambda, config.min_child_weight
        d, m = rows.shape
        if not _heavy_enough(m, h_total, mcw):
            return None
        cum_h, cum_g, spare, temp = (buf[: d * (m - 1)].reshape(m - 1, d) for buf in self.scratch)
        at_root = rows is self.root_rows
        if at_root:
            rows_t = self.root_ids
        else:
            rows_t = spare.view(np.intp)
            np.copyto(rows_t, rows[:, :-1].T)
        np.take(h, rows_t, out=cum_h, mode="clip")
        for a, b in self.h_steps[: m - 2]:
            np.add(a, b, out=b)
        # h >= 0, so along each feature hl never falls and fl(h_total - hl)
        # never rises: rows before lo have every hl < mcw, rows after hi
        # every fl(h_total - hl) < mcw, and no candidate there is valid.
        lo = m - 1 - np.count_nonzero(cum_h.max(axis=1) >= mcw)
        hi = np.count_nonzero(h_total - cum_h.min(axis=1) >= mcw) - 1
        if lo > hi:
            return None
        np.take(g, rows_t[: hi + 1], out=cum_g[: hi + 1], mode="clip")
        for a, b in self.g_steps[:hi]:
            np.add(a, b, out=b)
        w = hi + 1 - lo
        gl, hl, temp = cum_g[lo : hi + 1], cum_h[lo : hi + 1], temp[:w]
        valid, test = (buf[: w * d].reshape(w, d) for buf in self.masks)
        if at_root:
            np.copyto(valid, self.root_gaps[lo : hi + 1])
        else:
            # The row ids are gathered; their space holds the ranks now.
            ranks_t = self.scratch[2].view(np.int32)[: (w + 1) * d].reshape(w + 1, d)
            np.copyto(ranks_t, ranks[:, lo : hi + 2].T)
            np.greater(ranks_t[1:], ranks_t[:-1], out=valid)
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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        a, b = self.features[rows[feature, lo + pos : lo + pos + 2], feature].tolist()
        return feature, _midpoint(a, b)

    def worth_scanning(self, idx, g, h, g_total: float, h_total: float, config: TrainConfig) -> bool:
        """False only where `best_split` would find no split in the node of rows idx."""
        if not _heavy_enough(idx.size, h_total, config.min_child_weight):
            return False
        pruned = _cannot_gain(g[idx], h[idx], g_total, h_total, config)
        self.pruned += pruned
        return not pruned

    def partition(self, rows, ranks, idx, go_left, offset: int) -> None:
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
            out_ranks = self.scratch[1].view(np.int32)[: d * m]
        else:
            out_rows = self.rows[offset : offset + d * m]
            out_ranks = self.ranks[offset : offset + d * m]
        mask = self.masks[0, : d * m]
        np.take(self.go_left, rows, out=mask.reshape(d, m), mode="clip")
        left = np.flatnonzero(mask)
        right = np.flatnonzero(np.logical_not(mask, out=mask))
        for src, dst in ((rows, out_rows), (ranks, out_ranks)):
            np.take(src, left, out=dst[: left.shape[0]], mode="clip")
            np.take(src, right, out=dst[left.shape[0] :], mode="clip")
            if in_place:
                np.copyto(src, dst.reshape(d, m))


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
            state.scanned += 1
            rows, ranks = state.block(depth, offset, idx.shape[0])
            found = state.best_split(rows, ranks, g, h, g_total, h_total, config)
            if found is not None:
                # Both children get rows: the cut's two rows differ in rank, so a < midpoint <= b.
                feature, threshold = found
                go_left = state.features[idx, feature] < threshold
                left_idx = idx[go_left]
                left = entry(left_idx, depth + 1, -1, offset)
                right = entry(idx[~go_left], depth + 1, len(nodes), offset + d * left_idx.size)
                if left[-1] or right[-1]:  # only a scan reads a block
                    state.partition(rows, ranks, idx, go_left, offset)
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
    state = _ScanState(features, Presort.of(features))
    _grow_tree(state, g, h, config, nodes, 1.0)
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

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    n, d = features.shape
    k = config.n_classes
    binary = k == 2
    state = _ScanState(features, Presort.of(features) if presort is None else presort)
    logits = np.zeros((n, k))
    model = GbdtModel(config=config, feature_dim=d)
    penalty = 0.0
    model.objective_history.append((_logloss(logits, labels) + penalty) / n)

    first = 1 if binary else 0  # the two-class model fits class 1 only
    nodes = []
    for rnd in range(config.n_rounds):
        grad, hess = softmax_grad_hess(logits, labels)
        # (K, n): each class's g and h contiguous for the scan's gathers
        g_rows, h_rows = (np.ascontiguousarray(a.T[first:]) for a in (grad, hess))
        for c, g_c, h_c in zip(range(first, k), g_rows, h_rows):
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
        log.info("round %d: objective %.6f", rnd + 1, model.objective_history[-1])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    counts = (n, d, faults, len(model.trees), state.scanned, state.pruned)
    log.info(
        "fit on %d x %d: %d minor page faults, %d trees, %d nodes scanned, "
        "%d pruned by the gain bound",
        *counts,
    )
    model.forest = Tree.from_rows(nodes)
    return model


def _accumulate_logits(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Each tree's output, added from zero in forest order per class.

    ufunc.at adds unbuffered in index order, so the sums are
    bit-identical to adding one tree at a time.
    """
    n, k = features.shape[0], model.config.n_classes
    _, class_ids, nodes = tuple(zip(*model.trees)) or ((), (), ())
    leaf = model.forest.apply(features, [r.start for r in nodes])
    logits = np.zeros((n, k))
    rows = np.arange(n)[:, None]  # broadcast against each tree's column
    # Two classes: every tree adds to class 1 and its mirror subtracts from class 0.
    cols = np.ones(len(nodes), dtype=np.intp) if k == 2 else np.array(class_ids, dtype=np.intp)
    np.add.at(logits, (rows, cols), leaf)
    if k == 2:
        np.subtract.at(logits, (rows, cols - 1), leaf)
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
_VERSION = 3
# magic, version, the TrainConfig fields in order, the band layout and extraction as
# `layout_codes` gives them, feature dim, tree count
_PREFIX = struct.Struct("<4sH ididddi BBIII II")
_TABLE = np.dtype([("round", "<u2"), ("class_id", "<u2"), ("nodes", "<u4")])
_NODE_ARRAYS = (("feature", "<i4"), ("threshold", "<f8"), ("value", "<f8"), ("right", "<i4"))
_NODE_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _NODE_ARRAYS)


def save_model(model: GbdtModel, path) -> None:
    """Write the forest to a little-endian binary container.

    The tree table holds (round, class, node count) per tree; the node
    arrays follow whole, so the trees must tile the forest in order.
    """
    table = np.array([(rnd, c, len(nodes)) for rnd, c, nodes in model.trees], dtype=_TABLE)
    layout = layout_codes(model.band_mode, model.extraction)
    head = _PREFIX.pack(_MAGIC, _VERSION, *astuple(model.config), *layout, model.feature_dim, len(table))
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
    and the arrays are checked before the model is returned. Any
    violation, and a training configuration, band layout or extraction
    that the records refuse, is a FormatError.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {_MAGIC!r}")
    version = int.from_bytes(buf[4:6], "little")
    if len(buf) >= 6 and version != _VERSION:
        raise FormatError(f"unsupported model container version {version}; retrain the model")
    try:
        _, _, *fields, band_code, window_code, frame_size, hop, q, feature_dim, n_trees = (
            _PREFIX.unpack_from(buf)
        )
    except struct.error as exc:
        raise FormatError(f"model file is truncated: {exc}") from None
    try:
        config = TrainConfig(*fields)
    except ConfigurationError as exc:
        raise FormatError(f"model file holds an invalid training configuration: {exc}") from None
    band_mode, extraction = decode_layout(path, band_code, window_code, frame_size, hop, q)
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
    columns = (table["round"], table["class_id"], starts, stops)  # as Python ints, column by column
    trees = [(rnd, c, range(a, b)) for rnd, c, a, b in zip(*(col.tolist() for col in columns))]
    return GbdtModel(config, int(feature_dim), band_mode, extraction, forest, trees)
