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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise ConfigurationError(f"n_rounds must be >= 0, got {self.n_rounds}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigurationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_weight < 0:
            raise ConfigurationError("reg_lambda, gamma and min_child_weight must be >= 0")
        if self.n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {self.n_classes}")


@dataclass
class TreeNode:
    """Binary regression tree node; a node without children is a leaf.

    Rows with feature value strictly below the threshold go left.
    default_left is kept for container-format stability; inputs are
    dense so it is never consulted.
    """

    feature_index: int = -1
    threshold: float = 0.0
    default_left: bool = True
    weight: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Evaluate the tree on a (n, d) matrix, returning n leaf values."""
        out = np.empty(features.shape[0], dtype=np.float64)
        stack = [(self, np.arange(features.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                out[rows] = node.weight
            else:
                go_left = features[rows, node.feature_index] < node.threshold
                stack.append((node.left, rows[go_left]))
                stack.append((node.right, rows[~go_left]))
        return out

    def leaves(self) -> list["TreeNode"]:
        if self.is_leaf:
            return [self]
        return self.left.leaves() + self.right.leaves()


@dataclass
class GbdtModel:
    """Trained forest: (round, class_id, tree) triples plus configuration.

    objective_history holds the regularized training objective before
    any round and after each round; it is diagnostic only and is not
    serialized.
    """

    config: TrainConfig
    feature_dim: int
    base_score: float = 0.0
    trees: list[tuple[int, int, TreeNode]] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad_hess(logits: np.ndarray, true_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class gradient p_c - [c == true] and hessian p_c (1 - p_c)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ShapeError(f"logits must be 1-D, got shape {logits.shape}")
    if not (0 <= true_class < logits.shape[0]):
        raise ShapeError(f"true_class {true_class} out of range for {logits.shape[0]} classes")
    p = softmax(logits)
    g = p.copy()
    g[true_class] -= 1.0
    return g, p * (1.0 - p)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """Optimal leaf value -G / (H + lambda) of the quadratic objective."""
    if h_sum < 0 or reg_lambda < 0:
        raise ConfigurationError("hessian sum and lambda must be >= 0")
    denom = h_sum + reg_lambda
    if denom <= 0:
        raise DegenerateLeafError("leaf has zero hessian mass and no regularization")
    return -g_sum / denom


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    reg_lambda: float,
    gamma: float,
) -> float:
    """Second-order gain of a split relative to keeping the parent leaf."""
    g_total = g_left + g_right
    h_total = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + reg_lambda)
        + g_right * g_right / (h_right + reg_lambda)
        - g_total * g_total / (h_total + reg_lambda)
    ) - gamma


def _scan_splits(order_t, member, g, h, values_t, g_total, h_total, lam, mcw, out_score, out_thr):
    """Per-feature best candidate score gl^2/(hl+lam) + gr^2/(hr+lam).

    Candidates sit at midpoints between consecutive distinct values of
    the node's rows; argmax keeps the lowest threshold on score ties.
    The parent term and gamma are constant per node and applied by the
    caller.
    """
    d, n = order_t.shape
    mask = member[order_t]
    m = int(np.count_nonzero(member))
    out_score.fill(-np.inf)
    out_thr.fill(np.nan)
    if m < 2:
        return
    rows = order_t[mask].reshape(d, m)
    vals = np.take_along_axis(values_t, rows, axis=1)
    gl = np.cumsum(g[rows], axis=1)[:, :-1]
    hl = np.cumsum(h[rows], axis=1)[:, :-1]
    gr = g_total - gl
    hr = h_total - hl
    left_v = vals[:, :-1]
    right_v = vals[:, 1:]
    thr = 0.5 * (left_v + right_v)
    valid = (
        (right_v > left_v)
        & (thr > left_v)
        & (hl >= mcw)
        & (hr >= mcw)
        & (hl + lam > 0.0)
        & (hr + lam > 0.0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        score = gl * gl / (hl + lam) + gr * gr / (hr + lam)
    score[~valid] = -np.inf
    pos = np.argmax(score, axis=1)
    take = np.arange(d)
    out_score[:] = score[take, pos]
    out_thr[:] = thr[take, pos]
    out_thr[~np.isfinite(out_score)] = np.nan


def _find_split(
    values_t: np.ndarray,
    order_t: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    g_total: float,
    h_total: float,
    config: TrainConfig,
) -> tuple[int, float] | None:
    if idx.shape[0] < 2:
        return None
    n = order_t.shape[1]
    member = np.zeros(n, dtype=np.bool_)
    member[idx] = True
    d = order_t.shape[0]
    out_score = np.empty(d, dtype=np.float64)
    out_thr = np.empty(d, dtype=np.float64)
    _scan_splits(
        order_t,
        member,
        g,
        h,
        values_t,
        g_total,
        h_total,
        config.reg_lambda,
        config.min_child_weight,
        out_score,
        out_thr,
    )
    feature = int(np.argmax(out_score))
    score = out_score[feature]
    if not np.isfinite(score):
        return None
    gain = 0.5 * (score - g_total * g_total / (h_total + config.reg_lambda)) - config.gamma
    if not gain > 0.0:
        return None
    return feature, float(out_thr[feature])


def _grow_tree(
    features: np.ndarray,
    values_t: np.ndarray,
    order_t: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    config: TrainConfig,
) -> TreeNode:
    """Depth-first growth from an explicit stack, left child first."""
    root = TreeNode()
    pending = [(root, np.arange(features.shape[0]), 0)]
    while pending:
        node, idx, depth = pending.pop()
        g_total = float(g[idx].sum())
        h_total = float(h[idx].sum())
        if depth < config.max_depth:
            found = _find_split(values_t, order_t, g, h, idx, g_total, h_total, config)
            if found is not None:
                feature, threshold = found
                go_left = features[idx, feature] < threshold
                left_idx = idx[go_left]
                right_idx = idx[~go_left]
                if left_idx.size and right_idx.size:
                    node.feature_index, node.threshold = feature, threshold
                    node.left, node.right = TreeNode(), TreeNode()
                    pending.append((node.right, right_idx, depth + 1))
                    pending.append((node.left, left_idx, depth + 1))
                    continue
        node.weight = leaf_weight(g_total, h_total, config.reg_lambda)
    return root


def _presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transposed copies used by the scan: values and sorted row ids, (d, n)."""
    values_t = np.ascontiguousarray(features.T)
    order_t = np.ascontiguousarray(np.argsort(features, axis=0, kind="stable").T)
    return values_t, order_t


def build_tree(
    features: np.ndarray, g: np.ndarray, h: np.ndarray, config: TrainConfig
) -> TreeNode:
    """Grow one regression tree on per-row gradient/hessian statistics.

    Leaf values are unscaled; the training loop applies the learning
    rate. Ties between equal-gain splits resolve to the lowest feature
    index, then the lowest threshold.
    """
    features, g, h = _check_training_arrays(features, g, h)
    values_t, order_t = _presort(features)
    return _grow_tree(features, values_t, order_t, g, h, config)


def _check_training_arrays(
    features: np.ndarray, g: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    features = np.ascontiguousarray(features, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"features must be a non-empty 2-D matrix, got {features.shape}")
    if g.shape != (features.shape[0],) or h.shape != (features.shape[0],):
        raise ShapeError("g and h must have one entry per feature row")
    return features, g, h


def _scale_leaves(tree: TreeNode, factor: float) -> None:
    for leaf in tree.leaves():
        leaf.weight *= factor


def _penalty(tree: TreeNode, config: TrainConfig) -> float:
    leaves = tree.leaves()
    return config.gamma * len(leaves) + 0.5 * config.reg_lambda * sum(
        leaf.weight**2 for leaf in leaves
    )


def _logloss(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float((lse - shifted[np.arange(len(labels)), labels]).sum())


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig) -> GbdtModel:
    """Boost n_rounds rounds of per-class trees; deterministic given inputs."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"features must be a non-empty 2-D matrix, got {features.shape}")
    if labels.shape != (features.shape[0],):
        raise ShapeError("labels must have one entry per feature row")
    if labels.dtype.kind not in "iu":
        raise SchemaError(f"labels must be integers, got dtype {labels.dtype}")
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise TrainingError(f"non-finite feature in row {bad[0]}")
    if labels.min() < 0 or labels.max() >= config.n_classes:
        raise SchemaError(
            f"labels must lie in [0, {config.n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )

    n, d = features.shape
    k = config.n_classes
    binary = k == 2
    values_t, order_t = _presort(features)
    base_score = 0.0
    logits = np.full((n, k), base_score, dtype=np.float64)
    model = GbdtModel(config=config, feature_dim=d, base_score=base_score)
    penalty = 0.0
    model.objective_history.append((_logloss(logits, labels) + penalty) / n)

    class_ids = (1,) if binary else tuple(range(k))
    onehot = labels[:, None] == np.arange(k)[None, :]
    for rnd in range(config.n_rounds):
        p = softmax(logits)
        grad = p - onehot
        hess = p * (1.0 - p)
        for c in class_ids:
            g_c = np.ascontiguousarray(grad[:, c])
            h_c = np.ascontiguousarray(hess[:, c])
            tree = _grow_tree(features, values_t, order_t, g_c, h_c, config)
            _scale_leaves(tree, config.learning_rate)
            out = tree.apply(features)
            if binary:
                logits[:, 1] += out
                logits[:, 0] -= out
            else:
                logits[:, c] += out
            model.trees.append((rnd, c, tree))
            penalty += _penalty(tree, config)
        model.objective_history.append((_logloss(logits, labels) + penalty) / n)
    return model


def _accumulate_logits(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    logits = np.full((features.shape[0], model.config.n_classes), model.base_score)
    binary = model.config.n_classes == 2
    for _, class_id, tree in model.trees:
        out = tree.apply(features)
        if binary:
            logits[:, 1] += out
            logits[:, 0] -= out
        else:
            logits[:, class_id] += out
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
_VERSION = 1
_HEADER = struct.Struct("<4sH")
_CONFIG = struct.Struct("<ididddiq")


def _pack_config(config: TrainConfig) -> bytes:
    return _CONFIG.pack(
        config.n_rounds,
        config.learning_rate,
        config.max_depth,
        config.reg_lambda,
        config.gamma,
        config.min_child_weight,
        config.n_classes,
        config.seed,
    )


def _unpack_config(buf: memoryview, offset: int) -> tuple[TrainConfig, int]:
    values = _CONFIG.unpack_from(buf, offset)
    config = TrainConfig(
        n_rounds=values[0],
        learning_rate=values[1],
        max_depth=values[2],
        reg_lambda=values[3],
        gamma=values[4],
        min_child_weight=values[5],
        n_classes=values[6],
        seed=values[7],
    )
    return config, offset + _CONFIG.size


def _count_nodes(tree: TreeNode) -> int:
    if tree.is_leaf:
        return 1
    return 1 + _count_nodes(tree.left) + _count_nodes(tree.right)


def _write_nodes(tree: TreeNode, out: bytearray) -> None:
    if tree.is_leaf:
        out += struct.pack("<Bd", 0, tree.weight)
    else:
        out += struct.pack(
            "<BIdB", 1, tree.feature_index, tree.threshold, 0 if tree.default_left else 1
        )
        _write_nodes(tree.left, out)
        _write_nodes(tree.right, out)


_SPLIT = struct.Struct("<IdB")


def _read_tree(
    buf: memoryview, offset: int, feature_dim: int, max_depth: int
) -> tuple[TreeNode, int, int]:
    """Rebuild one pre-order node stream without recursion.

    Returns the root, the offset past the tree and its node count. A
    split on a feature the model lacks, or a split at max_depth, is a
    FormatError: the trainer never writes either.
    """
    root = TreeNode()
    pending = [(root, 0)]
    count = 0
    while pending:
        node, depth = pending.pop()
        (kind,) = struct.unpack_from("<B", buf, offset)
        offset += 1
        count += 1
        if kind == 0:
            (node.weight,) = struct.unpack_from("<d", buf, offset)
            offset += 8
            continue
        if kind != 1:
            raise FormatError(f"unknown tree node kind {kind}")
        feature, node.threshold, default = _SPLIT.unpack_from(buf, offset)
        offset += _SPLIT.size
        if feature >= feature_dim:
            raise FormatError(
                f"node splits on feature {feature} but the model has {feature_dim} features"
            )
        if depth >= max_depth:
            raise FormatError(f"tree is deeper than the stored max_depth {max_depth}")
        node.feature_index = int(feature)
        node.default_left = default == 0
        node.left, node.right = TreeNode(), TreeNode()
        pending.append((node.right, depth + 1))
        pending.append((node.left, depth + 1))
    return root, offset, count


def save_model(model: GbdtModel, path) -> None:
    """Write the forest to a little-endian binary container."""
    out = bytearray()
    out += _HEADER.pack(_MAGIC, _VERSION)
    out += _pack_config(model.config)
    out += struct.pack("<dII", model.base_score, model.feature_dim, len(model.trees))
    for rnd, class_id, tree in model.trees:
        out += struct.pack("<HHI", rnd, class_id, _count_nodes(tree))
        _write_nodes(tree, out)
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_model(path) -> GbdtModel:
    """Read a model container; predictions round-trip bit-exactly."""
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())
    if len(buf) < _HEADER.size:
        raise FormatError("model file is truncated")
    magic, version = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported model container version {version}")
    offset = _HEADER.size
    try:
        config, offset = _unpack_config(buf, offset)
        base_score, feature_dim, n_trees = struct.unpack_from("<dII", buf, offset)
        offset += struct.calcsize("<dII")
        trees = []
        for _ in range(n_trees):
            rnd, class_id, node_count = struct.unpack_from("<HHI", buf, offset)
            offset += struct.calcsize("<HHI")
            tree, offset, count = _read_tree(buf, offset, feature_dim, config.max_depth)
            if count != node_count:
                raise FormatError("tree node count mismatch")
            trees.append((int(rnd), int(class_id), tree))
    except struct.error as exc:
        raise FormatError(f"model file is truncated: {exc}") from None
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after model payload")
    return GbdtModel(
        config=config, feature_dim=int(feature_dim), base_score=base_score, trees=trees
    )

