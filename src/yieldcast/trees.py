"""CART regression trees, bagged forests, and stagewise gradient boosting.

Splits minimize child SSE (equivalently, maximize variance reduction) over
midpoint thresholds. Tie-breaking is fixed — smallest threshold within a
feature, lowest feature index across features — so fits are deterministic
and reproducible across platforms. Per-tree RNG streams in the forest are
pre-derived from the config seed, which makes parallel fitting equivalent to
sequential by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import fsum_columns
from .errors import InvalidData

FeatureSampler = Callable[[], Sequence[int]]


@dataclass(frozen=True)
class Leaf:
    value: float  # mean of the training targets routed here
    n_samples: int


@dataclass(frozen=True)
class Internal:
    feature_index: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 12
    min_samples_leaf: int = 5
    min_samples_split: Optional[int] = None  # defaults to 2 * min_samples_leaf

    def __post_init__(self):
        if self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError("tree config values must be >= 1")
        if self.min_samples_split is not None and self.min_samples_split < 1:
            raise ValueError("min_samples_split must be >= 1")

    @property
    def split_threshold(self) -> int:
        if self.min_samples_split is not None:
            return self.min_samples_split
        return 2 * self.min_samples_leaf


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    features_per_split: Optional[int] = None  # defaults to max(1, p // 3)
    bootstrap: bool = True
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(max_depth=32))
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")


@dataclass(frozen=True)
class GbmConfig:
    n_stages: int = 100
    learning_rate: float = 0.1
    tree: TreeConfig = field(
        default_factory=lambda: TreeConfig(max_depth=3, min_samples_leaf=5)
    )
    seed: int = 0

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeNode, ...]
    config: ForestConfig


@dataclass(frozen=True)
class GbmModel:
    init_value: float
    stages: tuple[TreeNode, ...]
    learning_rate: float


def best_split(
    x_col: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> Optional[tuple[float, float]]:
    """Best midpoint threshold on one column, or None when no legal split.

    Returns (threshold, sse_reduction) maximizing
    SSE(parent) - SSE(left) - SSE(right), computed through the equivalent
    decomposition n_l * n_r / n * (mean_l - mean_r)^2 which is exact in real
    arithmetic and never goes negative in floats. Both children must hold at
    least `min_samples_leaf` rows; ties take the smallest threshold;
    zero-reduction splits are rejected.
    """
    x_col = np.asarray(x_col, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if len(x_col) != n or n < 2 * min_samples_leaf:
        return None
    if np.all(y == y[0]):
        return None  # nothing to reduce

    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]

    left_n = np.arange(1, n)
    right_n = n - left_n
    left_sum = np.cumsum(ys)[:-1]
    total = ys.sum()
    mean_gap = left_sum / left_n - (total - left_sum) / right_n
    reduction = (left_n * right_n / n) * mean_gap * mean_gap

    legal = (
        (xs[:-1] < xs[1:])
        & (left_n >= min_samples_leaf)
        & (right_n >= min_samples_leaf)
    )
    reduction = np.where(legal, reduction, -np.inf)
    best = int(np.argmax(reduction))  # first max = smallest threshold
    if not legal[best] or reduction[best] <= 0.0:
        return None
    threshold = (xs[best] + xs[best + 1]) / 2.0
    return float(threshold), float(reduction[best])


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    cfg: TreeConfig,
    feature_sampler: Optional[FeatureSampler],
) -> TreeNode:
    node_y = y[idx]
    n = len(idx)
    if depth >= cfg.max_depth or n < cfg.split_threshold:
        return Leaf(value=float(node_y.mean()), n_samples=n)

    features = range(x.shape[1]) if feature_sampler is None else feature_sampler()
    best: Optional[tuple[float, int, float]] = None  # (reduction, feature, threshold)
    for f in features:
        found = best_split(x[idx, f], node_y, cfg.min_samples_leaf)
        if found is None:
            continue
        threshold, reduction = found
        if (
            best is None
            or reduction > best[0]
            or (reduction == best[0] and f < best[1])
        ):
            best = (reduction, f, threshold)
    if best is None:
        return Leaf(value=float(node_y.mean()), n_samples=n)

    _, f, threshold = best
    go_left = x[idx, f] <= threshold
    left = _grow(x, y, idx[go_left], depth + 1, cfg, feature_sampler)
    right = _grow(x, y, idx[~go_left], depth + 1, cfg, feature_sampler)
    return Internal(feature_index=f, threshold=threshold, left=left, right=right)


def fit_cart(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TreeConfig = TreeConfig(),
    feature_sampler: Optional[FeatureSampler] = None,
) -> TreeNode:
    """Greedy recursive partitioning down to max_depth / min-sample limits.

    `feature_sampler`, when given, is called once per split attempt and
    returns the candidate feature indices for that node (all features
    otherwise). Traversal is preorder, left child first, so sampler draws
    are reproducible.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or len(y) == 0:
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData("non-finite values in tree input")
    return _grow(x, y, np.arange(len(y)), 0, cfg, feature_sampler)


def predict_tree(t: TreeNode, x_row: Sequence[float]) -> float:
    """Route one row through the tree (x[feature] <= threshold goes left)."""
    node = t
    while isinstance(node, Internal):
        node = node.left if x_row[node.feature_index] <= node.threshold else node.right
    return node.value


def predict_tree_batch(t: TreeNode, x: np.ndarray) -> np.ndarray:
    """Vectorized routing; identical to predict_tree row by row."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0])
    stack = [(t, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.value
            continue
        go_left = x[idx, node.feature_index] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def _tree_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Bag of CARTs on bootstrap resamples with per-split feature subsets."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or len(y) < 2:
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")
    n, p = x.shape
    m = cfg.features_per_split if cfg.features_per_split is not None else max(1, p // 3)
    if m > p:
        raise InvalidData(f"features_per_split {m} exceeds {p} features")

    trees = []
    for rng in _tree_rngs(cfg.seed, cfg.n_trees):
        idx = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        sampler = None
        if m < p:
            sampler = lambda rng=rng: np.sort(rng.choice(p, size=m, replace=False))
        trees.append(fit_cart(x[idx], y[idx], cfg.tree, feature_sampler=sampler))
    return Forest(trees=tuple(trees), config=cfg)


def predict_forest(f: Forest, x_row: Sequence[float]) -> float:
    """Unweighted mean of member predictions (exact, order-independent)."""
    return math.fsum(predict_tree(t, x_row) for t in f.trees) / len(f.trees)


def predict_forest_batch(f: Forest, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    member = np.stack([predict_tree_batch(t, x) for t in f.trees])
    return fsum_columns(member) / len(f.trees)


def fit_gbm(x: np.ndarray, y: np.ndarray, cfg: GbmConfig = GbmConfig()) -> GbmModel:
    """Stagewise boosting: each stage fits a small CART to current residuals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or len(y) < 2:
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")

    init = float(y.mean())
    current = np.full(len(y), init)
    stages = []
    for _ in range(cfg.n_stages):
        stage = fit_cart(x, y - current, cfg.tree)
        current = current + cfg.learning_rate * predict_tree_batch(stage, x)
        stages.append(stage)
    return GbmModel(init_value=init, stages=tuple(stages), learning_rate=cfg.learning_rate)


def predict_gbm(m: GbmModel, x_row: Sequence[float]) -> float:
    """init + lr * sum of stage outputs; fsum keeps the sum order-invariant."""
    return m.init_value + m.learning_rate * math.fsum(
        predict_tree(t, x_row) for t in m.stages
    )


def predict_gbm_batch(m: GbmModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    stage_out = np.stack([predict_tree_batch(t, x) for t in m.stages])
    return m.init_value + m.learning_rate * fsum_columns(stage_out)


__all__ = [
    "Leaf",
    "Internal",
    "TreeNode",
    "TreeConfig",
    "ForestConfig",
    "GbmConfig",
    "Forest",
    "GbmModel",
    "best_split",
    "fit_cart",
    "predict_tree",
    "predict_tree_batch",
    "fit_forest",
    "predict_forest",
    "predict_forest_batch",
    "fit_gbm",
    "predict_gbm",
    "predict_gbm_batch",
]
