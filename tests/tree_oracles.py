"""Plain reference versions of the tree code, used as test oracles.

The scalar predictors route one row at a time through a `Tree`'s arrays;
the batch predictors in `yieldcast.trees` must agree with them row for row.
The oracles grow trees in a nested form of their own (`Leaf`/`Internal`):
`nodes` turns a `Tree` into it, so a fitted tree compares with `==`, and
`flat` turns it back into a `Tree`. `grow_by_feature` is the recursive
grower that calls `best_split` once per node and feature, which `fit_cart`
and every `fit_gbm` stage must reproduce node for node; `forest_by_feature`
does the same for `fit_forest` with per-node feature subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from yieldcast.trees import (
    Forest,
    ForestConfig,
    GbmModel,
    Tree,
    TreeConfig,
    best_split,
    predict_tree_batch,
)


@dataclass(frozen=True)
class Leaf:
    value: float  # mean of the training targets routed here
    n_samples: int


@dataclass(frozen=True)
class Internal:
    feature_index: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Union[Leaf, Internal]


def nodes(t: Tree, i: int = 0) -> Node:
    """The nested form of a Tree's subtree at node i."""
    if t.feature[i] < 0:
        return Leaf(float(t.value[i]), int(t.n_samples[i]))
    return Internal(int(t.feature[i]), float(t.threshold[i]),
                    nodes(t, int(t.left[i])), nodes(t, int(t.right[i])))


def flat(node: Node) -> Tree:
    """The Tree of a nested tree, its nodes in preorder."""
    records = []

    def walk(node):
        if isinstance(node, Leaf):
            records.append([-1, 0.0, -1, -1, node.value, node.n_samples])
            return
        record = [node.feature_index, node.threshold, len(records) + 1, -1, 0.0, 0]
        records.append(record)
        walk(node.left)
        record[3] = len(records)
        walk(node.right)

    walk(node)
    return Tree.from_records(records)


def gbm_nodes(m: GbmModel) -> tuple:
    """A GbmModel's fields, its stages in nested form, comparable with ==."""
    return m.init_value, m.learning_rate, tuple(map(nodes, m.stages))


def predict_tree(t: Tree, x_row: Sequence[float]) -> float:
    """Route one row through the tree (x[feature] <= threshold goes left)."""
    i = 0
    while t.feature[i] >= 0:
        i = t.left[i] if x_row[t.feature[i]] <= t.threshold[i] else t.right[i]
    return float(t.value[i])


def predict_forest(f: Forest, x_row: Sequence[float]) -> float:
    """Unweighted mean of member predictions (exact, order-independent)."""
    return math.fsum(predict_tree(t, x_row) for t in f.trees) / len(f.trees)


def predict_gbm(m: GbmModel, x_row: Sequence[float]) -> float:
    """init + lr * sum of stage outputs; fsum keeps the sum order-invariant."""
    return m.init_value + m.learning_rate * math.fsum(
        predict_tree(t, x_row) for t in m.stages
    )


def grow_by_feature(x: np.ndarray, y: np.ndarray, cfg: TreeConfig) -> Node:
    """CART by one `best_split` call per node and feature; an equal reduction
    keeps the lower feature index."""

    def grow(idx: np.ndarray, depth: int) -> Node:
        node_y = y[idx]
        if depth >= cfg.max_depth or len(idx) < cfg.split_threshold:
            return Leaf(value=float(node_y.mean()), n_samples=len(idx))
        best = None  # (reduction, feature, threshold)
        for f in range(x.shape[1]):
            found = best_split(x[idx, f], node_y, cfg.min_samples_leaf)
            if found is not None and (best is None or found[1] > best[0]):
                best = (found[1], f, found[0])
        if best is None:
            return Leaf(value=float(node_y.mean()), n_samples=len(idx))
        _, f, threshold = best
        go_left = x[idx, f] <= threshold
        return Internal(f, threshold, grow(idx[go_left], depth + 1), grow(idx[~go_left], depth + 1))

    return grow(np.arange(len(y)), 0)


def gbm_by_feature(x: np.ndarray, y: np.ndarray, n_stages: int, learning_rate: float,
                   cfg: TreeConfig) -> GbmModel:
    """Stagewise boosting with `grow_by_feature` stages."""
    init = float(y.mean())
    current = np.full(len(y), init)
    stages = []
    for _ in range(n_stages):
        stage = flat(grow_by_feature(x, y - current, cfg))
        current = current + learning_rate * predict_tree_batch(stage, x)
        stages.append(stage)
    return GbmModel(init_value=init, stages=tuple(stages), learning_rate=learning_rate)


def forest_by_feature(x: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> tuple[Node, ...]:
    """Each tree of `fit_forest`, replayed from its generator with `best_split`.

    A tree's generator first draws the bootstrap sample (all rows in order
    without bootstrap). Then, depth by depth, when a tree has open nodes
    and `features_per_split` m is below p, it draws one `rng.random((open
    nodes, p))`; row i keys the i-th open node from the left, which takes the
    features of its m smallest keys. A node splits by `best_split` on its
    rows in draw order, an equal reduction keeping the lower feature.
    """
    n, p = x.shape
    m = cfg.features_per_split if cfg.features_per_split is not None else max(1, p // 3)
    tcfg = cfg.tree
    trees = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(seed)
        root = {"rows": rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)}
        level, depth = [root], 0
        while level:
            open_ = [
                node for node in level
                if depth < tcfg.max_depth and len(node["rows"]) >= tcfg.split_threshold
                and np.ptp(y[node["rows"]]) > 0
            ]
            keys = rng.random((len(open_), p)) if open_ and m < p else None
            level = []
            for i, node in enumerate(open_):
                rows = node["rows"]
                features = range(p)
                if keys is not None:
                    features = np.sort(np.argsort(keys[i], kind="stable")[:m])
                best = None  # (reduction, feature, threshold)
                for f in features:
                    found = best_split(x[rows, f], y[rows], tcfg.min_samples_leaf)
                    if found is not None and (best is None or found[1] > best[0]):
                        best = (found[1], int(f), found[0])
                if best is not None:
                    go_left = x[rows, best[1]] <= best[2]
                    node["split"] = best[1:]
                    node["children"] = ({"rows": rows[go_left]}, {"rows": rows[~go_left]})
                    level += node["children"]
            depth += 1
        trees.append(_tree_of(root, y))
    return tuple(trees)


def _tree_of(node: dict, y: np.ndarray) -> Node:
    if "split" not in node:
        return Leaf(value=float(y[node["rows"]].mean()), n_samples=len(node["rows"]))
    left, right = node["children"]
    return Internal(*node["split"], _tree_of(left, y), _tree_of(right, y))
