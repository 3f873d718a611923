"""CART regression trees, bagged forests, and stagewise gradient boosting.

Splits minimize child SSE (equivalently, maximize variance reduction) over
midpoint thresholds. Tie-breaking is fixed — smallest threshold within a
feature, lowest feature index across features — so fits are deterministic
and reproducible across platforms.

All three growers split over exact bins: each feature's sorted distinct
training values, with every row's code into them. A boundary between two
adjacent nonempty bins of a node is exactly a midpoint candidate of
`best_split`, scored as the same SSE reduction summed in another order.
Where float noise rather than the data could decide a node — top candidates
within a relative 1e-9 of each other, or a best gain of at most 1e-9 of the
node's SSE — the node calls `best_split` over the features in that band
instead, so every tree is the one `best_split` would grow.

`fit_cart` and each `fit_gbm` stage grow one tree recursively. The bins are
built once per `fit_cart` call, and once per `fit_gbm` call for all of its
stages. At a node, one bincount of the node's (row, feature) bins and one
segmented cumulative sum score every candidate of every feature; a node with
fewer such keys than there are bins counts only the bins it occupies.

`fit_forest` grows all of its trees together, one depth level at a time.
Each tree has its own RNG stream, pre-derived from the config seed. The
stream's first draw is the bootstrap sample, which becomes integer row
weights, so `min_samples_leaf` and the split threshold count weights as
duplicated rows would. Each node then draws its own feature subset from
that stream, in level order (left to right within a depth, depth by depth),
and splits as `_grow` would on the tree's bootstrap sample given the node's
subset; a deferring node calls `best_split` on its rows, repeated by weight
in draw order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import fsum_columns
from .errors import InvalidData

# (tree, row) entries one forest block grows together; bounds per-level working memory
_BLOCK_ENTRIES = 1 << 16
# relative gain band inside which float noise, not the data, ranks candidates
_NEAR = 1e-9


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


def _choose_split(
    x: np.ndarray, idx: np.ndarray, node_y: np.ndarray, features, min_samples_leaf: int
) -> Optional[tuple[int, float]]:
    """Best (feature, threshold) on rows `idx` over increasing `features`, or None.

    An equal reduction keeps the earlier, lower feature index.
    """
    best: Optional[tuple[float, int, float]] = None  # (reduction, feature, threshold)
    for f in features:
        found = best_split(x[idx, f], node_y, min_samples_leaf)
        if found is not None and (best is None or found[1] > best[0]):
            best = (found[1], f, found[0])
    return None if best is None else best[1:]


class _BinTable:
    """Exact bins of all features on one axis: feature f's sorted distinct
    training values are the bins from start[f] on, `feature` is each bin's
    feature, and `keys[row, f]` is the row's bin of feature f."""

    def __init__(self, x: np.ndarray):
        bins = [np.unique(x[:, f], return_inverse=True) for f in range(x.shape[1])]
        size = np.array([len(values) for values, _ in bins], dtype=np.int64)
        self.start = np.cumsum(size) - size
        self.feature = np.repeat(np.arange(len(bins)), size)
        self.values = np.concatenate([np.empty(0)] + [values for values, _ in bins])
        self.keys = np.empty(x.shape, np.int32)
        for f, (_, codes) in enumerate(bins):
            self.keys[:, f] = codes + self.start[f]


def _band(top, best, second, sse):
    """Features among which float noise, not the data, could pick a node's
    split: none where the best candidate clearly wins.

    `top` holds each feature's best gain, `best` and `second` the node's best
    and runner-up gain over all candidates, `sse` its sum of squared
    deviations. A best gain of at most `_NEAR` * sse puts every feature with a
    candidate in the band; a runner-up within relative `_NEAR` of the best
    puts the features whose top gain is. Elementwise, so nodes can be rows.
    """
    near = best * (1.0 - _NEAR)
    return np.where(best <= _NEAR * sse, top > -np.inf, (second >= near) & (top >= near))


def _bin_split(
    x: np.ndarray, table: _BinTable, idx: np.ndarray, node_y: np.ndarray, min_samples_leaf: int
) -> Optional[tuple[int, float]]:
    """`_choose_split` over all features, scored from one bincount of the node's bins.

    A candidate's gain is L^2 * n / (n_l * n_r), L being the centred left
    sum. A node with fewer (row, feature) keys than the table has bins scores
    only the bins it occupies. A node inside `_band` defers to `_choose_split`
    over the band's features.
    """
    n, p = len(idx), table.keys.shape[1]
    if not p:
        return None
    centred = node_y - node_y.mean()
    keys = table.keys[idx].ravel()
    if len(keys) < len(table.values):
        occupied, keys = np.unique(keys, return_inverse=True)
        values, feature = table.values[occupied], table.feature[occupied]
        start = np.searchsorted(occupied, table.start)
    else:
        values, feature, start = table.values, table.feature, table.start
    count = np.bincount(keys, minlength=len(values))
    sums = np.bincount(keys, np.repeat(centred, p), len(values))
    left_c = np.cumsum(sums)
    left_c -= (left_c[start] - sums[start])[feature]
    left_n = np.cumsum(count) - feature * n  # each feature's bins hold every row once
    right_n = n - left_n
    legal = (count > 0) & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(legal, left_c * left_c * n / (left_n * right_n), -np.inf)

    top = np.maximum.reduceat(gain, start)
    f = int(np.argmax(top))  # equal gains keep the lower feature index
    best = top[f]
    if best == -np.inf:
        return None
    lo, hi = start[f], (start[f + 1] if f + 1 < p else len(values))
    b = lo + int(np.argmax(gain[lo:hi]))  # first max = smallest threshold
    gain[b] = -np.inf
    second = max(gain[lo:hi].max(), np.delete(top, f).max(initial=-np.inf))
    band = _band(top, best, second, float(centred @ centred))
    if band.any():
        return _choose_split(x, idx, node_y, np.flatnonzero(band).tolist(), min_samples_leaf)
    above = b + 1 + int(np.flatnonzero(count[b + 1:hi])[0])
    return f, float((values[b] + values[above]) / 2.0)


def _grow(
    x: np.ndarray, y: np.ndarray, table: _BinTable, idx: np.ndarray, depth: int, cfg: TreeConfig
) -> TreeNode:
    node_y = y[idx]
    n = len(idx)
    if depth >= cfg.max_depth or n < cfg.split_threshold or node_y.min() == node_y.max():
        return Leaf(value=float(node_y.mean()), n_samples=n)
    best = _bin_split(x, table, idx, node_y, cfg.min_samples_leaf)
    if best is None:
        return Leaf(value=float(node_y.mean()), n_samples=n)

    f, threshold = best
    go_left = x[idx, f] <= threshold
    left = _grow(x, y, table, idx[go_left], depth + 1, cfg)
    right = _grow(x, y, table, idx[~go_left], depth + 1, cfg)
    return Internal(feature_index=f, threshold=threshold, left=left, right=right)


def _training_arrays(x, y, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or len(y) < min_rows:
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData("non-finite values in tree input")
    return x, y


def fit_cart(x: np.ndarray, y: np.ndarray, cfg: TreeConfig = TreeConfig()) -> TreeNode:
    """Greedy recursive partitioning down to max_depth / min-sample limits."""
    x, y = _training_arrays(x, y, 1)
    return _grow(x, y, _BinTable(x), np.arange(len(y)), 0, cfg)


def predict_tree_batch(t: TreeNode, x: np.ndarray) -> np.ndarray:
    """Route every row of x through the tree (x[feature] <= threshold goes left)."""
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the (start, length) pairs, as int32."""
    ends = np.cumsum(lengths)
    offsets = (starts - (ends - lengths)).astype(np.int32)
    return np.arange(ends[-1], dtype=np.int32) + np.repeat(offsets, lengths)


def _score_feature(
    table: _BinTable,
    f: int,
    order: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    centred: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    total: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best and runner-up gain, and the best threshold, of feature f per node.

    The nodes are position ranges (`starts`, `counts`) of `order`, a level's
    node-grouped list of entries; `rows`, `weight` and `centred` (weighted
    deviation from the node mean) are indexed by entry, and `total` is each
    node's weight. Sorting each node's entries by bin makes every boundary
    between adjacent nonempty bins a candidate, scored from segmented
    cumulative sums as L^2 * n / (n_l * n_r), L being the centred left sum:
    `best_split`'s SSE reduction, summed in another order.
    """
    values = table.values
    ent = order[_ranges(starts, counts)]
    node = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    code = table.keys[rows[ent], f]
    by_bin = np.argsort(node.astype(np.int64) * len(values) + code, kind="stable")
    ent, code = ent[by_bin], code[by_bin]
    del by_bin

    first = np.cumsum(counts) - counts
    w = weight[ent]
    left_w = np.cumsum(w)
    left_w -= np.repeat(left_w[first] - w[first], counts)
    del w
    c = centred[ent]
    del ent
    left_c = np.cumsum(c)
    left_c -= np.repeat(left_c[first] - c[first], counts)
    del c
    node_w = np.repeat(total, counts)
    right_w = node_w - left_w
    legal = (left_w >= min_samples_leaf) & (right_w >= min_samples_leaf)
    legal[:-1] &= code[1:] != code[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        left_c *= left_c
        left_c *= node_w
        left_w *= right_w
        gain = np.where(legal, left_c / left_w, -np.inf)
    del left_c, left_w, node_w, right_w, legal

    top = np.maximum.reduceat(gain, first)
    hit = np.flatnonzero(gain == top[node])
    at = hit[np.r_[True, node[hit[1:]] != node[hit[:-1]]]]  # first max = smallest threshold
    gain[at] = -np.inf
    runner_up = np.maximum.reduceat(gain, first)
    threshold = (values[code[at]] + values[code[np.minimum(at + 1, len(code) - 1)]]) / 2.0
    return top, runner_up, threshold


class _Block:
    """Trees grown together, one depth level at a time.

    An entry is a (tree, row) pair of positive weight; a tree's entries are
    its rows in row order. Each level keeps the entries of its nodes
    ("slots") grouped by slot, slots in tree order and left to right, so the
    children of a level's split slots are the next level's slots in order.
    """

    def __init__(self, x, y, table: _BinTable, members, m: int, cfg: TreeConfig):
        self.x, self.y, self.table, self.m, self.cfg = x, y, table, m, cfg
        self.rngs = [rng for rng, _ in members]
        self.draws = [draw for _, draw in members]
        n = x.shape[0]
        weights = [np.bincount(draw, minlength=n) for draw in self.draws]
        self.sizes = np.array([np.count_nonzero(w) for w in weights])
        self.e_row = np.concatenate([np.flatnonzero(w) for w in weights]).astype(np.int32)
        self.e_w = np.concatenate([w[w > 0] for w in weights]).astype(np.int32)
        self.e_centred = np.empty(len(self.e_row))
        self.base = np.cumsum(self.sizes) - self.sizes

    def _draw_entries(self, t: int) -> np.ndarray:
        """Entry of each of tree t's draw positions."""
        present = np.bincount(self.draws[t], minlength=self.x.shape[0]) > 0
        return self.base[t] + np.cumsum(present, dtype=np.int32)[self.draws[t]] - 1

    def grow(self) -> tuple[list, list[float]]:
        """Per-depth slot records (feature or -1, threshold, leaf id, weight) and
        the leaf values, for `_assemble`."""
        cfg = self.cfg
        e_leaf = np.empty(len(self.e_row), np.int32)
        levels = []
        n_leaves = 0
        order = np.arange(len(self.e_row), dtype=np.int32)
        counts = self.sizes
        slot_tree = np.arange(len(self.rngs))
        depth = 0
        while len(counts):
            starts = np.cumsum(counts) - counts
            slot = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
            total = np.add.reduceat(self.e_w[order], starts)
            feature = np.full(len(counts), -1)
            threshold = np.zeros(len(counts))
            if depth < cfg.max_depth:
                yv = self.y[self.e_row[order]]
                varied = np.minimum.reduceat(yv, starts) < np.maximum.reduceat(yv, starts)
                del yv
                open_ = np.flatnonzero((total >= cfg.split_threshold) & varied)
                if len(open_):
                    self._split(order, starts, counts, slot, slot_tree, total, open_,
                                feature, threshold)

            leaf = feature < 0
            leaf_id = np.full(len(counts), -1)
            leaf_id[leaf] = n_leaves + np.arange(np.count_nonzero(leaf))
            n_leaves += np.count_nonzero(leaf)
            at_leaf = leaf[slot]
            e_leaf[order[at_leaf]] = leaf_id[slot[at_leaf]]
            levels.append((feature, threshold, leaf_id, total))

            # children: each split slot's entries, the left child's first
            order, slot = order[~at_leaf], slot[~at_leaf]
            del at_leaf
            go_right = self.x[self.e_row[order], feature[slot]] > threshold[slot]
            child = (2 * np.cumsum(~leaf, dtype=np.int32) - 2)[slot] + go_right
            del slot, go_right
            order = order[np.argsort(child, kind="stable")]
            counts = np.bincount(child, minlength=2 * np.count_nonzero(~leaf))
            del child
            slot_tree = np.repeat(slot_tree[~leaf], 2)
            depth += 1
        return levels, self._leaf_values(e_leaf, n_leaves)

    def _split(self, order, starts, counts, slot, slot_tree, total, open_, feature, threshold):
        """Choose each open slot's split, writing it into `feature`/`threshold`."""
        k, p, m = len(open_), self.x.shape[1], self.m
        if m < p:  # each node's own subset, drawn from its tree's stream in level order
            keys = np.concatenate([
                self.rngs[t].random((c, p))
                for t, c in enumerate(np.bincount(slot_tree[open_]).tolist()) if c
            ])
            sampled = np.zeros((k, p), dtype=bool)
            sampled[np.arange(k)[:, None], np.argsort(keys, axis=1, kind="stable")[:, :m]] = True
        else:
            sampled = np.ones((k, p), dtype=bool)

        dev = self.y[self.e_row[order]]
        centred = self.e_w[order] * dev
        dev -= (np.add.reduceat(centred, starts) / total)[slot]
        centred = self.e_w[order] * dev
        sse = np.add.reduceat(centred * dev, starts)[open_]
        self.e_centred[order] = centred
        del centred, dev
        best = np.full(k, -np.inf)
        second = np.full(k, -np.inf)
        best_f = np.full(k, -1)
        best_t = np.zeros(k)
        top_by_f = np.full((k, p), -np.inf)
        for f in range(p):
            on = np.flatnonzero(sampled[:, f])
            if not len(on):
                continue
            at = open_[on]
            top, runner_up, thr = _score_feature(
                self.table, f, order, self.e_row, self.e_w, self.e_centred,
                starts[at], counts[at], total[at], self.cfg.min_samples_leaf,
            )
            top_by_f[on, f] = top
            was = best[on]
            better = top > was  # equal gains keep the lower feature index
            second[on] = np.where(better, np.maximum(was, runner_up), np.maximum(second[on], top))
            best[on] = np.where(better, top, was)
            best_f[on] = np.where(better, f, best_f[on])
            best_t[on] = np.where(better, thr, best_t[on])

        band = _band(top_by_f, best[:, None], second[:, None], sse[:, None])
        deferred = band.any(axis=1)
        clear = (best > -np.inf) & ~deferred
        feature[open_[clear]] = best_f[clear]
        threshold[open_[clear]] = best_t[clear]
        if not deferred.any():
            return
        e_slot = np.full(len(self.e_row), -1, dtype=np.int32)
        e_slot[order] = slot
        for i in np.flatnonzero(deferred).tolist():
            s = open_[i]
            t = slot_tree[s]
            rows = self.draws[t][e_slot[self._draw_entries(t)] == s]
            choice = _choose_split(self.x, rows, self.y[rows], np.flatnonzero(band[i]).tolist(),
                                   self.cfg.min_samples_leaf)
            if choice is not None:
                feature[s], threshold[s] = choice

    def _leaf_values(self, e_leaf: np.ndarray, n_leaves: int) -> list[float]:
        """Leaf means as `_grow` takes them: numpy's mean of the leaf's draws in
        draw order, one row per leaf of a (leaves of one size) x size matrix."""
        draw_leaf = np.concatenate([e_leaf[self._draw_entries(t)] for t in range(len(self.draws))])
        ys = self.y[np.concatenate(self.draws)[np.argsort(draw_leaf, kind="stable")]]
        leaf_size = np.bincount(draw_leaf, minlength=n_leaves)
        leaf_first = np.cumsum(leaf_size) - leaf_size
        value = np.empty(n_leaves)
        for size in np.flatnonzero(np.bincount(leaf_size)):
            ids = np.flatnonzero(leaf_size == size)
            value[ids] = ys[leaf_first[ids, None] + np.arange(size)].sum(axis=1) / size
        return value.tolist()


def _assemble(levels: list, value: list[float]) -> list[TreeNode]:
    """Leaf/Internal trees from `_Block.grow`'s records, deepest level first."""
    below: list[TreeNode] = []
    for feature, threshold, leaf_id, total in reversed(levels):
        children = iter(below)
        below = [
            Leaf(value=value[i], n_samples=int(nw)) if f < 0
            else Internal(f, thr, next(children), next(children))
            for f, thr, i, nw in zip(
                feature.tolist(), threshold.tolist(), leaf_id.tolist(), total.tolist()
            )
        ]
    return below


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Bag of CARTs on bootstrap resamples with per-node feature subsets.

    Tree t is the tree `_grow` would build on its bootstrap sample (the first
    draw of its generator, `rng.integers(0, n, size=n)`), except that each
    node considers only its own draw of `features_per_split` features. The
    sample is kept as integer row weights, and the trees are grown together
    level by level in blocks of at most `_BLOCK_ENTRIES` (tree, row) entries.
    Every node draws its subset from its tree's generator in level order: all
    nodes of one depth, left to right, before the next depth. Splits come from
    presorted bins of distinct training values and are exactly `best_split`'s
    candidates; a node whose top candidates lie within a relative 1e-9 of each
    other, or whose best gain is at most 1e-9 of its SSE, defers to
    `best_split` over the features in that band, on its rows repeated by
    weight in draw order. Leaf values are the numpy mean of those rows.
    """
    x, y = _training_arrays(x, y, 2)
    n, p = x.shape
    m = cfg.features_per_split if cfg.features_per_split is not None else max(1, p // 3)
    if m > p:
        raise InvalidData(f"features_per_split {m} exceeds {p} features")

    table = _BinTable(x)
    trees: list[TreeNode] = []
    block: list[tuple[np.random.Generator, np.ndarray]] = []
    entries = 0
    for rng in _tree_rngs(cfg.seed, cfg.n_trees):
        draw = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        draw = draw.astype(np.int32)
        size = np.count_nonzero(np.bincount(draw, minlength=n))
        if block and entries + size > _BLOCK_ENTRIES:
            trees += _assemble(*_Block(x, y, table, block, m, cfg.tree).grow())
            block, entries = [], 0
        block.append((rng, draw))
        entries += size
    trees += _assemble(*_Block(x, y, table, block, m, cfg.tree).grow())
    return Forest(trees=tuple(trees), config=cfg)


def predict_forest_batch(f: Forest, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    member = np.stack([predict_tree_batch(t, x) for t in f.trees])
    return fsum_columns(member) / len(f.trees)


def fit_gbm(x: np.ndarray, y: np.ndarray, cfg: GbmConfig = GbmConfig()) -> GbmModel:
    """Stagewise boosting: each stage fits a small CART to current residuals."""
    x, y = _training_arrays(x, y, 2)

    table = _BinTable(x)  # x is the same in every stage
    rows = np.arange(len(y))
    init = float(y.mean())
    current = np.full(len(y), init)
    stages = []
    for _ in range(cfg.n_stages):
        stage = _grow(x, y - current, table, rows, 0, cfg.tree)
        current = current + cfg.learning_rate * predict_tree_batch(stage, x)
        stages.append(stage)
    return GbmModel(init_value=init, stages=tuple(stages), learning_rate=cfg.learning_rate)


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
    "predict_tree_batch",
    "fit_forest",
    "predict_forest_batch",
    "fit_gbm",
    "predict_gbm_batch",
]
