"""CART regression trees, bagged forests, and stagewise gradient boosting.

Splits minimize child SSE (equivalently, maximize variance reduction) over
midpoint thresholds. Tie-breaking is fixed — smallest threshold within a
feature, lowest feature index across features — so fits are deterministic
and reproducible across platforms.

One scorer, `_bin_split`, finds the splits of all three growers. It works
over exact bins: each feature's sorted distinct training values, with every
row's code into them. A boundary between two adjacent nonempty bins of a
node is exactly a midpoint candidate of `best_split`, scored as the same SSE
reduction summed in another order. One call scores a batch of nodes: their
(node, bin) keys are counted on one axis, node after node, by one bincount
(or, when the keys are fewer than the bins, over the occupied bins only), and
one segmented cumulative sum scores every candidate of every (node, feature)
pair. Where float noise rather than the data could decide a node — two of
its candidates reach its best gain less a relative 1e-9, or that gain is at
most 1e-9 of its SSE — the node calls `best_split` over the features in
that band instead, so every tree is the one `best_split` would grow.

Two growers call the scorer; both build each tree as one `Tree` of node
arrays, which the router walks and `persist` stores. `fit_cart` and each
`fit_gbm` stage grow one tree recursively (`_grow`), one node per call, in
preorder; the bins are built once per `fit_cart` call, and once per
`fit_gbm` call for all of its stages.

`fit_forest` grows all of its trees together, one depth level at a time
(`_Block`), with one call per level for the open nodes of every tree in a
block. A block holds at most `_BLOCK_KEYS` (tree, row, sampled feature) keys,
which bounds a level's working memory. Each tree has its own RNG stream,
pre-derived from the config seed. The stream's first draw is the bootstrap
sample, which becomes integer row weights, so `min_samples_leaf` and the
split threshold count weights as duplicated rows would. Each node then
draws its own feature subset from that stream, in level order (left to
right within a depth, depth by depth), and splits as `_grow` would on the
tree's bootstrap sample given the node's subset; a deferring node calls
`best_split` on its rows, repeated by weight in draw order.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .core import fsum_rows
from .errors import InvalidData

# (tree, row, sampled feature) keys one forest block grows together; bounds per-level memory
_BLOCK_KEYS = 1 << 15
# relative gain band inside which float noise, not the data, ranks candidates
_NEAR = 1e-9


# the Tree fields that hold integers
_INT_FIELDS = ("feature", "left", "right", "n_samples")


@dataclass(frozen=True, eq=False)
class Tree:
    """A regression tree as six equal-length node arrays, the root at 0. Node
    i splits on `feature[i]` (x[feature] <= threshold goes to `left[i]`, the
    rest to `right[i]`, both later nodes), or is a leaf: feature, left and
    right -1, `value[i]` and `n_samples[i]` the mean and count of the training
    rows routed there. Leaf thresholds, and split values and counts, are 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray

    def __post_init__(self):
        """Take lists or arrays; raise ValueError unless they form a tree."""
        for name in (f.name for f in fields(self)):
            integer = name in _INT_FIELDS
            raw, allowed = getattr(self, name), {int} if integer else {int, float}
            # booleans and fractions where integers belong, before np.asarray coerces them
            if isinstance(raw, list) and not set(map(type, raw)) <= allowed:
                raise ValueError(f"tree {name} holds a value of the wrong type")
            a = np.asarray(raw)
            if a.ndim != 1 or a.dtype.kind not in ("i" if integer else "if"):
                raise ValueError(f"tree {name} is not a 1-d array of numbers of its kind")
            object.__setattr__(self, name, a.astype(np.int64 if integer else float))
        n = len(self.feature)
        if n == 0 or any(len(getattr(self, f.name)) != n for f in fields(self)):
            raise ValueError("tree node arrays must be nonempty and of one length")
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.value).all()):
            raise ValueError("tree thresholds and values must be finite")
        if (self.feature < -1).any() or (self.n_samples < 0).any():
            raise ValueError("tree features must be >= -1 and sample counts >= 0")
        node = np.arange(n)
        split = self.feature >= 0
        children = ((self.left > node) & (self.left < n) & (self.right > node)
                    & (self.right < n))
        if not np.where(split, children, (self.left == -1) & (self.right == -1)).all():
            raise ValueError("tree children must be later nodes, and -1 at leaves")

    @classmethod
    def from_records(cls, records: list) -> "Tree":
        """A Tree from node records [feature, threshold, left, right, value, n]."""
        return cls(*map(list, zip(*records)))


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
    trees: tuple[Tree, ...]
    config: ForestConfig

    def __post_init__(self):
        if len(self.trees) != self.config.n_trees:
            raise ValueError(f"config.n_trees is {self.config.n_trees}, "
                             f"but the forest holds {len(self.trees)} trees")


@dataclass(frozen=True)
class GbmModel:
    init_value: float
    stages: tuple[Tree, ...]
    learning_rate: float

    def __post_init__(self):
        if not (np.isfinite(self.init_value) and 0.0 < self.learning_rate <= 1.0):
            raise ValueError("GBM init_value must be finite and learning_rate in (0, 1]")
        if not self.stages:
            raise ValueError("a GBM needs at least one stage")


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
    return float(_midpoint(xs[best], xs[best + 1])), float(reduction[best])


def _midpoint(lo, hi):
    """Threshold between neighbouring values lo < hi: their midpoint, or lo
    where the midpoint rounds onto hi, so that `x <= threshold` parts them."""
    mid = (lo + hi) / 2.0
    return np.where(mid < hi, mid, lo)


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
    training values are the `size[f]` bins from start[f] on, and
    `keys[row, f]` is the row's bin of feature f."""

    def __init__(self, x: np.ndarray):
        bins = [np.unique(x[:, f], return_inverse=True) for f in range(x.shape[1])]
        self.size = np.array([len(values) for values, _ in bins], dtype=np.int64)
        self.start = np.cumsum(self.size) - self.size
        self.values = np.concatenate([np.empty(0)] + [values for values, _ in bins])
        self.keys = np.empty(x.shape, np.int32)
        for f, (_, codes) in enumerate(bins):
            self.keys[:, f] = codes + self.start[f]


def _bin_split(table, rows, counts, weight, centred, features, sse, min_samples_leaf):
    """Each node's best split in a batch of nodes, scored from one count of
    (node, bin) keys.

    Node j's entries are the next `counts[j]` of `rows`; `weight` is each
    entry's weight (None: all ones), `centred` its weighted deviation from its
    node's mean, and `sse` each node's sum of squared deviations. `features`
    (nodes x m, ascending in each row) holds each node's feature subset; None
    stands for one node over every feature, whose keys are the table's own.
    Each (node, feature) pair is a segment holding that feature's bins, laid
    out node by node on one axis. Keys at least as many as those bins are
    counted into all of them by one bincount pair; fewer keys count only the
    bins they occupy. A candidate's gain is L^2 * n / (n_l * n_r), L being
    the centred left sum from a segmented cumulative sum: `best_split`'s SSE
    reduction, summed in another order.

    Returns each node's feature (-1 for none) and threshold, and its band
    row over its features. With near = best * (1 - `_NEAR`), a node with at
    least two candidates that reach near bands the features whose top gain
    does, and one whose best gain is at most `_NEAR` * sse bands every
    feature with a legal candidate: float noise could pick among them. A
    node with a banded feature defers to `_choose_split` over them.
    """
    k, p = len(counts), table.keys.shape[1]
    if features is None:
        features, size, seg_start = np.arange(p)[None], table.size, table.start
        base = np.zeros(p, np.intp)
        keys = table.keys[rows].ravel()
    else:
        size = table.size[features.ravel()]
        seg_start = size.cumsum() - size  # each segment's first position when all bins are kept
        base = seg_start - table.start[features.ravel()]  # a key is base + the table's bin
        node = np.repeat(np.arange(k), counts)
        keys = np.empty((len(rows), features.shape[1]), np.intp)
        for i, (f, shift) in enumerate(zip(features.T, base.reshape(k, -1).T)):
            keys[:, i] = table.keys[rows, f[node]]  # column by column: no (entry, feature) index
            keys[:, i] += shift[node]
        keys = keys.ravel()
        del node
    m = features.shape[1]
    if weight is None:
        total = counts
    else:
        weight = weight.astype(float)
        total = np.add.reduceat(weight, np.cumsum(counts) - counts)

    n_bins = int(size.sum())
    if len(keys) < n_bins:
        occupied = np.sort(keys)
        occupied = occupied[np.append(True, occupied[1:] != occupied[:-1])]
        keys = occupied.searchsorted(keys)
        first = occupied.searchsorted(seg_start)
        seg_len = np.append(first[1:], len(occupied)) - first
    else:
        occupied, first, seg_len = None, seg_start, size
    left_n = np.bincount(keys, None if weight is None else weight.repeat(m), seg_len.sum())
    left_c = np.bincount(keys, centred.repeat(m), len(left_n))
    del keys
    filled = left_n > 0
    for a in left_c, left_n:  # cumulative sums within each segment, in place
        before = a[first]
        a.cumsum(out=a)
        a -= (a[first] - before).repeat(seg_len)
    n = total.repeat(m).repeat(seg_len)
    left_c *= left_c
    left_c *= n
    right_n = n
    right_n -= left_n
    legal = filled & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    left_n *= right_n
    del right_n, n
    gain = np.divide(left_c, left_n, out=np.full(len(left_c), -np.inf), where=legal)
    del left_c, left_n, legal

    top = np.maximum.reduceat(gain, first)
    hit = np.flatnonzero(gain == top.repeat(seg_len))
    at = hit[hit.searchsorted(first)]  # each segment's first max = smallest threshold
    seg = np.arange(0, k * m, m) + top.reshape(k, m).argmax(axis=1)  # ties keep the lower feature
    best = top[seg]
    near = best * (1.0 - _NEAR)  # noise could rank two candidates that reach it
    tied = np.add.reduceat(gain >= near.repeat(seg_len.reshape(k, m).sum(1)), first[::m]) > 1
    del gain, hit
    top = top.reshape(k, m)
    band = np.where((best <= _NEAR * sse)[:, None], top > -np.inf,
                    tied[:, None] & (top >= near[:, None]))

    split = best > -np.inf
    feature = np.where(split, features.ravel()[seg], -1)
    seg = seg[split]
    b = at[seg]
    if occupied is None:  # the next bin this node occupies
        nonzero = np.flatnonzero(filled)
        above = nonzero[nonzero.searchsorted(b, "right")]
    else:
        b, above = occupied[b], occupied[b + 1]
    threshold = np.zeros(k)
    threshold[split] = _midpoint(table.values[b - base[seg]], table.values[above - base[seg]])
    return feature, threshold, band


def _grow(
    x: np.ndarray, y: np.ndarray, table: _BinTable, idx: np.ndarray, depth: int,
    cfg: TreeConfig, nodes: list,
) -> list:
    """Append the subtree on rows `idx` to `nodes` as preorder records
    [feature, threshold, left, right, value, n]; returns `nodes`."""
    node_y = y[idx]
    n = len(idx)
    best = None
    if depth < cfg.max_depth and n >= cfg.split_threshold and node_y.min() < node_y.max():
        centred = node_y - node_y.mean()
        feature, threshold, band = _bin_split(
            table, idx, np.array([n]), None, centred, None, np.array([centred @ centred]),
            cfg.min_samples_leaf,
        )
        if band.any():
            best = _choose_split(x, idx, node_y, np.flatnonzero(band[0]).tolist(),
                                 cfg.min_samples_leaf)
        elif feature[0] >= 0:
            best = int(feature[0]), float(threshold[0])
    if best is None:
        nodes.append([-1, 0.0, -1, -1, float(node_y.mean()), n])
        return nodes

    f, threshold = best
    record = [f, threshold, len(nodes) + 1, -1, 0.0, 0]
    nodes.append(record)
    go_left = x[idx, f] <= threshold
    _grow(x, y, table, idx[go_left], depth + 1, cfg, nodes)
    record[3] = len(nodes)
    return _grow(x, y, table, idx[~go_left], depth + 1, cfg, nodes)


def _training_arrays(x, y, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or len(y) < min_rows:
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData("non-finite values in tree input")
    return x, y


def fit_cart(x: np.ndarray, y: np.ndarray, cfg: TreeConfig = TreeConfig()) -> Tree:
    """Greedy recursive partitioning down to max_depth / min-sample limits."""
    x, y = _training_arrays(x, y, 1)
    return Tree.from_records(_grow(x, y, _BinTable(x), np.arange(len(y)), 0, cfg, []))


def _columns(x) -> np.ndarray:
    """Column-major float copy of a row matrix: `cols[f]` is feature f's column."""
    return np.ascontiguousarray(np.asarray(x, dtype=float).T)


def _route(t: Tree, cols: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Leaf value of every row, routed over feature columns `cols` (features x
    rows; cols[feature] <= threshold goes left), written into `out`."""
    if out is None:
        out = np.empty(cols.shape[1])
    feature, threshold, left, right, value = (
        a.tolist() for a in (t.feature, t.threshold, t.left, t.right, t.value))
    stack = [(0, np.arange(cols.shape[1]))]
    while stack:
        node, idx = stack.pop()
        f = feature[node]
        if f < 0:
            out[idx] = value[node]
            continue
        go_left = cols[f].take(idx) <= threshold[node]
        stack.append((left[node], idx.compress(go_left)))
        stack.append((right[node], idx.compress(~go_left)))
    return out


def predict_tree_batch(t: Tree, x: np.ndarray) -> np.ndarray:
    """Route every row of x through the tree (x[feature] <= threshold goes left)."""
    return _route(t, _columns(x))


def _route_members(members, cols: np.ndarray) -> np.ndarray:
    """Each member tree's predictions of the rows of feature columns `cols`:
    one row each of a (members x rows) matrix."""
    out = np.empty((len(members), cols.shape[1]))
    for t, row in zip(members, out):
        _route(t, cols, row)
    return out


def _member_sum(members, x: np.ndarray) -> np.ndarray:
    """math.fsum of the member trees' predictions of each row of x. Each
    member is routed into one reused buffer and folded into the sum
    (fsum_rows), so memory grows with the rows, whatever the member count;
    only rows whose sum cannot be certified are routed again, through every
    member."""
    cols = _columns(x)

    def routed():
        out = np.empty(cols.shape[1])
        for t in members:
            yield _route(t, cols, out)

    return fsum_rows(routed(), cols.shape[1], lambda rows: _route_members(members, cols[:, rows]))


def _tree_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + l) over the (start, length) pairs, as int32."""
    ends = np.cumsum(lengths)
    offsets = (starts - (ends - lengths)).astype(np.int32)
    return np.arange(ends[-1], dtype=np.int32) + np.repeat(offsets, lengths)


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
        base = np.cumsum(self.sizes) - self.sizes
        # each tree's entry of each of its draw positions
        self.draw_entries = [b + np.cumsum(w > 0, dtype=np.int32)[draw] - 1
                             for b, w, draw in zip(base, weights, self.draws)]

    def grow(self) -> tuple[list, np.ndarray]:
        """Per-depth slot records (feature or -1, threshold, leaf id, weight,
        tree) and the leaf values, for `_block_trees`."""
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
            levels.append((feature, threshold, leaf_id, total, slot_tree))

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
            features = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)
        else:
            features = np.arange(p)[None].repeat(k, axis=0)

        counts = counts[open_]
        first = np.cumsum(counts) - counts
        node = np.repeat(np.arange(k), counts)
        ent = order[_ranges(starts[open_], counts)]
        rows, w = self.e_row[ent], self.e_w[ent]
        dev = self.y[rows]
        centred = w * dev
        dev -= (np.add.reduceat(centred, first) / total[open_])[node]
        centred = w * dev
        sse = np.add.reduceat(centred * dev, first)
        del dev, node
        f, thr, band = _bin_split(self.table, rows, counts, w, centred, features, sse,
                                  self.cfg.min_samples_leaf)
        deferred = band.any(axis=1)
        feature[open_] = np.where(deferred, -1, f)
        threshold[open_] = thr
        if not deferred.any():
            return
        e_slot = np.full(len(self.e_row), -1, dtype=np.int32)
        e_slot[order] = slot
        for i in np.flatnonzero(deferred).tolist():
            s = open_[i]
            t = slot_tree[s]
            rows = self.draws[t][e_slot[self.draw_entries[t]] == s]
            choice = _choose_split(self.x, rows, self.y[rows], features[i][band[i]].tolist(),
                                   self.cfg.min_samples_leaf)
            if choice is not None:
                feature[s], threshold[s] = choice

    def _leaf_values(self, e_leaf: np.ndarray, n_leaves: int) -> np.ndarray:
        """Leaf means as `_grow` takes them: numpy's mean of the leaf's draws in
        draw order, one row per leaf of a (leaves of one size) x size matrix."""
        draw_leaf = e_leaf[np.concatenate(self.draw_entries)]
        ys = self.y[np.concatenate(self.draws)[np.argsort(draw_leaf, kind="stable")]]
        leaf_size = np.bincount(draw_leaf, minlength=n_leaves)
        leaf_first = np.cumsum(leaf_size) - leaf_size
        value = np.empty(n_leaves)
        for size in np.flatnonzero(np.bincount(leaf_size)):
            ids = np.flatnonzero(leaf_size == size)
            value[ids] = ys[leaf_first[ids, None] + np.arange(size)].sum(axis=1) / size
        return value


def _block_trees(levels: list, leaf_value: np.ndarray) -> list[Tree]:
    """The block's Trees from `_Block.grow`'s records, each in level order.

    A tree's nodes after its root are, in level order, the children of its
    splits in order, two per split: its r-th split's are nodes 2r+1 and 2r+2.
    """
    feature, threshold, leaf_id, total, tree = map(np.concatenate, zip(*levels))
    split = feature >= 0
    columns = (feature, np.where(split, threshold, 0.0),
               np.where(split, 0.0, leaf_value[leaf_id]), np.where(split, 0, total))
    order = np.argsort(tree, kind="stable")
    cuts = np.cumsum(np.bincount(tree))[:-1]
    trees = []
    for f, thr, value, n in zip(*(np.split(c[order], cuts) for c in columns)):
        left = np.where(f >= 0, 2 * np.cumsum(f >= 0) - 1, -1)
        trees.append(Tree(f, thr, left, np.where(f >= 0, left + 1, -1), value, n))
    return trees


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig = ForestConfig()) -> Forest:
    """Bag of CARTs on bootstrap resamples with per-node feature subsets.

    Tree t is the tree `_grow` would build on its bootstrap sample (the first
    draw of its generator, `rng.integers(0, n, size=n)`), except that each
    node considers only its own draw of `features_per_split` features. The
    sample is kept as integer row weights, and the trees are grown together
    level by level in blocks of at most `_BLOCK_KEYS` (tree, row, sampled
    feature) keys; `_bin_split` scores all open nodes of a block's level in
    one call. Every node draws its subset from its tree's generator in level
    order: all nodes of one depth, left to right, before the next depth.
    Splits come from bins of distinct training values and are exactly
    `best_split`'s candidates; a node with two candidates within a relative
    1e-9 of its best gain, or whose best gain is at most 1e-9 of its SSE,
    defers to `best_split` over the features in that band, on its rows
    repeated by weight in draw order. Leaf values are the numpy mean of those
    rows.
    """
    x, y = _training_arrays(x, y, 2)
    n, p = x.shape
    m = cfg.features_per_split if cfg.features_per_split is not None else max(1, p // 3)
    if m > p:
        raise InvalidData(f"features_per_split {m} exceeds {p} features")

    table = _BinTable(x)
    trees: list[Tree] = []
    block: list[tuple[np.random.Generator, np.ndarray]] = []
    keys = 0
    for rng in _tree_rngs(cfg.seed, cfg.n_trees):
        draw = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        draw = draw.astype(np.int32)
        size = np.count_nonzero(np.bincount(draw, minlength=n)) * m
        if block and keys + size > _BLOCK_KEYS:
            trees += _block_trees(*_Block(x, y, table, block, m, cfg.tree).grow())
            block, keys = [], 0
        block.append((rng, draw))
        keys += size
    trees += _block_trees(*_Block(x, y, table, block, m, cfg.tree).grow())
    return Forest(trees=tuple(trees), config=cfg)


def predict_forest_batch(f: Forest, x: np.ndarray) -> np.ndarray:
    return _member_sum(f.trees, x) / len(f.trees)


def fit_gbm(x: np.ndarray, y: np.ndarray, cfg: GbmConfig = GbmConfig()) -> GbmModel:
    """Stagewise boosting: each stage fits a small CART to current residuals."""
    x, y = _training_arrays(x, y, 2)

    table = _BinTable(x)  # x is the same in every stage
    cols = _columns(x)
    rows = np.arange(len(y))
    init = float(y.mean())
    current = np.full(len(y), init)
    stages = []
    for _ in range(cfg.n_stages):
        stage = Tree.from_records(_grow(x, y - current, table, rows, 0, cfg.tree, []))
        current = current + cfg.learning_rate * _route(stage, cols)
        stages.append(stage)
    return GbmModel(init_value=init, stages=tuple(stages), learning_rate=cfg.learning_rate)


def predict_gbm_batch(m: GbmModel, x: np.ndarray) -> np.ndarray:
    return m.init_value + m.learning_rate * _member_sum(m.stages, x)


__all__ = [
    "Tree",
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
