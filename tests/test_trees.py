"""CART splitting/growing, bagged forests, and gradient boosting."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from yieldcast.errors import InsufficientRows, InvalidData, ShapeError
from yieldcast.trees import (
    Forest,
    ForestConfig,
    GbmConfig,
    GbmModel,
    TreeConfig,
    best_split,
    fit_cart,
    fit_forest,
    fit_gbm,
    predict_forest_batch,
    predict_gbm_batch,
    predict_tree_batch,
)
from yieldcast import trees
from yieldcast.trees import _tree_rngs
from tree_oracles import (
    Internal,
    Leaf,
    flat,
    forest_by_feature,
    gbm_by_feature,
    gbm_nodes,
    grow_by_feature,
    nodes,
    predict_forest,
    predict_gbm,
    predict_tree,
)


class TestBestSplit:
    def test_clean_step_function(self):
        found = best_split(np.array([1.0, 2.0, 3.0, 4.0]),
                           np.array([0.0, 0.0, 10.0, 10.0]), 1)
        # (2*2/4) * (0 - 10)^2 = 100, midpoint between 2 and 3
        assert found == (2.5, 100.0)

    def test_tie_takes_smallest_threshold(self):
        # both boundaries reduce by (1*2/3)*25 = 50/3; first one wins
        found = best_split(np.array([1.0, 2.0, 3.0]), np.array([0.0, 10.0, 0.0]), 1)
        assert found == (1.5, pytest.approx(50.0 / 3.0, rel=1e-15))

    def test_zero_reduction_rejected(self):
        found = best_split(np.array([1.0, 1.0, 2.0, 2.0]),
                           np.array([0.0, 10.0, 0.0, 10.0]), 1)
        assert found is None

    def test_constant_targets_short_circuit(self):
        assert best_split(np.arange(10.0), np.full(10, 3.0), 1) is None

    def test_min_leaf_restricts_boundaries(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([100.0, 0.0, 0.0, 0.0])
        # min_leaf=1 isolates the outlier; min_leaf=2 must split in the middle
        assert best_split(x, y, 1) == (1.5, pytest.approx((1 * 3 / 4) * 100.0**2))
        assert best_split(x, y, 2) == (2.5, pytest.approx((2 * 2 / 4) * 50.0**2))

    def test_too_few_rows_or_mismatch(self):
        assert best_split(np.array([1.0]), np.array([1.0]), 1) is None
        assert best_split(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), 2) is None
        assert best_split(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 1) is None

    def test_reduction_equals_sse_decomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            found = best_split(x, y, 1)
            if found is None:
                continue
            threshold, reduction = found
            left, right = y[x <= threshold], y[x > threshold]
            sse = lambda v: float(np.sum((v - v.mean()) ** 2))
            assert reduction == pytest.approx(sse(y) - sse(left) - sse(right),
                                              rel=1e-9, abs=1e-12)
            assert reduction > 0.0


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([1.0, 2.0, 10.0, 20.0])


class TestFitCart:
    def test_xor_fixture_node_for_node(self):
        tree = fit_cart(XOR_X, XOR_Y, TreeConfig(max_depth=2, min_samples_leaf=1))
        assert nodes(tree) == Internal(
            feature_index=0,
            threshold=0.5,
            left=Internal(1, 0.5, Leaf(1.0, 1), Leaf(2.0, 1)),
            right=Internal(1, 0.5, Leaf(10.0, 1), Leaf(20.0, 1)),
        )

    def test_depth_one_stump(self):
        stump = fit_cart(np.array([[1.0], [2.0], [3.0], [4.0]]),
                         np.array([0.0, 0.0, 10.0, 10.0]),
                         TreeConfig(max_depth=1, min_samples_leaf=1))
        assert nodes(stump) == Internal(0, 2.5, Leaf(0.0, 2), Leaf(10.0, 2))

    def test_row_on_threshold_goes_left(self):
        stump = flat(Internal(0, 2.5, Leaf(0.0, 2), Leaf(10.0, 2)))
        assert predict_tree(stump, [2.5]) == 0.0
        assert predict_tree(stump, [2.5000001]) == 10.0

    def test_leaf_values_are_routed_means(self):
        rng = np.random.default_rng(3)

        def check(node, x, y, idx):
            if isinstance(node, Leaf):
                assert node.n_samples == len(idx)
                assert node.value == pytest.approx(float(y[idx].mean()), rel=1e-12)
                return
            go_left = x[idx, node.feature_index] <= node.threshold
            check(node.left, x, y, idx[go_left])
            check(node.right, x, y, idx[~go_left])

        for _ in range(10):
            n = int(rng.integers(10, 80))
            x = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            tree = fit_cart(x, y, TreeConfig(max_depth=4, min_samples_leaf=2))
            check(nodes(tree), x, y, np.arange(n))

    def test_unique_rows_fit_perfectly_at_depth(self):
        rng = np.random.default_rng(5)
        x = rng.permutation(32).astype(float).reshape(-1, 1)
        y = rng.normal(size=32)
        tree = fit_cart(x, y, TreeConfig(max_depth=32, min_samples_leaf=1))
        np.testing.assert_allclose(predict_tree_batch(tree, x), y, atol=1e-12)

    def test_batch_matches_scalar_prediction(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        tree = fit_cart(x, y, TreeConfig(max_depth=5, min_samples_leaf=3))
        queries = rng.normal(size=(30, 4))
        scalar = np.array([predict_tree(tree, row) for row in queries])
        np.testing.assert_array_equal(predict_tree_batch(tree, queries), scalar)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            fit_cart(np.ones(4), np.ones(4))
        with pytest.raises(ShapeError):
            fit_cart(np.ones((4, 2)), np.ones(3))
        with pytest.raises(InsufficientRows):
            fit_cart(np.empty((0, 2)), np.empty(0))
        with pytest.raises(InvalidData):
            fit_cart(np.array([[np.nan], [1.0]]), np.ones(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_split=0)
        assert TreeConfig(min_samples_leaf=4).split_threshold == 8
        assert TreeConfig(min_samples_split=3).split_threshold == 3


def random_tree(rng, p, grid, depth):
    """A random tree over p features whose thresholds are values of `grid`."""
    if depth == 0 or rng.random() < 0.2:
        return Leaf(value=float(rng.normal()), n_samples=1)
    return Internal(feature_index=int(rng.integers(p)), threshold=float(rng.choice(grid)),
                    left=random_tree(rng, p, grid, depth - 1),
                    right=random_tree(rng, p, grid, depth - 1))


def predict_recursive(t, x_row):
    if isinstance(t, Leaf):
        return t.value
    return predict_recursive(t.left if x_row[t.feature_index] <= t.threshold else t.right, x_row)


class TestRoute:
    def test_route_equals_the_recursive_oracle(self):
        # queries on the thresholds' own grid: many rows sit exactly on a threshold
        rng = np.random.default_rng(21)
        grid = np.round(rng.normal(size=9), 2)
        for p in (1, 4):
            x = rng.choice(grid, size=(200, p))
            x[::7] += 0.005  # and some rows between grid values
            cols = trees._columns(x)
            for _ in range(20):
                tree = random_tree(rng, p, grid, depth=6)
                expected = [predict_recursive(tree, row) for row in x]
                assert trees._route(flat(tree), cols).tolist() == expected
                assert predict_tree_batch(flat(tree), x).tolist() == expected

    def test_forest_and_gbm_route_every_member_over_one_copy(self):
        rng = np.random.default_rng(22)
        grid = np.arange(-3.0, 4.0)
        x = rng.choice(grid, size=(150, 3))
        members = tuple(flat(random_tree(rng, 3, grid, depth=5)) for _ in range(6))
        forest = Forest(trees=members, config=ForestConfig(n_trees=6))
        gbm = GbmModel(init_value=0.25, stages=members, learning_rate=0.3)
        assert predict_forest_batch(forest, x).tolist() == [predict_forest(forest, r) for r in x]
        assert predict_gbm_batch(gbm, x).tolist() == [predict_gbm(gbm, r) for r in x]


def mixed_columns(rng, n):
    """Continuous, integer and one-hot columns; a copy of the first column (a
    tie the lower feature index must win); a constant column; and two
    neighbouring doubles, whose midpoint rounds onto the lower one."""
    low, high = 1.0, np.nextafter(1.0, 2.0)
    assert (low + high) / 2.0 == low
    items = rng.integers(0, 4, size=n)
    base = rng.normal(size=n)
    x = np.column_stack([
        base,
        rng.integers(0, 5, size=n).astype(float),
        np.eye(4)[items],
        base,
        np.full(n, 2.5),
        np.where(rng.random(n) < 0.5, low, high),
    ])
    return x, items


def count_calls(monkeypatch, name):
    """Patch trees.<name> to count its calls; returns the one-element counter."""
    calls = [0]
    inner = getattr(trees, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(trees, name, counted)
    return calls


class TestBinnedSplits:
    def test_cart_and_gbm_equal_the_per_feature_grower(self, monkeypatch):
        scored = count_calls(monkeypatch, "_bin_split")
        deferred = count_calls(monkeypatch, "_choose_split")

        def check(x, y, cfg, trial):
            assert nodes(fit_cart(x, y, cfg)) == grow_by_feature(x, y, cfg), f"trial {trial}"
            gcfg = GbmConfig(n_stages=4, learning_rate=0.3, tree=cfg)
            assert gbm_nodes(fit_gbm(x, y, gcfg)) == gbm_nodes(gbm_by_feature(x, y, 4, 0.3, cfg)), \
                f"trial {trial}"

        rng = np.random.default_rng(909)
        for trial in range(60):
            n = int(rng.integers(8, 120))
            x, items = mixed_columns(rng, n)
            if trial % 3 == 0:
                y = rng.integers(0, 4, size=n).astype(float)  # exact ties and zero gains
            elif trial % 3 == 1:
                y = 3.0 * x[:, 0] + items + rng.normal(scale=0.3, size=n)
            else:
                noise = rng.normal(scale=0.1, size=n) * 10.0 ** rng.integers(-3, 4)
                y = (x[:, -1] > 1.0) * 7.0 + noise
            check(x, y, TreeConfig(max_depth=int(rng.integers(1, 9)),
                                   min_samples_leaf=1 + trial % 5), trial)
        # Monotone copies of one column induce the same partition, so their
        # gains tie up to float noise; targets up to 1e6 make that noise large.
        for trial in range(60, 160):
            n = int(rng.integers(4, 90))
            base = rng.normal(size=n)
            p = int(rng.integers(1, 6))
            x = np.column_stack([base] + [np.exp(j * base) + j for j in range(1, p)])
            y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 7)
            check(x, y, TreeConfig(max_depth=int(rng.integers(1, 9)),
                                   min_samples_leaf=1 + trial % 5), trial)
        # both paths ran: some nodes split from their bins, others deferred
        assert 0 < deferred[0] < scored[0]

    def test_clear_splits_skip_best_split(self, monkeypatch):
        calls = count_calls(monkeypatch, "best_split")
        rng = np.random.default_rng(21)
        x = rng.normal(size=(400, 5))
        y = 10.0 * (x[:, 0] > 0) + 5.0 * x[:, 1] + rng.normal(scale=0.1, size=400)
        tree = fit_cart(x, y, TreeConfig(max_depth=6, min_samples_leaf=5))
        assert calls[0] < np.count_nonzero(tree.feature >= 0) / 4


def _node(columns, y, band):
    return np.array(columns, dtype=float).T, np.array(y, dtype=float), band


STEP = [0, 0, 0, 0, 10, 10, 10, 10]
# Hand-built nodes of three features each, with the band row `_bin_split`
# must return for them: the features among which float noise could pick.
NEAR_TIE_NODES = {
    # a column and a monotone copy of it cut the same partition: equal gains
    "tie across features": _node([[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 6, 8, 10, 12, 14, 16],
                                  [3, 1, 4, 1, 5, 9, 2, 6]], STEP, [True, True, False]),
    "clear winner": _node([[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 5, 4, 6, 7, 8],
                           [3, 1, 4, 1, 5, 9, 2, 6]], STEP, [False, False, False]),
    # splitting either end off (0, 5, 5, 10) gains the same
    "tie within a feature": _node([[1, 2, 3, 4], [2, 1, 4, 3], [7, 7, 7, 7]],
                                  [0, 5, 5, 10], [True, False, False]),
    # every candidate leaves both children at the node's mean: a best gain of 0
    "no gain": _node([[1, 1, 2, 2], [5, 6, 5, 6], [7, 7, 7, 7]], [0, 10, 10, 0],
                     [True, True, False]),
    "no candidate": _node([[1, 1, 1], [2, 2, 2], [3, 3, 3]], [1, 2, 3],
                          [False, False, False]),
}


def near_tie_band(table, nodes, y, weights, features, sparse):
    """`_bin_split`'s band rows for nodes given as row indices of `table`'s
    rows, with targets `y` and entry weights (None: all ones); `sparse` says
    which counting path the batch must take."""
    counts = np.array([len(idx) for idx in nodes])
    rows = np.concatenate(nodes)
    w = np.ones(len(rows)) if weights is None else np.concatenate(weights)
    centred, sse = [], []
    for node_y, node_w in zip(y, np.split(w, np.cumsum(counts)[:-1])):
        dev = node_y - (node_w @ node_y) / node_w.sum()
        centred.append(node_w * dev)
        sse.append(centred[-1] @ dev)
    n_bins = table.size.sum() if features is None else table.size[features].sum()
    m = table.keys.shape[1] if features is None else features.shape[1]
    assert (len(rows) * m < n_bins) == sparse
    _, _, band = trees._bin_split(
        table, rows, counts, None if weights is None else np.concatenate(weights),
        np.concatenate(centred), features, np.array(sse), 1,
    )
    return band.tolist()


class TestNearTieBand:
    @pytest.mark.parametrize("sparse", [False, True], ids=["all-bins", "occupied-bins"])
    @pytest.mark.parametrize("case", list(NEAR_TIE_NODES))
    def test_one_node_over_every_feature(self, case, sparse):
        x, y, want = NEAR_TIE_NODES[case]
        n = len(y)
        if sparse:  # more rows of the table, outside the node: bins the node leaves empty
            x = np.vstack([x, 100.0 + np.arange(9.0 * n).reshape(3 * n, 3)])
        band = near_tie_band(trees._BinTable(x), [np.arange(n)], [y], None, None, sparse)
        assert band == [want]

    @pytest.mark.parametrize("sparse", [False, True], ids=["all-bins", "occupied-bins"])
    def test_weighted_nodes_with_feature_subsets(self, sparse):
        # Node c holds its case's rows of one wide table and sees only its
        # columns 3c..3c+2; every other row repeats the case's first row there
        # (no new bins) or holds a fresh value (bins the node leaves empty).
        cases = list(NEAR_TIE_NODES.values())
        sizes = [len(y) for _, y, _ in cases]
        n = sum(sizes) + (10 if sparse else 0)
        table = np.empty((n, 3 * len(cases)))
        nodes = np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])
        for c, ((x, _, _), idx) in enumerate(zip(cases, nodes)):
            cols = table[:, 3 * c:3 * c + 3]
            cols[:] = 1000.0 + np.arange(n)[:, None] if sparse else x[0]
            cols[idx] = x
        features = np.arange(3 * len(cases)).reshape(-1, 3)
        weights = [np.full(len(idx), c % 3 + 1, np.int32) for c, idx in enumerate(nodes)]
        band = near_tie_band(trees._BinTable(table), nodes, [y for _, y, _ in cases],
                             weights, features, sparse)
        assert band == [want for _, _, want in cases]


def test_midpoint_rounding_onto_the_upper_value_takes_the_lower():
    # The midpoint of these neighbouring doubles rounds onto the upper one,
    # so a midpoint threshold would send every row left.
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    x = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    cfg = TreeConfig(max_depth=2, min_samples_leaf=1)
    split = Internal(0, a, Leaf(0.0, 2), Leaf(10.0, 2))
    assert best_split(x[:, 0], y, 1)[0] == a
    assert nodes(fit_cart(x, y, cfg)) == split
    gbm = fit_gbm(x, y, GbmConfig(n_stages=1, learning_rate=1.0, tree=cfg))
    assert tuple(map(nodes, gbm.stages)) == (Internal(0, a, Leaf(-5.0, 2), Leaf(5.0, 2)),)
    forest = fit_forest(x, y, ForestConfig(n_trees=1, bootstrap=False, features_per_split=1,
                                           tree=cfg))
    assert tuple(map(nodes, forest.trees)) == (split,)


def friedman_like(seed=0, n=120, p=4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, p))
    y = 10 * np.sin(np.pi * x[:, 0] * x[:, 1]) + 5 * x[:, 2] + rng.normal(scale=0.2, size=n)
    return x, y


# twice the tracemalloc peak measured for test_fit_memory_stays_bounded's fit
CAP_BYTES = 2 * 1_600_000


class TestForest:
    def test_single_unbagged_tree_is_plain_cart(self):
        x, y = friedman_like(seed=1)
        tcfg = TreeConfig(max_depth=6, min_samples_leaf=2)
        forest = fit_forest(x, y, ForestConfig(n_trees=1, bootstrap=False,
                                               features_per_split=4, tree=tcfg))
        assert nodes(forest.trees[0]) == grow_by_feature(x, y, tcfg)
        np.testing.assert_array_equal(predict_forest_batch(forest, x),
                                      predict_tree_batch(forest.trees[0], x))

    def test_deterministic_per_seed(self):
        x, y = friedman_like(seed=2, n=60)
        a = fit_forest(x, y, ForestConfig(n_trees=10, seed=7))
        b = fit_forest(x, y, ForestConfig(n_trees=10, seed=7))
        assert list(map(nodes, a.trees)) == list(map(nodes, b.trees))
        c = fit_forest(x, y, ForestConfig(n_trees=10, seed=8))
        assert list(map(nodes, a.trees)) != list(map(nodes, c.trees))

    def test_prediction_is_exact_member_mean(self):
        x, y = friedman_like(seed=3, n=50)
        forest = fit_forest(x, y, ForestConfig(n_trees=7, seed=1))
        row = x[13]
        members = [predict_tree(t, row) for t in forest.trees]
        assert predict_forest(forest, row) == math.fsum(members) / 7
        assert min(members) <= predict_forest(forest, row) <= max(members)
        np.testing.assert_array_equal(
            predict_forest_batch(forest, x[:5]),
            np.array([predict_forest(forest, r) for r in x[:5]]),
        )

    def test_feature_subset_cap(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(30, 2))
        y = x[:, 0] + x[:, 1]
        with pytest.raises(InvalidData):
            fit_forest(x, y, ForestConfig(features_per_split=3))

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientRows):
            fit_forest(np.ones((1, 2)), np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x, y = friedman_like(seed=5, n=20)
        x_bad = x.copy()
        x_bad[3, 1] = bad
        with pytest.raises(InvalidData, match="non-finite"):
            fit_forest(x_bad, y)
        y_bad = y.copy()
        y_bad[7] = bad
        with pytest.raises(InvalidData, match="non-finite"):
            fit_forest(x, y_bad)

    def test_unbagged_one_tree_forest_is_cart_oracle(self):
        # The level-wise grower against the per-feature recursive one, node
        # for node and bit for bit. Monotone copies of one column induce the
        # same partition (tied gains that only float noise ranks); integer
        # data gives exact ties and exact zero-gain nodes; continuous data
        # gives neither.
        rng = np.random.default_rng(2024)
        for trial in range(330):
            n = int(rng.integers(4, 70))
            p = int(rng.integers(1, 5))
            kind = trial % 3
            if kind == 0:
                base = rng.normal(size=n)
                x = np.column_stack([base] + [np.exp(j * base) + j for j in range(1, p)])
                y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 6)
            elif kind == 1:
                x = rng.integers(0, 6, size=(n, p)).astype(float)
                y = rng.integers(0, 10, size=n).astype(float)
            else:
                x = rng.normal(size=(n, p))
                y = x[:, 0] * 3.0 + rng.normal(size=n)
            cfg = TreeConfig(max_depth=int(rng.integers(1, 9)),
                             min_samples_leaf=int(rng.integers(1, 4)))
            forest = fit_forest(x, y, ForestConfig(n_trees=1, bootstrap=False,
                                                   features_per_split=p, tree=cfg))
            assert nodes(forest.trees[0]) == grow_by_feature(x, y, cfg), f"trial {trial}"

    def test_bootstrap_trees_are_cart_on_their_samples(self):
        def same_tree(got, want):
            if isinstance(want, Leaf):
                assert isinstance(got, Leaf) and got.n_samples == want.n_samples
                assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-300)
                return
            assert isinstance(got, Internal)
            assert (got.feature_index, got.threshold) == (want.feature_index, want.threshold)
            same_tree(got.left, want.left)
            same_tree(got.right, want.right)

        rng = np.random.default_rng(7)
        for trial in range(12):
            n, p, n_trees = int(rng.integers(20, 90)), 3, 6
            base = rng.normal(size=n)
            x = np.column_stack([base, np.exp(base), rng.integers(0, 4, size=n)])
            y = np.sin(3 * base) + rng.normal(scale=0.1, size=n)
            cfg = TreeConfig(max_depth=8, min_samples_leaf=2)
            forest = fit_forest(x, y, ForestConfig(n_trees=n_trees, features_per_split=p,
                                                   tree=cfg, seed=trial))
            for tree, tree_rng in zip(forest.trees, _tree_rngs(trial, n_trees)):
                idx = tree_rng.integers(0, n, size=n)
                same_tree(nodes(tree), grow_by_feature(x[idx], y[idx], cfg))

    def test_feature_subsets_equal_the_per_node_oracle(self, monkeypatch):
        # Each node's own features_per_split < p subset, node for node: the
        # generator replay of forest_by_feature against the level-wise grower.
        # Monotone copies of one column tie up to float noise; integer data
        # ties exactly.
        def check(x, y, cfg, trial):
            assert tuple(map(nodes, fit_forest(x, y, cfg).trees)) == forest_by_feature(x, y, cfg), \
                f"trial {trial}"

        rng = np.random.default_rng(77)
        for trial in range(90):
            n, p = int(rng.integers(10, 80)), int(rng.integers(2, 7))
            kind = trial % 3
            if kind == 0:
                base = rng.normal(size=n)
                x = np.column_stack([base] + [np.exp(j * base) + j for j in range(1, p)])
                y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 6)
            elif kind == 1:
                x = rng.integers(0, 5, size=(n, p)).astype(float)
                y = rng.integers(0, 8, size=n).astype(float)
            else:
                x = rng.normal(size=(n, p))
                y = np.sin(3 * x[:, 0]) + x[:, -1] + rng.normal(scale=0.1, size=n)
            tcfg = TreeConfig(max_depth=int(rng.integers(1, 9)),
                              min_samples_leaf=int(rng.integers(1, 4)))
            check(x, y, ForestConfig(n_trees=int(rng.integers(1, 6)),
                                     features_per_split=int(rng.integers(1, p)),
                                     bootstrap=trial % 4 != 0, tree=tcfg, seed=trial), trial)
        # a budget below one tree's keys grows every tree in a block of its own
        monkeypatch.setattr(trees, "_BLOCK_KEYS", 64)
        x, y = friedman_like(seed=4, n=90, p=5)
        tcfg = TreeConfig(max_depth=6, min_samples_leaf=2)
        check(x, y, ForestConfig(n_trees=7, features_per_split=2, tree=tcfg, seed=5), "blocks")

    def test_fit_memory_stays_bounded(self):
        # About 1,200 distinct values in each numeric column, as at full panel
        # size. A scoring table of (nodes x bins) per level would pass the cap.
        rng = np.random.default_rng(11)
        n = 1200
        items = rng.integers(0, 10, size=n)
        x = np.column_stack([rng.normal(size=(n, 3)), np.eye(10)[items]])
        y = 1e4 * (x[:, 0] * (items % 3) + np.sin(x[:, 1])) + rng.normal(size=n)
        # NumPy imports numpy.ma lazily on first use (about 0.6 MB); import it
        # first so the reading does not depend on which tests ran before
        import numpy.ma  # noqa: F401
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_forest(x, y, ForestConfig(n_trees=25, seed=3))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < CAP_BYTES, peak

    @pytest.mark.parametrize("kind", ["forest", "gbm"])
    def test_predict_memory_does_not_grow_with_members(self, kind):
        # each member is routed into one reused buffer and folded into the sum:
        # no (members x rows) matrix, so 200 members peak where 25 do
        rng = np.random.default_rng(12)
        grid = rng.normal(size=50)
        n = 20_000
        members = tuple(flat(random_tree(rng, 3, grid, depth=8)) for _ in range(200))
        x = rng.normal(size=(n, 3))
        import numpy.ma  # noqa: F401  (imported lazily by NumPy; see above)
        peaks = []
        for m in (25, 200):
            if kind == "forest":
                model = Forest(trees=members[:m], config=ForestConfig(n_trees=m))
            else:
                model = GbmModel(init_value=1.0, stages=members[:m], learning_rate=0.1)
            predict = predict_forest_batch if kind == "forest" else predict_gbm_batch
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                predict(model, x)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        # about 5x the input's bytes at either count; a 200 x 20,000 matrix is 67x
        assert peaks[1] < 1.25 * peaks[0], peaks
        assert max(peaks) < 8 * x.nbytes, [peak / x.nbytes for peak in peaks]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(features_per_split=0)
        assert ForestConfig().tree.max_depth == 32


class TestGbm:
    def test_two_stage_hand_model(self):
        m = GbmModel(init_value=10.0, stages=(flat(Leaf(1.0, 1)), flat(Leaf(2.0, 1))),
                     learning_rate=0.5)
        assert predict_gbm(m, [0.0]) == 11.5
        np.testing.assert_array_equal(predict_gbm_batch(m, np.zeros((3, 1))),
                                      np.full(3, 11.5))

    def test_single_full_strength_stage_fits_residual(self):
        rng = np.random.default_rng(9)
        x = rng.permutation(24).astype(float).reshape(-1, 1)
        y = rng.normal(size=24)
        m = fit_gbm(x, y, GbmConfig(n_stages=1, learning_rate=1.0,
                                    tree=TreeConfig(max_depth=32, min_samples_leaf=1)))
        np.testing.assert_allclose(predict_gbm_batch(m, x), y, rtol=1e-12, atol=1e-12)

    def test_training_loss_never_increases_stage_by_stage(self):
        x, y = friedman_like(seed=4, n=150)
        m = fit_gbm(x, y, GbmConfig(n_stages=40, learning_rate=0.2))
        current = np.full(len(y), m.init_value)
        losses = [float(np.mean((current - y) ** 2))]
        for stage in m.stages:
            current = current + m.learning_rate * predict_tree_batch(stage, x)
            losses.append(float(np.mean((current - y) ** 2)))
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev * (1 + 1e-12) + 1e-15

    def test_init_value_is_target_mean(self):
        x, y = friedman_like(seed=6, n=40)
        m = fit_gbm(x, y, GbmConfig(n_stages=2))
        assert m.init_value == float(y.mean())
        assert len(m.stages) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GbmConfig(n_stages=0)
        with pytest.raises(ValueError):
            GbmConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbmConfig(learning_rate=1.5)
        assert GbmConfig().tree.max_depth == 3
