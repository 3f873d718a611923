"""Brute-force KNN regression: scan correctness, scaling, tie-breaking."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldcast import knn
from yieldcast.core import apply_scaler
from yieldcast.errors import InsufficientRows, InvalidConfig, InvalidData, ShapeError
from yieldcast.knn import KnnModel, fit_knn, neighbors, predict_knn, predict_knn_batch


def mixed_scale_data(seed=0, n=40, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * np.array([1.0, 50.0, 0.01])
    y = rng.normal(size=n)
    return x, y


class TestPredict:
    def test_k1_reproduces_training_targets(self):
        x, y = mixed_scale_data()
        m = fit_knn(x, y, k=1)
        np.testing.assert_array_equal(predict_knn_batch(m, x), y)

    def test_kn_is_global_mean_everywhere(self):
        x, y = mixed_scale_data(seed=1, n=30)
        m = fit_knn(x, y, k=30)
        expected = math.fsum(y) / 30
        for query in (x[0], x[17], np.zeros(3), np.array([9.0, -4.0, 2.0])):
            assert predict_knn(m, query) == expected

    def test_matches_linear_scan_oracle(self):
        x, y = mixed_scale_data(seed=2, n=50)
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(25, 3)) * np.array([1.0, 50.0, 0.01])
        for k in (1, 4, 50):
            m = fit_knn(x, y, k=k)
            for q in queries:
                scaled = apply_scaler(m.scaler, q.reshape(1, -1))[0]
                diff = m.x_train - scaled
                dist = np.sqrt(np.sum(diff * diff, axis=1))
                idx = np.argsort(dist, kind="stable")[:k]
                assert predict_knn(m, q) == math.fsum(y[idx]) / k

    @pytest.mark.parametrize("queries_per_block", [1, 2, 3, 7, 100])
    def test_blocked_batch_equals_the_row_oracle(self, monkeypatch, queries_per_block):
        # 13 features, as in the panel, so numpy's pairwise row sum is not a
        # plain left-to-right one; rows 10-19 repeat rows 0-9, so every query
        # has exact distance ties; 23 queries leave a ragged last block at
        # block sizes 2, 3 and 7
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.integers(-3, 4, size=13)
        x, y = rng.normal(size=(30, 13)) * scale, rng.normal(size=30)
        x[10:20] = x[:10]
        queries = np.concatenate([x[:8], rng.normal(size=(15, 13)) * scale])
        for k in (1, 3, 30):
            m = fit_knn(x, y, k=k)
            monkeypatch.setattr(knn, "_BLOCK_CELLS", queries_per_block * len(m.x_train))
            expected = []
            for q in queries:
                scaled = apply_scaler(m.scaler, q.reshape(1, -1))[0]
                diff = m.x_train - scaled
                dist = np.sqrt(np.sum(diff * diff, axis=1))
                idx = np.argsort(dist, kind="stable")[:k]
                expected.append(math.fsum(y[idx]) / k)
                got_idx, got_dist = neighbors(m, q)
                assert got_idx.tolist() == idx.tolist()
                assert got_dist.tolist() == dist[idx].tolist()
            assert predict_knn_batch(m, queries).tolist() == expected

    def test_distance_ties_keep_lowest_row_index(self):
        m = fit_knn(np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 2.0, 3.0]), k=1)
        assert predict_knn(m, np.array([0.0])) == 1.0
        m2 = fit_knn(np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 2.0, 3.0]), k=2)
        assert predict_knn(m2, np.array([0.0])) == 1.5

    def test_query_is_scaled_like_training_rows(self):
        # raw scales differ by orders of magnitude; an unscaled query would
        # land nearest the wrong row
        m = fit_knn(np.array([[0.0], [10.0], [1000.0]]),
                    np.array([0.0, 1.0, 2.0]), k=1)
        assert predict_knn(m, np.array([10.0])) == 1.0

    def test_batch_matches_scalar(self):
        x, y = mixed_scale_data(seed=4)
        m = fit_knn(x, y, k=3)
        queries = x[:7] + 0.1
        np.testing.assert_array_equal(
            predict_knn_batch(m, queries),
            np.array([predict_knn(m, q) for q in queries]),
        )


def scan_oracle(m, queries):
    """The full scan, one query at a time: (indices, distances) of each
    query's k nearest by stable argsort of every reference distance."""
    out = []
    for q in queries:
        scaled = apply_scaler(m.scaler, q.reshape(1, -1))[0]
        diff = m.x_train - scaled
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        idx = np.argsort(dist, kind="stable")[: m.k]
        out.append((idx, dist[idx]))
    return out


@st.composite
def scan_cases(draw):
    """(model, queries): 1-60 features, duplicated training rows, k in
    {1, 2, n}, and queries that repeat training rows. Data are all one-hot
    (distances 0 or sqrt(2)), or columns scaled 1e-3..1e3, some of them
    passed through unscaled and far from 0, so the Gram product cancels.
    A query of 1e308 cells overflows stage 1's bounds."""
    p, n = draw(st.integers(1, 60)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    onehot = p > 1 and draw(st.booleans())
    if onehot:
        def rows(count):
            return np.eye(p)[rng.integers(0, p, size=count)]
        mask = [True] * p
    else:
        scale = 10.0 ** rng.uniform(-3, 3, size=p)
        mask = rng.random(p) < draw(st.sampled_from([0.0, 0.5]))
        offset = np.where(mask, 10.0 ** rng.uniform(0, 8, size=p), 0.0)

        def rows(count):
            return offset + rng.normal(size=(count, p)) * scale
    x = rows(n)
    dup = draw(st.integers(0, n - 2))
    x[n - dup :] = x[:dup]
    k = draw(st.sampled_from(sorted({1, 2, n} & set(range(1, n + 1)))))
    m = fit_knn(x, rng.normal(size=n), k=k, passthrough=mask)
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    queries = np.concatenate([x[picks], rows(draw(st.integers(0, 4)))])
    if draw(st.booleans()):
        queries = np.concatenate([queries, np.full((1, p), 1e308)])
    return m, queries


class TestScanOracle:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300)
    @given(scan_cases(), st.sampled_from([1, 50, knn._BLOCK_CELLS]))
    def test_two_stage_scan_equals_the_full_scan(self, case, cells):
        # small blocks split query blocks and stage 2's pair chunks anywhere
        m, queries = case
        far = queries[:, 0] == 1e308  # stage 1's bounds overflow: no ranking
        expected = scan_oracle(m, queries[~far])
        with mock.patch.object(knn, "_BLOCK_CELLS", cells):
            for q, (idx, dist) in zip(queries[~far], expected):
                got_idx, got_dist = neighbors(m, q)
                assert got_idx.tolist() == idx.tolist()
                assert got_dist.tobytes() == dist.tobytes()
            for q in queries[far]:
                with pytest.raises(InvalidData, match="too far out") as err:
                    neighbors(m, q)
                assert err.value.row == 0
            if far.any():
                with pytest.raises(InvalidData) as err:
                    predict_knn_batch(m, queries)
                assert err.value.row == len(queries) - 1
            got = predict_knn_batch(m, queries[~far])
        means = [math.fsum(m.y_train[idx].tolist()) / m.k for idx, _ in expected]
        assert got.tobytes() == np.array(means).tobytes()


class TestUnrankableQueries:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("queries_per_block", [1, 3, 100])
    @pytest.mark.parametrize("cell", [1e308, -1e308, 1e200])
    def test_batch_names_the_row_of_x(self, monkeypatch, queries_per_block, cell):
        # every distance of such a query is inf, so a ranking would give the
        # mean target of training rows 0..k-1 whatever the query
        x, y = mixed_scale_data(seed=6, n=20)
        m = fit_knn(x, y, k=3)
        monkeypatch.setattr(knn, "_BLOCK_CELLS", queries_per_block * len(m.x_train))
        queries = np.concatenate([x[:10], x[:10]])
        queries[7, 1] = cell
        with pytest.raises(InvalidData, match="too far out to rank") as err:
            predict_knn_batch(m, queries)
        assert err.value.row == 7
        with pytest.raises(InvalidData):
            predict_knn(m, queries[7])

    def test_nan_query_is_refused(self):
        x, y = mixed_scale_data(seed=6, n=20)
        m = fit_knn(x, y, k=3)
        with pytest.raises(InvalidData) as err:
            predict_knn_batch(m, np.array([x[0], [np.nan, 0.0, 0.0]]))
        assert err.value.row == 1


class TestNeighbors:
    def test_nearest_first_with_distances(self):
        # mean 1 and std 2 are exact, so rows scale to -1, 0, 1 with no
        # rounding and the equidistant query produces a true tie
        x = np.array([[-1.0], [1.0], [3.0]])
        m = fit_knn(x, np.array([10.0, 20.0, 30.0]), k=2)
        idx, dist = neighbors(m, np.array([0.0]))
        assert list(idx) == [0, 1]
        assert dist[0] == 0.5 and dist[1] == 0.5
        idx2, dist2 = neighbors(m, np.array([3.0]))
        assert list(idx2) == [2, 1] and dist2[0] == 0.0 and dist2[1] == 1.0

    def test_passthrough_columns_skip_scaling(self):
        x = np.array([[1000.0, 1.0, 0.0], [1001.0, 0.0, 1.0]])
        m = fit_knn(x, np.array([0.0, 1.0]), k=2, passthrough=[False, True, True])
        _, dist = neighbors(m, x[0])
        # scaled numeric column contributes 2 to the squared distance, each
        # one-hot exactly 1: sqrt(4) between distinct categories
        assert dist[0] == 0.0
        assert dist[1] == pytest.approx(2.0, abs=1e-12)

    def test_query_width_checked(self):
        x, y = mixed_scale_data()
        m = fit_knn(x, y, k=2)
        with pytest.raises(ShapeError):
            neighbors(m, np.zeros(4))
        with pytest.raises(ShapeError):
            predict_knn_batch(m, np.zeros((5, 2)))


class TestValidation:
    def test_k_bounds(self):
        x, y = mixed_scale_data(n=10)
        with pytest.raises(InvalidConfig):
            fit_knn(x, y, k=0)
        with pytest.raises(InsufficientRows):
            fit_knn(x, y, k=11)

    def test_training_data_checked(self):
        with pytest.raises(ShapeError):
            fit_knn(np.ones(5), np.ones(5), k=1)
        with pytest.raises(ShapeError):
            fit_knn(np.ones((5, 2)), np.ones(4), k=1)
        bad = np.ones((5, 2))
        bad[2, 1] = np.nan
        with pytest.raises(InvalidData):
            fit_knn(bad, np.ones(5), k=1)

    def test_model_shape_contract(self):
        x, y = mixed_scale_data(n=6)
        m = fit_knn(x, y, k=2)
        with pytest.raises(ShapeError):
            KnnModel(x_train=m.x_train, y_train=m.y_train[:-1], k=2, scaler=m.scaler)
        with pytest.raises(ShapeError):
            KnnModel(x_train=m.x_train[0], y_train=m.y_train, k=2, scaler=m.scaler)

    def test_stored_copies_are_isolated(self):
        x, y = mixed_scale_data(n=8)
        m = fit_knn(x, y, k=1)
        y[0] = 999.0
        assert m.y_train[0] != 999.0
