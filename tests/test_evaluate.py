"""Metrics, fold plans, cross-validation, ensembling, kappa banding."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from yieldcast.core import FeatureMatrix
from yieldcast.errors import (
    FoldFailed,
    InsufficientRows,
    InvalidConfig,
    InvalidData,
    ShapeError,
    UndefinedKappa,
    UndefinedMape,
    UndefinedR2,
)
from yieldcast.evaluate import (
    METRIC_NAMES,
    CvResult,
    FoldPlan,
    KappaResult,
    MetricsReport,
    ModelSpec,
    cohen_kappa,
    cross_validate,
    ensemble_cv,
    kappa_band,
    make_folds,
    mae,
    mape,
    max_error,
    metrics_bundle,
    mse,
    r2,
    rmse,
    summarize_folds,
)


def matrix_from(x, y, names=None):
    x = np.asarray(x, dtype=float)
    names = names or tuple(f"f{i}" for i in range(x.shape[1]))
    return FeatureMatrix(
        x=x,
        y=np.asarray(y, dtype=float),
        feature_names=tuple(names),
        row_keys=tuple(("AAA", 1950 + i, "Maize") for i in range(x.shape[0])),
        onehot=(False,) * x.shape[1],
    )


MEAN_SPEC = ModelSpec(
    name="mean",
    fit=lambda x, y: float(np.mean(y)),
    predict=lambda model, x: np.full(len(x), model),
)


class TestMetricOracles:
    Y = np.array([1.0, 3.0])
    YHAT = np.array([0.0, 0.0])

    def test_hand_computed_pair(self):
        assert mae(self.Y, self.YHAT) == 2.0
        assert mse(self.Y, self.YHAT) == 5.0
        assert rmse(self.Y, self.YHAT) == math.sqrt(5.0)
        assert max_error(self.Y, self.YHAT) == 3.0
        assert mape(self.Y, self.YHAT) == 100.0
        assert r2(self.Y, self.YHAT) == -4.0

    def test_perfect_predictions(self):
        y = np.array([2.0, 4.0, 8.0])
        assert r2(y, y) == 1.0
        assert mae(y, y) == 0.0 and max_error(y, y) == 0.0 and mape(y, y) == 0.0

    def test_mape_excludes_near_zero_targets(self):
        report = metrics_bundle(np.array([0.0, 2.0]), np.array([5.0, 1.0]))
        assert report.mape_percent == 50.0
        assert report.mape_excluded_rows == 1

    def test_mape_undefined_when_all_targets_near_zero(self):
        with pytest.raises(UndefinedMape):
            mape(np.zeros(3), np.ones(3))
        report = metrics_bundle(np.zeros(3), np.ones(3))
        assert report.mape_percent is None and report.mape_excluded_rows == 3

    def test_r2_undefined_for_constant_target(self):
        with pytest.raises(UndefinedR2):
            r2(np.full(4, 7.0), np.arange(4.0))
        report = metrics_bundle(np.full(4, 7.0), np.arange(4.0))
        assert report.r2 is None

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            mae(np.ones((2, 2)), np.ones(4))
        with pytest.raises(ShapeError):
            mae(np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            mae(np.array([]), np.array([]))
        with pytest.raises(InvalidData):
            mae(np.array([1.0, np.nan]), np.ones(2))

    def test_report_invariants_enforced(self):
        with pytest.raises(InvalidData):
            MetricsReport(r2=0.5, mae=3.0, mse=4.0, rmse=2.0, max_err=1.0,
                          mape_percent=None)
        with pytest.raises(InvalidData):
            MetricsReport(r2=0.5, mae=1.0, mse=4.0, rmse=3.0, max_err=2.0,
                          mape_percent=None)
        with pytest.raises(InvalidData):
            MetricsReport(r2=1.5, mae=1.0, mse=4.0, rmse=2.0, max_err=2.0,
                          mape_percent=None)
        with pytest.raises(InvalidData):
            MetricsReport(r2=0.5, mae=1.0, mse=4.0, rmse=2.0, max_err=2.0,
                          mape_percent=None, mape_excluded_rows=-1)

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=2, max_size=50))
    # np.mean of these three equal errors rounds one ulp above the error itself
    @example([(951886.9410796773, -446214.7112568107)] * 3)
    def test_bundle_matches_direct_recomputation(self, pairs):
        y = np.array([a for a, _ in pairs])
        yhat = np.array([b for _, b in pairs])
        report = metrics_bundle(y, yhat)
        err = y - yhat
        assert report.mse == pytest.approx(float(np.mean(err**2)), rel=1e-12)
        assert report.mae == pytest.approx(float(np.mean(np.abs(err))), rel=1e-12)
        assert report.rmse == math.sqrt(report.mse)
        assert report.mae <= report.max_err * (1 + 1e-12)
        if report.r2 is not None:
            assert report.r2 <= 1.0


class TestFoldPlans:
    def test_near_equal_sizes_23_rows_10_folds(self):
        plan = make_folds(23, k=10, seed=0)
        sizes = np.bincount(plan.assignments, minlength=10)
        assert sizes.tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_deterministic_and_seed_sensitive(self):
        a = make_folds(50, k=5, seed=3)
        b = make_folds(50, k=5, seed=3)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = make_folds(50, k=5, seed=4)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_config_bounds(self):
        with pytest.raises(InvalidConfig):
            make_folds(10, k=1)
        with pytest.raises(InvalidConfig):
            make_folds(10, k=11)

    @given(st.integers(2, 12), st.integers(0, 5), st.data())
    def test_folds_partition_every_row(self, k, seed, data):
        n = data.draw(st.integers(k, 120))
        plan = make_folds(n, k=k, seed=seed)
        seen = np.concatenate([plan.test_indices(f) for f in range(k)])
        assert sorted(seen.tolist()) == list(range(n))
        for f in range(k):
            test, train = plan.test_indices(f), plan.train_indices(f)
            assert len(np.intersect1d(test, train)) == 0
            assert len(test) + len(train) == n

    def test_plan_validation(self):
        with pytest.raises(InvalidData):
            FoldPlan(k=3, assignments=np.array([0, 1, 1, 0]), seed=0)
        with pytest.raises(InvalidData):
            FoldPlan(k=2, assignments=np.array([0, 0, 0, 1]), seed=0)
        with pytest.raises(ShapeError):
            FoldPlan(k=3, assignments=np.array([0, 1]), seed=0)


class TestSummarizeFolds:
    def test_means_stds_and_partial_definition(self):
        full = metrics_bundle(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
        degenerate = metrics_bundle(np.full(3, 7.0), np.full(3, 6.0))
        summary = summarize_folds([full, degenerate])
        assert set(summary) == set(METRIC_NAMES)
        assert summary["mae"].mean == pytest.approx((2.0 + 1.0) / 2)
        assert summary["mae"].std == pytest.approx(float(np.std([2.0, 1.0], ddof=1)))
        assert summary["mae"].n_defined == 2
        # r2 defined on one fold only: mean passes through, std undefined
        assert summary["r2"].mean == -4.0
        assert summary["r2"].std is None and summary["r2"].n_defined == 1

    def test_all_undefined_metric(self):
        degenerate = metrics_bundle(np.full(3, 7.0), np.full(3, 6.0))
        summary = summarize_folds([degenerate])
        assert summary["r2"].mean is None and summary["r2"].n_defined == 0


class TestCrossValidate:
    def test_mean_model_folds_match_hand_computation(self):
        rng = np.random.default_rng(0)
        m = matrix_from(rng.normal(size=(40, 2)), rng.normal(size=40))
        plan = make_folds(40, k=4, seed=1)
        result = cross_validate(MEAN_SPEC, m, plan)
        assert result.model_label == "mean"
        assert len(result.per_fold) == 4
        for fold in range(4):
            train, test = plan.train_indices(fold), plan.test_indices(fold)
            expected = metrics_bundle(
                m.y[test], np.full(len(test), float(np.mean(m.y[train]))),
            )
            assert result.per_fold[fold] == expected
        assert result.summary == summarize_folds(result.per_fold)

    def test_identical_seeds_identical_results(self):
        rng = np.random.default_rng(5)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        a = cross_validate(MEAN_SPEC, m, make_folds(30, k=3, seed=9))
        b = cross_validate(MEAN_SPEC, m, make_folds(30, k=3, seed=9))
        assert a == b

    def test_plan_must_cover_matrix(self):
        rng = np.random.default_rng(1)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        with pytest.raises(ShapeError):
            cross_validate(MEAN_SPEC, m, make_folds(29, k=3))

    def test_fold_failure_names_fold_and_model(self):
        def broken_fit(x, y):
            raise InvalidData("synthetic failure")

        spec = ModelSpec(name="broken", fit=broken_fit, predict=lambda m, x: x)
        rng = np.random.default_rng(2)
        m = matrix_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(FoldFailed) as excinfo:
            cross_validate(spec, m, make_folds(20, k=2))
        assert excinfo.value.failures == [
            (0, "broken: synthetic failure"),
            (1, "broken: synthetic failure"),
        ]
        assert "fold 0" in str(excinfo.value) and "broken" in str(excinfo.value)


def shift_spec(name, delta):
    return ModelSpec(
        name=name,
        fit=lambda x, y, d=delta: float(np.mean(y)) + d,
        predict=lambda model, x: np.full(len(x), model),
    )


class TestEnsembleCv:
    def test_logged_members_average_exactly_to_ensemble(self):
        rng = np.random.default_rng(6)
        m = matrix_from(rng.normal(size=(24, 2)), rng.normal(size=24))
        plan = make_folds(24, k=3, seed=0)
        log: list = []
        _, result = ensemble_cv([shift_spec("lo", -1.0), shift_spec("hi", 2.0)],
                                m, plan, member_log=log)
        assert result.model_label == "ensemble(lo+hi)"
        assert len(log) == 3
        for fold, entry in enumerate(log):
            assert entry["fold"] == fold
            assert set(entry["members"]) == {"0:lo", "1:hi"}
            stacked = np.stack(list(entry["members"].values()))
            recomputed = np.array(
                [math.fsum(stacked[:, i]) for i in range(stacked.shape[1])]
            ) / 2
            np.testing.assert_array_equal(entry["ensemble"], recomputed)
            expected = metrics_bundle(m.y[entry["test_indices"]],
                                      entry["ensemble"])
            assert result.per_fold[fold] == expected

    def test_duplicate_members_collapse_to_single_model(self):
        rng = np.random.default_rng(7)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        plan = make_folds(30, k=5, seed=2)
        _, double = ensemble_cv([MEAN_SPEC, MEAN_SPEC], m, plan)
        single = cross_validate(MEAN_SPEC, m, plan)
        assert double.per_fold == single.per_fold

    def test_each_member_matches_its_own_cross_validation(self):
        rng = np.random.default_rng(11)
        m = matrix_from(rng.normal(size=(30, 2)), rng.normal(size=30))
        plan = make_folds(30, k=4, seed=5)
        specs = [shift_spec("lo", -1.0), MEAN_SPEC, shift_spec("hi", 2.0)]
        members, _ = ensemble_cv(specs, m, plan)
        assert [r.model_label for r in members] == ["lo", "mean", "hi"]
        for spec, result in zip(specs, members):
            assert result == cross_validate(spec, m, plan)

    def test_needs_two_members(self):
        # one spec is cross-validated alone, with no ensemble; none is an error
        rng = np.random.default_rng(8)
        m = matrix_from(rng.normal(size=(10, 1)), rng.normal(size=10))
        plan = make_folds(10, k=2)
        log: list = []
        members, ensemble = ensemble_cv([MEAN_SPEC], m, plan, member_log=log)
        assert ensemble is None and log == []
        assert members == [cross_validate(MEAN_SPEC, m, plan)]
        with pytest.raises(InvalidConfig):
            ensemble_cv([], m, plan)

    def test_failures_collected_across_all_folds(self):
        def broken_fit(x, y):
            raise InvalidData("synthetic failure")

        broken = ModelSpec(name="broken", fit=broken_fit, predict=lambda m, x: x)
        rng = np.random.default_rng(9)
        m = matrix_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(FoldFailed) as excinfo:
            ensemble_cv([MEAN_SPEC, broken], m, make_folds(20, k=4))
        assert [fold for fold, _ in excinfo.value.failures] == [0, 1, 2, 3]
        assert all("broken" in msg for _, msg in excinfo.value.failures)

    def test_plan_must_cover_matrix(self):
        rng = np.random.default_rng(10)
        m = matrix_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        with pytest.raises(ShapeError):
            ensemble_cv([MEAN_SPEC, MEAN_SPEC], m, make_folds(19, k=2))


class TestCohenKappa:
    def test_partial_agreement_fixture(self):
        result = cohen_kappa(np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0]),
                             np.array([0.0, 0.0, 10.0, 10.0, 10.0, 0.0]),
                             n_bins=2)
        assert result.kappa == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert result.band == "fair agreement"
        assert result.bin_edges == (5.0,)

    def test_chance_level_fixture(self):
        result = cohen_kappa(np.array([0.0, 0.0, 10.0, 10.0]),
                             np.array([0.0, 10.0, 0.0, 10.0]), n_bins=2)
        assert result.kappa == 0.0
        assert result.band == "agreement equivalent to chance"

    def test_self_agreement_is_perfect(self):
        y = np.arange(20.0)
        result = cohen_kappa(y, y, n_bins=4)
        assert result.kappa == 1.0
        assert result.band == "perfect agreement"

    def test_independent_predictions_near_zero(self):
        rng = np.random.default_rng(0)
        result = cohen_kappa(rng.normal(size=2000), rng.normal(size=2000), n_bins=5)
        assert abs(result.kappa) < 0.1

    def test_band_boundaries(self):
        table = [
            (1.0, "perfect agreement"),
            (0.99, "near-perfect agreement"),
            (0.81, "near-perfect agreement"),
            (0.8099, "substantial agreement"),
            (0.61, "substantial agreement"),
            (0.6099, "moderate agreement"),
            (0.41, "moderate agreement"),
            (0.4099, "fair agreement"),
            (0.21, "fair agreement"),
            (0.2099, "slight agreement"),
            (0.10, "slight agreement"),
            (0.0999, "agreement equivalent to chance"),
            (0.0, "agreement equivalent to chance"),
            (-0.5, "agreement equivalent to chance"),
        ]
        for kappa, label in table:
            assert kappa_band(kappa) == label, kappa

    def test_undefined_when_single_bin(self):
        with pytest.raises(UndefinedKappa):
            cohen_kappa(np.full(10, 3.0), np.full(10, 3.0), n_bins=2)

    def test_config_and_size_bounds(self):
        with pytest.raises(InvalidConfig):
            cohen_kappa(np.arange(10.0), np.arange(10.0), n_bins=1)
        with pytest.raises(InsufficientRows):
            cohen_kappa(np.arange(3.0), np.arange(3.0), n_bins=5)

    def test_result_range_enforced(self):
        with pytest.raises(InvalidData):
            KappaResult(kappa=1.5, band="x", bin_edges=())
        assert cohen_kappa(np.arange(20.0), np.arange(20.0), n_bins=4).band == (
            "perfect agreement"
        )
