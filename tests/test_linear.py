"""OLS solving, the MSE gradient, SGD training dynamics, prediction."""
from __future__ import annotations

import numpy as np
import pytest

from yieldcast.core import apply_scaler, fit_scaler
from yieldcast.errors import (
    ConstantFeature,
    Diverged,
    InsufficientRows,
    InvalidData,
    ShapeError,
)
from yieldcast.linear import (
    LinearModel,
    SgdConfig,
    effective_parameters,
    fit_ols,
    fit_sgd,
    mse_gradient,
    predict_linear,
)


def noiseless(seed=0, n=50, p=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    beta = rng.normal(scale=2.0, size=p)
    intercept = float(rng.normal())
    return x, x @ beta + intercept, beta, intercept


def _dense_sgd_reference(x, y, cfg, passthrough=None):
    """The straightforward dense per-sample loop fit_sgd must reproduce:
    returns (beta, intercept, checkpoints) in standardized space. The
    returned parameters, and every checkpoint from epoch max(1, epochs // 2)
    on, are the mean of the end-of-epoch iterates from that epoch so far."""
    z = apply_scaler(fit_scaler(x, passthrough=passthrough), x)
    n, p = z.shape
    rng = np.random.default_rng(cfg.seed)
    beta = np.zeros(p)
    intercept = 0.0
    iterates = []
    checkpoints = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            for i in order:
                row = z[i]
                err = row @ beta + intercept - y[i]
                beta -= cfg.learning_rate * (2.0 * err * row + 2.0 * cfg.l2 * beta)
                intercept -= cfg.learning_rate * 2.0 * err
            if not (np.isfinite(beta).all() and np.isfinite(intercept)):
                raise Diverged(epoch)
            coef, bias = beta, intercept
            if epoch >= max(1, cfg.epochs // 2):
                iterates.append(np.append(beta, intercept))
                mean = np.mean(iterates, axis=0)
                coef, bias = mean[:p], mean[p]
            if epoch % 100 == 0 or epoch == cfg.epochs:
                mse = float(np.mean((z @ coef + bias - y) ** 2))
                checkpoints.append((epoch, mse))
    return coef, float(bias), checkpoints


def dense_design():
    x, y, _, _ = noiseless(n=30)
    return x, y, None


def onehot_design(n=60, seed=4):
    """3 numeric columns plus a 10-level one-hot block: 4 of 13 nonzeros a row."""
    rng = np.random.default_rng(seed)
    numeric = rng.normal(size=(n, 3)) * [400.0, 4.0, 9000.0] + [1100.0, 21.0, 30000.0]
    level = rng.integers(0, 10, size=n)
    onehot = np.eye(10)[level]
    y = numeric @ [2.0, -150.0, 0.02] + 800.0 * level + rng.normal(scale=300.0, size=n)
    return np.column_stack([numeric, onehot]), y, [False] * 3 + [True] * 10


def zero_z_design():
    """Column 0 is 0..40, whose mean 20 standardizes row 20 to exactly 0."""
    rng = np.random.default_rng(11)
    x = np.column_stack([np.arange(41.0), rng.normal(size=41)])
    assert apply_scaler(fit_scaler(x), x)[20, 0] == 0.0
    return x, 3.0 * x[:, 0] - x[:, 1] + 5.0, None


class TestFitOls:
    def test_recovers_noiseless_parameters(self):
        x, y, beta, intercept = noiseless()
        m = fit_ols(x, y)
        np.testing.assert_allclose(m.coefficients, beta, atol=1e-10)
        assert m.intercept == pytest.approx(intercept, abs=1e-10)
        assert m.metadata == {"solver": "lstsq", "rank_deficient": False}
        assert m.scaler is None

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(InsufficientRows):
            fit_ols(np.eye(3), np.ones(3))

    def test_rank_deficient_falls_back_to_jitter(self):
        x, y, _, _ = noiseless(n=30, p=2)
        xdup = np.column_stack([x, x[:, 0]])
        m = fit_ols(xdup, y)
        assert m.metadata == {"solver": "ridge_jitter", "rank_deficient": True}
        np.testing.assert_allclose(predict_linear(m, xdup), y, atol=1e-3)

    def test_rejects_nonfinite(self):
        x, y, _, _ = noiseless()
        y = y.copy()
        y[0] = np.inf
        with pytest.raises(InvalidData):
            fit_ols(x, y)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            fit_ols(np.ones(5), np.ones(5))
        with pytest.raises(ShapeError):
            fit_ols(np.ones((5, 2)), np.ones(4))


class TestMseGradient:
    def test_hand_oracle_single_point(self):
        # x=[[1]], y=[2], beta=0, b=0: err=-2, grad = ((2/1)*1*-2, (2/1)*-2)
        grad_beta, grad_b = mse_gradient(np.zeros(1), 0.0, np.array([[1.0]]),
                                         np.array([2.0]))
        assert grad_beta[0] == -4.0 and grad_b == -4.0

    def test_hand_oracle_with_l2(self):
        # err = 1*1 + 0 - 2 = -1; grad_beta = 2*1*(-1) + 2*0.5*1 = -1
        grad_beta, grad_b = mse_gradient(np.array([1.0]), 0.0, np.array([[1.0]]),
                                         np.array([2.0]), l2=0.5)
        assert grad_beta[0] == -1.0 and grad_b == -2.0

    def test_zero_at_ols_solution(self):
        x, y, _, _ = noiseless()
        m = fit_ols(x, y)
        grad_beta, grad_b = mse_gradient(m.coefficients, m.intercept, x, y)
        np.testing.assert_allclose(grad_beta, 0.0, atol=1e-9)
        assert grad_b == pytest.approx(0.0, abs=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)

        def loss(beta, b, l2):
            return float(np.mean((x @ beta + b - y) ** 2) + l2 * np.sum(beta**2))

        h = 1e-6
        for _ in range(20):
            beta = rng.normal(size=3)
            b = float(rng.normal())
            l2 = float(rng.uniform(0.0, 0.5))
            grad_beta, grad_b = mse_gradient(beta, b, x, y, l2=l2)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                numeric = (loss(beta + e, b, l2) - loss(beta - e, b, l2)) / (2 * h)
                assert grad_beta[j] == pytest.approx(numeric, rel=1e-6, abs=1e-8)
            numeric_b = (loss(beta, b + h, l2) - loss(beta, b - h, l2)) / (2 * h)
            assert grad_b == pytest.approx(numeric_b, rel=1e-6, abs=1e-8)

    def test_beta_shape_checked(self):
        with pytest.raises(ShapeError):
            mse_gradient(np.zeros(2), 0.0, np.ones((4, 3)), np.ones(4))


class TestFitSgd:
    def test_approaches_ols_on_easy_problem(self):
        x, y, _, _ = noiseless(seed=3, n=60, p=2)
        sgd = fit_sgd(x, y, SgdConfig(epochs=400, seed=1))
        ols = fit_ols(x, y)
        c_sgd, b_sgd = effective_parameters(sgd)
        c_ols, b_ols = effective_parameters(ols)
        np.testing.assert_allclose(c_sgd, c_ols, atol=5e-2)
        assert b_sgd == pytest.approx(b_ols, abs=5e-2)

    def test_checkpoints_every_100_epochs_and_final(self):
        x, y, _, _ = noiseless(n=25, p=2)
        m = fit_sgd(x, y, SgdConfig(epochs=250))
        epochs = [e for e, _ in m.metadata["loss_checkpoints"]]
        assert epochs == [100, 200, 250]
        assert m.metadata["final_train_mse"] == m.metadata["loss_checkpoints"][-1][1]
        assert m.metadata["config"]["epochs"] == 250

    def test_deterministic_per_seed(self):
        x, y, _, _ = noiseless(n=30)
        a = fit_sgd(x, y, SgdConfig(epochs=50, seed=5))
        b = fit_sgd(x, y, SgdConfig(epochs=50, seed=5))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        c = fit_sgd(x, y, SgdConfig(epochs=50, seed=6))
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_shuffle_off_is_sequential_and_stable(self):
        x, y, _, _ = noiseless(n=30)
        a = fit_sgd(x, y, SgdConfig(epochs=50, shuffle=False))
        b = fit_sgd(x, y, SgdConfig(epochs=50, shuffle=False, seed=99))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_huge_learning_rate_diverges_with_epoch(self):
        x, y, _, _ = noiseless(n=40)
        cfg = SgdConfig(learning_rate=5.0, epochs=50)
        with pytest.raises(Diverged) as excinfo:
            fit_sgd(x, y, cfg)
        with pytest.raises(Diverged) as expected:
            _dense_sgd_reference(x, y, cfg)
        assert excinfo.value.epoch == expected.value.epoch >= 1

    def test_onehot_columns_need_passthrough(self):
        x = np.column_stack([np.arange(10.0), np.ones(10)])
        y = np.arange(10.0)
        with pytest.raises(ConstantFeature):
            fit_sgd(x, y, SgdConfig(epochs=5))
        m = fit_sgd(x, y, SgdConfig(epochs=5), passthrough=[False, True])
        assert m.scaler.passthrough == (False, True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SgdConfig(epochs=0)
        with pytest.raises(ValueError):
            SgdConfig(l2=-0.1)
        # the per-step decay factor 1 - 2*learning_rate*l2 must stay positive
        for learning_rate, l2 in ((0.1, 5.0), (0.5, 1.0), (1.0, 3.0)):
            with pytest.raises(ValueError):
                SgdConfig(learning_rate=learning_rate, l2=l2)
        SgdConfig(learning_rate=0.1, l2=4.9)

    @pytest.mark.parametrize(
        "design, cfg",
        [
            (dense_design, SgdConfig(epochs=120, seed=3)),
            (dense_design, SgdConfig(epochs=120, shuffle=False)),
            (onehot_design, SgdConfig(epochs=250, seed=1)),
            (onehot_design, SgdConfig(epochs=100, shuffle=False, learning_rate=1e-2)),
            (zero_z_design, SgdConfig(epochs=150, seed=2)),
            # decay 0.02 a step: the weight scale is folded back every 6 steps
            (onehot_design, SgdConfig(epochs=100, seed=5, learning_rate=0.1, l2=4.9)),
            # odd epoch counts start the average at epochs // 2; one epoch at 1
            (dense_design, SgdConfig(epochs=121, seed=3)),
            (onehot_design, SgdConfig(epochs=1, seed=1)),
            (onehot_design, SgdConfig(epochs=101, seed=5, learning_rate=0.1, l2=4.9)),
        ],
        ids=["shuffled", "sequential", "onehot", "onehot-sequential", "zero-z",
             "large-decay", "averaged-shuffled", "averaged-onehot",
             "averaged-large-decay"],
    )
    def test_matches_dense_reference(self, design, cfg):
        x, y, passthrough = design()
        beta, intercept, checkpoints = _dense_sgd_reference(x, y, cfg, passthrough)
        m = fit_sgd(x, y, cfg, passthrough=passthrough)
        np.testing.assert_allclose(m.coefficients, beta, rtol=1e-9)
        assert m.intercept == pytest.approx(intercept, rel=1e-9)
        got = m.metadata["loss_checkpoints"]
        assert [e for e, _ in got] == [e for e, _ in checkpoints]
        np.testing.assert_allclose([v for _, v in got], [v for _, v in checkpoints],
                                   rtol=1e-9)

    def test_averaged_metadata_describes_returned_model(self):
        x, y, passthrough = onehot_design()
        cfg = SgdConfig(epochs=250, seed=1)
        m = fit_sgd(x, y, cfg, passthrough=passthrough)
        assert m.metadata["config"]["average_from"] == 125
        mse = float(np.mean((predict_linear(m, x) - y) ** 2))
        assert m.metadata["final_train_mse"] == pytest.approx(mse, rel=1e-12)
        assert m.metadata["loss_checkpoints"][-1] == (250, m.metadata["final_train_mse"])


class TestPredictAndParameters:
    def test_effective_parameters_fold_scaler_in(self):
        x, y, _, _ = noiseless(n=40)
        m = fit_sgd(x, y, SgdConfig(epochs=100))
        coef, intercept = effective_parameters(m)
        np.testing.assert_allclose(predict_linear(m, x), x @ coef + intercept,
                                   rtol=1e-10, atol=1e-10)

    def test_effective_parameters_identity_without_scaler(self):
        m = LinearModel(coefficients=np.array([2.0]), intercept=1.0)
        coef, intercept = effective_parameters(m)
        assert coef[0] == 2.0 and intercept == 1.0

    def test_predict_checks_width(self):
        m = LinearModel(coefficients=np.array([1.0, 2.0]), intercept=0.0)
        with pytest.raises(ShapeError):
            predict_linear(m, np.ones((3, 3)))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearModel(coefficients=np.array([np.nan]), intercept=0.0)

    def test_scaled_and_unscaled_agree_on_training_fit(self):
        x, y, beta, intercept = noiseless(seed=9, n=200, p=2)
        sgd = fit_sgd(x, y, SgdConfig(epochs=300, seed=2))
        coef, b = effective_parameters(sgd)
        np.testing.assert_allclose(coef, beta, atol=5e-2)
        assert b == pytest.approx(intercept, abs=5e-2)
