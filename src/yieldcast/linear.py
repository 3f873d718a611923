"""Ordinary least squares and stochastic-gradient-descent linear regressors.

OLS is solved through an orthogonal factorization of the intercept-augmented
design matrix; exactly collinear designs (one-hot blocks plus intercept) fall
back to a ridge-jittered normal-equations solve, flagged on the model. SGD
standardizes features internally so a constant learning rate stays stable,
and folds the scaler back in at predict time. Its weights are kept in the
scaled form beta = scale * w (Bottou 2010; Pegasos), so each per-sample step
costs one multiply for the L2 decay plus work on the row's nonzero
coordinates only, in plain Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Scaler, apply_scaler, fit_scaler, training_pair
from .errors import Diverged, InsufficientRows, InvalidData, ShapeError

# fit_sgd folds its decaying weight scale back into the weights below this,
# long before the scale could underflow to zero.
_RESCALE_BELOW = 1e-9


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor yhat = intercept + x @ coefficients.

    When a scaler is present, inputs are standardized before the dot product,
    so the model still maps raw feature space.
    """

    coefficients: np.ndarray
    intercept: float
    scaler: Optional[Scaler] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.ndim(self.coefficients) != 1:
            raise ValueError("coefficients must be 1-d")
        if self.scaler is not None and len(self.scaler.means) != len(self.coefficients):
            raise ValueError("the scaler and coefficients differ in width")
        if not (np.isfinite(self.coefficients).all() and np.isfinite(self.intercept)):
            raise ValueError("non-finite model parameters")


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 1e-3
    epochs: int = 1000
    l2: float = 1e-4
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs <= 0:
            raise ValueError("epochs must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if 2.0 * self.learning_rate * self.l2 >= 1.0:
            # the per-step weight decay factor 1 - 2*learning_rate*l2 must stay > 0
            raise ValueError("2 * learning_rate * l2 must be < 1")


def fit_ols(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least-squares fit of y on x with an intercept.

    Rank-deficient designs are retried once with 1e-8 ridge jitter on the
    normal-equations diagonal; the model's metadata records the fallback.
    """
    x, y = training_pair(x, y, "OLS")
    n, p = x.shape
    if n <= p:
        raise InsufficientRows(f"need n > p for OLS, got n={n}, p={p}")

    a = np.column_stack([x, np.ones(n)])
    with np.errstate(over="ignore", invalid="ignore"):  # beta is checked below
        beta, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        metadata = {"solver": "lstsq", "rank_deficient": False}
        if rank < p + 1:
            ata = a.T @ a + 1e-8 * np.eye(p + 1)
            beta = np.linalg.solve(ata, a.T @ y)
            metadata = {"solver": "ridge_jitter", "rank_deficient": True}
    if not np.isfinite(beta).all():
        raise InvalidData("OLS solution is not finite")
    return LinearModel(
        coefficients=beta[:p],
        intercept=float(beta[p]),
        metadata=metadata,
    )


def mse_gradient(
    beta: np.ndarray,
    intercept: float,
    x: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Gradient of (1/n) * sum((yhat - y)^2) + l2 * ||beta||^2.

    Returns (grad_beta, grad_intercept); the penalty never touches the
    intercept.
    """
    x, y = training_pair(x, y, "MSE gradient")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (x.shape[1],):
        raise ShapeError(f"beta shape {beta.shape} does not match {x.shape[1]} columns")
    n = x.shape[0]
    err = x @ beta + intercept - y
    grad_beta = (2.0 / n) * (x.T @ err) + 2.0 * l2 * beta
    grad_intercept = float((2.0 / n) * err.sum())
    return grad_beta, grad_intercept


def fit_sgd(
    x: np.ndarray,
    y: np.ndarray,
    cfg: SgdConfig = SgdConfig(),
    passthrough: Optional[Sequence[bool]] = None,
) -> LinearModel:
    """Per-sample gradient descent on squared error with L2 on the weights.

    Features are standardized internally (one-hot columns passed through);
    the fitted model carries the scaler so it predicts from raw inputs. Each
    step is the dense update beta -= lr * (2*err*row + 2*l2*beta), computed
    sparsely: beta is held as scale * w, the decay multiplies scale by
    1 - 2*lr*l2, and only the row's nonzero coordinates of w are read and
    written. Whenever scale drops below 1e-9 it is folded back into w. The
    result equals the dense loop up to rounding. The fit returns the mean of
    the end-of-epoch iterates from epoch max(1, epochs // 2) through the last
    (Polyak & Juditsky 1992). Full training MSE of the model the fit would
    return at that epoch is checkpointed every 100 epochs and at the final
    epoch. Raises Diverged, naming the epoch, if any parameter leaves the
    floats.
    """
    x, y = training_pair(x, y, "SGD")
    n, p = x.shape
    scaler = fit_scaler(x, passthrough=passthrough)
    z = apply_scaler(scaler, x)

    # each row once as its nonzero (column, value) pairs plus its target
    rows = [
        (tuple((j, v) for j, v in enumerate(row) if v != 0.0), target)
        for row, target in zip(z.tolist(), y.tolist())
    ]
    step = 2.0 * cfg.learning_rate
    decay = 1.0 - step * cfg.l2
    rng = np.random.default_rng(cfg.seed)
    average_from = max(1, cfg.epochs // 2)  # first iterate in the returned mean
    w = [0.0] * p
    scale = 1.0
    intercept = 0.0
    beta_sum = np.zeros(p)
    intercept_sum = 0.0
    checkpoints: list[tuple[int, float]] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n).tolist() if cfg.shuffle else range(n)
        for i in order:
            pairs, target = rows[i]
            dot = 0.0
            for j, v in pairs:
                dot += w[j] * v
            err = scale * dot + intercept - target
            scale *= decay
            g = step * err / scale
            for j, v in pairs:
                w[j] -= g * v
            intercept -= step * err
            if scale < _RESCALE_BELOW:
                w = [wj * scale for wj in w]
                scale = 1.0
        beta = scale * np.array(w)
        if not (np.isfinite(beta).all() and math.isfinite(intercept)):
            raise Diverged(epoch)
        coef, bias = beta, intercept
        if epoch >= average_from:
            beta_sum += beta
            intercept_sum += intercept
            averaged = epoch - average_from + 1
            coef, bias = beta_sum / averaged, intercept_sum / averaged
        if epoch % 100 == 0 or epoch == cfg.epochs:
            with np.errstate(over="ignore", invalid="ignore"):
                mse = float(np.mean((z @ coef + bias - y) ** 2))
            checkpoints.append((epoch, mse))

    return LinearModel(
        coefficients=coef,
        intercept=float(bias),
        scaler=scaler,
        metadata={
            "config": {
                "learning_rate": cfg.learning_rate,
                "epochs": cfg.epochs,
                "l2": cfg.l2,
                "seed": cfg.seed,
                "shuffle": cfg.shuffle,
                "average_from": average_from,
            },
            "loss_checkpoints": checkpoints,
            "final_train_mse": checkpoints[-1][1],
        },
    )


def effective_parameters(m: LinearModel) -> tuple[np.ndarray, float]:
    """Coefficients and intercept in raw feature space.

    Folds any attached scaler into the parameters: predict_linear(m, x)
    equals x @ coef + intercept for the returned pair.
    """
    if m.scaler is None:
        return m.coefficients.copy(), m.intercept
    coef = m.coefficients / m.scaler.stds
    intercept = m.intercept - float(np.sum(coef * m.scaler.means))
    return coef, intercept


def predict_linear(m: LinearModel, x: np.ndarray) -> np.ndarray:
    """Affine prediction; applies the fit-time scaler when one is present."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(m.coefficients):
        raise ShapeError(
            f"expected {len(m.coefficients)} columns, got shape {x.shape}"
        )
    z = apply_scaler(m.scaler, x) if m.scaler is not None else x
    return z @ m.coefficients + m.intercept


__all__ = [
    "LinearModel",
    "SgdConfig",
    "fit_ols",
    "mse_gradient",
    "fit_sgd",
    "effective_parameters",
    "predict_linear",
]
