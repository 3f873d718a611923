"""Regression metrics, k-fold cross-validation, agreement banding, ensembling.

Cross-validation takes an explicit FoldPlan, and one fold runner fits every
model on it, so single-model and ensemble scores share one partition and one
code path. Model access goes through ModelSpec callables; any scaler refitting
happens inside each ModelSpec's fit, so folds never leak holdout statistics.
Agreement (Cohen's kappa) is defined on a regression task by discretizing both
vectors with quantile bins taken from the true targets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .core import FeatureMatrix, fsum_columns
from .errors import (
    FoldFailed,
    InsufficientRows,
    InvalidConfig,
    InvalidData,
    ShapeError,
    UndefinedKappa,
    UndefinedMape,
    UndefinedR2,
    YieldcastError,
)

METRIC_NAMES = ("r2", "mae", "mse", "rmse", "max_err", "mape_percent")

MAPE_FLOOR = 1e-9  # rows with |y| below this are excluded from MAPE

KAPPA_BANDS = (
    # half-open [lo, hi); kappa = 1 is handled separately
    (0.81, "near-perfect agreement"),
    (0.61, "substantial agreement"),
    (0.41, "moderate agreement"),
    (0.21, "fair agreement"),
    (0.10, "slight agreement"),
    (-1.0, "agreement equivalent to chance"),
)


def _check_pair(y: np.ndarray, yhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or yhat.ndim != 1:
        raise ShapeError("metric inputs must be 1-d")
    if len(y) != len(yhat):
        raise ShapeError(f"length mismatch: {len(y)} vs {len(yhat)}")
    if len(y) == 0:
        raise ShapeError("metric inputs must be nonempty")
    if not (np.isfinite(y).all() and np.isfinite(yhat).all()):
        raise InvalidData("non-finite values in metric input")
    return y, yhat


def r2(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = _check_pair(y, yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise UndefinedR2("r2 is undefined for a constant target")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def mae(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def mse(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.mean((y - yhat) ** 2))


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    return math.sqrt(mse(y, yhat))


def max_error(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = _check_pair(y, yhat)
    return float(np.max(np.abs(y - yhat)))


def _mape_parts(y: np.ndarray, yhat: np.ndarray) -> tuple[Optional[float], int]:
    keep = np.abs(y) >= MAPE_FLOOR
    excluded = int(len(y) - keep.sum())
    if not keep.any():
        return None, excluded
    value = 100.0 * float(np.mean(np.abs((y[keep] - yhat[keep]) / y[keep])))
    return value, excluded


def mape(y: np.ndarray, yhat: np.ndarray) -> float:
    """Mean absolute percentage error over rows with |y| >= 1e-9."""
    y, yhat = _check_pair(y, yhat)
    value, _ = _mape_parts(y, yhat)
    if value is None:
        raise UndefinedMape("every row has |y| below the MAPE floor")
    return value


@dataclass(frozen=True)
class MetricsReport:
    """The six-metric bundle for one (y, yhat) pair.

    r2 and mape_percent are None when undefined (constant target, every row
    under the MAPE floor); the other four always exist.
    """

    r2: Optional[float]
    mae: float
    mse: float
    rmse: float
    max_err: float
    mape_percent: Optional[float]
    mape_excluded_rows: int = 0

    def __post_init__(self):
        if not (self.max_err >= self.mae >= 0.0):
            raise InvalidData("metric ordering violated: need max_err >= mae >= 0")
        if not math.isclose(self.rmse, math.sqrt(self.mse), rel_tol=1e-12, abs_tol=0.0):
            raise InvalidData("rmse must equal sqrt(mse)")
        if self.r2 is not None and self.r2 > 1.0:
            raise InvalidData(f"r2 cannot exceed 1, got {self.r2}")
        if self.mape_excluded_rows < 0:
            raise InvalidData("mape_excluded_rows cannot be negative")


def metrics_bundle(y: np.ndarray, yhat: np.ndarray) -> MetricsReport:
    """All six metrics at once; an undefined r2 or mape is recorded as None,
    so degenerate folds can still be reported.
    """
    y, yhat = _check_pair(y, yhat)
    mse_v = mse(y, yhat)
    mape_v, excluded = _mape_parts(y, yhat)
    r2_v: Optional[float]
    try:
        r2_v = r2(y, yhat)
    except UndefinedR2:
        r2_v = None
    max_v = max_error(y, yhat)
    return MetricsReport(
        r2=r2_v,
        # the mean of equal errors can round one ulp above their maximum
        mae=min(mae(y, yhat), max_v),
        mse=mse_v,
        rmse=math.sqrt(mse_v),
        max_err=max_v,
        mape_percent=mape_v,
        mape_excluded_rows=excluded,
    )


@dataclass(frozen=True)
class FoldPlan:
    """A fixed partition of n rows into k folds.

    assignments[i] is the fold index of row i; sizes differ by at most one.
    """

    k: int
    assignments: np.ndarray
    seed: int

    def __post_init__(self):
        a = self.assignments
        if a.ndim != 1 or len(a) < self.k:
            raise ShapeError("assignments must be 1-d with at least k rows")
        sizes = np.bincount(a, minlength=self.k)
        if len(sizes) != self.k or sizes.min() < 1:
            raise InvalidData("every fold index in [0, k) must be used")
        if sizes.max() - sizes.min() > 1:
            raise InvalidData(f"fold sizes {sizes.tolist()} differ by more than 1")

    @property
    def n(self) -> int:
        return len(self.assignments)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def make_folds(n: int, k: int = 10, seed: int = 0) -> FoldPlan:
    """Seeded shuffle, then contiguous slices of near-equal size."""
    if not 2 <= k <= n:
        raise InvalidConfig(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=int)
    start = 0
    for fold in range(k):
        size = n // k + (1 if fold < n % k else 0)
        assignments[perm[start : start + size]] = fold
        start += size
    return FoldPlan(k=k, assignments=assignments, seed=seed)


@dataclass(frozen=True)
class ModelSpec:
    """How cross-validation drives one model family.

    fit(x, y) returns an opaque fitted model; predict(model, x) returns a
    prediction vector. Internal standardization belongs inside fit.
    """

    name: str
    fit: Callable[[np.ndarray, np.ndarray], Any]
    predict: Callable[[Any, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MetricSummary:
    mean: Optional[float]
    std: Optional[float]  # sample std (ddof=1); None with < 2 defined folds
    n_defined: int


@dataclass(frozen=True)
class CvResult:
    model_label: str
    per_fold: tuple[MetricsReport, ...]
    summary: dict[str, MetricSummary] = field(default_factory=dict)


def summarize_folds(per_fold: Sequence[MetricsReport]) -> dict[str, MetricSummary]:
    """Mean and sample std per metric over folds where the metric is defined."""
    out: dict[str, MetricSummary] = {}
    for name in METRIC_NAMES:
        values = [getattr(m, name) for m in per_fold]
        defined = [v for v in values if v is not None]
        if not defined:
            out[name] = MetricSummary(mean=None, std=None, n_defined=0)
            continue
        mean = float(np.mean(defined))
        std = float(np.std(defined, ddof=1)) if len(defined) >= 2 else None
        out[name] = MetricSummary(mean=mean, std=std, n_defined=len(defined))
    return out


def _fold_predictions(
    specs: Sequence[ModelSpec], m: FeatureMatrix, plan: FoldPlan
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Fit every spec on each fold's complement and predict its holdout.

    Returns (test indices, one prediction vector per spec) for each fold.
    Failures are collected across the whole run and raised together as
    FoldFailed.
    """
    if plan.n != len(m.y):
        raise ShapeError(f"plan covers {plan.n} rows but matrix has {len(m.y)}")
    folds = []
    failures: list[tuple[int, str]] = []
    for fold in range(plan.k):
        train = plan.train_indices(fold)
        test = plan.test_indices(fold)
        preds = []
        for spec in specs:
            try:
                fitted = spec.fit(m.x[train], m.y[train])
                preds.append(np.asarray(spec.predict(fitted, m.x[test]), dtype=float))
            except YieldcastError as exc:
                failures.append((fold, f"{spec.name}: {exc}"))
        folds.append((test, preds))
    if failures:
        raise FoldFailed(failures)
    return folds


def _scored(
    label: str, m: FeatureMatrix, folds: Sequence[tuple[np.ndarray, np.ndarray]]
) -> CvResult:
    per_fold = [metrics_bundle(m.y[test], yhat) for test, yhat in folds]
    return CvResult(
        model_label=label,
        per_fold=tuple(per_fold),
        summary=summarize_folds(per_fold),
    )


def cross_validate(spec: ModelSpec, m: FeatureMatrix, plan: FoldPlan) -> CvResult:
    """Fit on each fold's complement, score its holdout, aggregate."""
    folds = _fold_predictions([spec], m, plan)
    return _scored(spec.name, m, [(test, preds[0]) for test, preds in folds])


def ensemble_cv(
    specs: Sequence[ModelSpec],
    m: FeatureMatrix,
    plan: FoldPlan,
    member_log: Optional[list] = None,
) -> tuple[list[CvResult], Optional[CvResult]]:
    """Cross-validate each member and the unweighted average of their predictions.

    Returns (one CvResult per member, the ensemble's CvResult), all scored on
    the same fits; one spec has no ensemble, so its second item is None. When
    member_log is a list and there is an ensemble, one entry per fold is
    appended with the test indices and each member's raw predictions, so the
    averaging is externally checkable.
    """
    if not specs:
        raise InvalidConfig("cross-validation needs at least 1 model spec")
    folds = _fold_predictions(specs, m, plan)
    members = [
        _scored(spec.name, m, [(test, preds[pos]) for test, preds in folds])
        for pos, spec in enumerate(specs)
    ]
    if len(specs) == 1:
        return members, None
    averaged = [
        (test, fsum_columns(np.stack(preds)) / len(specs)) for test, preds in folds
    ]
    if member_log is not None:
        keys = [f"{pos}:{spec.name}" for pos, spec in enumerate(specs)]
        for fold, ((test, preds), (_, ensemble)) in enumerate(zip(folds, averaged)):
            member_log.append(
                {
                    "fold": fold,
                    "test_indices": test.copy(),
                    "members": dict(zip(keys, preds)),
                    "ensemble": ensemble,
                }
            )
    label = "ensemble(" + "+".join(s.name for s in specs) + ")"
    return members, _scored(label, m, averaged)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    band: str
    bin_edges: tuple[float, ...]

    def __post_init__(self):
        if not -1.0 <= self.kappa <= 1.0:
            raise InvalidData(f"kappa must lie in [-1, 1], got {self.kappa}")


def kappa_band(kappa: float) -> str:
    if kappa == 1.0:
        return "perfect agreement"
    for lo, label in KAPPA_BANDS:
        if kappa >= lo:
            return label
    return "agreement equivalent to chance"


def cohen_kappa(y: np.ndarray, yhat: np.ndarray, n_bins: int = 5) -> KappaResult:
    """Chance-corrected agreement between quantile-binned y and yhat.

    Bin edges are the inner quantiles of y (i/n_bins); both vectors are
    discretized with side='right', so values at or above the last edge land
    in the top bin. kappa = (p_o - p_e) / (1 - p_e).
    """
    y, yhat = _check_pair(y, yhat)
    if n_bins < 2:
        raise InvalidConfig(f"n_bins must be >= 2, got {n_bins}")
    if len(y) < n_bins:
        raise InsufficientRows(f"need at least {n_bins} rows, got {len(y)}")

    edges = np.quantile(y, [i / n_bins for i in range(1, n_bins)])
    bins_true = np.searchsorted(edges, y, side="right")
    bins_pred = np.searchsorted(edges, yhat, side="right")

    n = len(y)
    table = np.zeros((n_bins, n_bins))
    np.add.at(table, (bins_true, bins_pred), 1.0)
    p_obs = float(np.trace(table)) / n
    p_chance = float(np.sum(table.sum(axis=1) * table.sum(axis=0))) / (n * n)
    if p_chance == 1.0:
        raise UndefinedKappa("all rows fall in a single bin")
    kappa = (p_obs - p_chance) / (1.0 - p_chance)
    kappa = min(1.0, max(-1.0, kappa))  # guard float excursions only
    return KappaResult(
        kappa=kappa, band=kappa_band(kappa), bin_edges=tuple(float(e) for e in edges)
    )


__all__ = [
    "METRIC_NAMES",
    "MAPE_FLOOR",
    "r2",
    "mae",
    "mse",
    "rmse",
    "max_error",
    "mape",
    "MetricsReport",
    "metrics_bundle",
    "FoldPlan",
    "make_folds",
    "ModelSpec",
    "MetricSummary",
    "CvResult",
    "summarize_folds",
    "cross_validate",
    "ensemble_cv",
    "KappaResult",
    "kappa_band",
    "cohen_kappa",
]
