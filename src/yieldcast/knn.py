"""K-nearest-neighbour regression by an exact brute-force Euclidean scan.

Numeric features are z-scored at fit time so no single unit dominates the
distance; one-hot columns pass through unscaled, which fixes the distance
between any two distinct categories at sqrt(2). The linear scan is the
reference behaviour, not a placeholder for a spatial index: a query's
distance to a training row is `sqrt(sum(diff * diff))` over its feature
axis, and with stable argsort, ties in distance resolve to the lowest
training-row index.

The scan runs in two stages over blocks of queries, at most `_BLOCK_CELLS`
(query, training row) cells each. Stage 1 bounds every squared distance
from one BLAS product, ||s||^2 + ||t||^2 - 2 s.t, and keeps as candidates
the rows that could still be among a query's k nearest under a rigorous
rounding margin (`_candidates`); a query whose bounds are not finite
(scaled values past the float range) cannot be ranked and raises
InvalidData. Stage 2 computes the
reference distance of those pairs only, at most `_BLOCK_CELLS` (pair,
feature) cells at a time, and ranks them by (query, distance, row index).
The reference k nearest are always among the candidates, so indices and
distances are bit for bit those of a full scan, whatever the block.
`neighbors`, `predict_knn` and `predict_knn_batch` all go through the same
scan.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Scaler, apply_scaler, fit_scaler, fsum_columns
from .errors import InsufficientRows, InvalidConfig, InvalidData, ShapeError

# (query, training row) cells one block of the scan holds
_BLOCK_CELLS = 1 << 16
# a query with a stage 1 bound above this cannot be ranked: below it, no
# reference distance sum can overflow
_BOUND_LIMIT = 2.0**1020


@dataclass(frozen=True)
class KnnModel:
    x_train: np.ndarray  # scaled copy of the training features
    y_train: np.ndarray
    k: int
    scaler: Scaler
    feature_names: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_train.ndim != 2 or self.y_train.ndim != 1:
            raise ShapeError("x_train must be 2-d and y_train 1-d")
        if len(self.x_train) != len(self.y_train):
            raise ShapeError("x_train and y_train row counts differ")
        if not (np.isfinite(self.x_train).all() and np.isfinite(self.y_train).all()):
            raise ValueError("x_train and y_train must be finite")
        if not (isinstance(self.k, int) and 1 <= self.k <= len(self.y_train)):
            raise ValueError(f"k must be an integer in [1, {len(self.y_train)}], got {self.k!r}")
        if len(self.scaler.means) != self.x_train.shape[1]:
            raise ValueError("the scaler and x_train differ in width")


def fit_knn(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    passthrough: Optional[Sequence[bool]] = None,
    feature_names: tuple[str, ...] = (),
) -> KnnModel:
    """Store the scaled training set; `passthrough` masks columns (one-hots)
    that skip z-scoring."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise InvalidData(f"bad training shapes x={x.shape}, y={y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData("non-finite values in knn input")
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    if k > len(y):
        raise InsufficientRows(f"k={k} exceeds {len(y)} training rows")
    scaler = fit_scaler(x, passthrough=passthrough)
    return KnnModel(
        x_train=apply_scaler(scaler, x),
        y_train=y.copy(),
        k=k,
        scaler=scaler,
        feature_names=tuple(feature_names),
    )


def _candidates(m: KnnModel, scaled: np.ndarray) -> np.ndarray:
    """(queries x rows) mask of the rows that can be among a query's k nearest.
    A query whose bounds are not finite, or so large that a reference
    distance could overflow, raises InvalidData with its row in `scaled`.

    d2 = ||s||^2 + ||t||^2 - 2 s.t, from one Gram product, is within err of
    the reference sum r = sum((t - s)^2) at every (query, row) cell. With
    u = 2^-53, p features, S = ||s||^2 + ||t||^2 and D = ||s - t||^2 <= 2 S:
      - the norms are off by at most gamma_p S together, and the doubled
        dot product by 2 gamma_p sum|s_i t_i| <= gamma_p S; the sum and the
        subtraction round by u S and u D: (2p + 1) u S + u D in all;
      - the reference sum is off by at most (p + 2) u D;
      - two sums that round to the same sqrt differ by up to 4 u D;
      - rounding d2 - err or d2 + err adds u D.
    With D <= 2 S that is (4p + 17) u S, under err = 5 (p + 4) u S.
    Products that underflow are off by up to 2^-1075 more each, 5p per
    cell, which the p 2^-1070 added to kth covers. So a row whose reference
    distance ties or beats the k-th smallest has d2 - err <= kth, where kth
    is the k-th smallest d2 + err, a bound on k rows' reference sums.
    """
    t = m.x_train
    p = t.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        err = np.einsum("ij,ij->i", scaled, scaled)[:, None] + np.einsum("ij,ij->i", t, t)
        d2 = scaled @ t.T
        d2 *= -2.0
        d2 += err
        err *= 5 * (p + 4) * 2.0**-53
        hi = d2 + err
    if not hi.max() <= _BOUND_LIMIT:  # also true for NaN
        row = int(np.argmin(hi.max(axis=1) <= _BOUND_LIMIT))
        raise InvalidData("knn query is too far out to rank its neighbours", row=row)
    d2 -= err
    hi.partition(m.k - 1, axis=1)  # in place: hi is not read again
    kth = hi[:, m.k - 1] + p * 2.0**-1070
    return d2 <= kth[:, None]


def _nearest(m: KnnModel, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each scaled query row's k nearest training
    rows, nearest first (queries x k)."""
    mask = _candidates(m, scaled)
    query, row = np.nonzero(mask)  # row ascending within each query
    # the gathered (pair, feature) temporaries hold at most _BLOCK_CELLS cells
    step = max(1, _BLOCK_CELLS // m.x_train.shape[1])
    dist = np.empty(len(row))
    for a in range(0, len(row), step):
        diff = m.x_train[row[a : a + step]] - scaled[query[a : a + step]]
        dist[a : a + step] = np.sqrt(np.sum(diff * diff, axis=1))
    # stable, so equal distances keep ascending row order
    order = np.lexsort((dist, query))
    count = mask.sum(axis=1)
    first = np.cumsum(count) - count
    pick = order[first[:, None] + np.arange(m.k)]
    return row[pick], dist[pick]


def neighbors(m: KnnModel, x_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest training rows, nearest first.

    Distance ties keep ascending training-row order (stable sort), so the
    result is a pure function of the stored training set.
    """
    x_row = np.asarray(x_row, dtype=float)
    if x_row.shape != (m.x_train.shape[1],):
        raise ShapeError(
            f"query has {x_row.shape} but model expects ({m.x_train.shape[1]},)"
        )
    order, dist = _nearest(m, apply_scaler(m.scaler, x_row.reshape(1, -1)))
    return order[0], dist[0]


def predict_knn(m: KnnModel, x_row: np.ndarray) -> float:
    """Unweighted mean target over the k nearest neighbours."""
    idx, _ = neighbors(m, x_row)
    return float(fsum_columns(m.y_train[idx, None])[0] / m.k)


def predict_knn_batch(m: KnnModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.x_train.shape[1]:
        raise ShapeError(
            f"query has shape {x.shape} but model expects (*, {m.x_train.shape[1]})"
        )
    scaled = apply_scaler(m.scaler, x)
    step = max(1, _BLOCK_CELLS // max(1, len(m.x_train)))
    out = np.empty(len(x))
    for a in range(0, len(x), step):
        try:
            idx, _ = _nearest(m, scaled[a : a + step])
        except InvalidData as exc:  # name the row of x, not of the block
            raise InvalidData(str(exc), row=a + exc.row) from None
        out[a : a + step] = fsum_columns(m.y_train[idx].T) / m.k
    return out


__all__ = ["KnnModel", "fit_knn", "neighbors", "predict_knn", "predict_knn_batch"]
