"""K-nearest-neighbour regression by brute-force Euclidean scan.

Numeric features are z-scored at fit time so no single unit dominates the
distance; one-hot columns pass through unscaled, which fixes the distance
between any two distinct categories at sqrt(2). The linear scan is the
reference behaviour, not a placeholder for a spatial index: with stable
argsort, ties in distance resolve to the lowest training-row index.

The scan runs over blocks of queries, at most `_BLOCK_CELLS` (query,
training row, feature) cells each, so its temporaries stay bounded. Each
query's distances are the same sum over its own feature axis as a one-row
scan, so distances and tie order do not depend on the block; `neighbors`
and `predict_knn` are the one-row case of the same scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Scaler, apply_scaler, fit_scaler
from .errors import InsufficientRows, InvalidConfig, InvalidData, ShapeError

# (query, training row, feature) cells one block of the scan holds
_BLOCK_CELLS = 1 << 16


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


def _nearest(m: KnnModel, scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of each scaled query row's k nearest training
    rows, nearest first (queries x k)."""
    diff = m.x_train - scaled[:, None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    order = np.argsort(dist, axis=1, kind="stable")[:, : m.k]
    return order, np.take_along_axis(dist, order, axis=1)


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
    return math.fsum(m.y_train[idx].tolist()) / m.k


def predict_knn_batch(m: KnnModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.x_train.shape[1]:
        raise ShapeError(
            f"query has shape {x.shape} but model expects (*, {m.x_train.shape[1]})"
        )
    scaled = apply_scaler(m.scaler, x)
    step = max(1, _BLOCK_CELLS // max(1, m.x_train.size))
    out = np.empty(len(x))
    for a in range(0, len(x), step):
        idx, _ = _nearest(m, scaled[a : a + step])
        out[a : a + step] = [math.fsum(ys) / m.k for ys in m.y_train[idx].tolist()]
    return out


__all__ = ["KnnModel", "fit_knn", "neighbors", "predict_knn", "predict_knn_batch"]
