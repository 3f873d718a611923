"""Descriptive statistics over the raw inputs and the merged panel.

The raw inputs arrive as the columns the ingest parsers make
(ClimateColumns, FaoColumns); annual means and item counts read them
directly.

Correlations use the two-pass centered formula, which is stable for the
value ranges seen here (yields reach 1e6 hg/ha). VIF is computed from
auxiliary least-squares fits, so exactly collinear columns surface as
very large values instead of raising.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConstantFeature, EmptyInput, InvalidData, ShapeError
from .ingest import ClimateColumns, FaoColumns
from .linear import fit_ols, predict_linear
from .persist import write_csv


@dataclass(frozen=True)
class AnnualSeries:
    label: str
    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise ShapeError("years and values lengths differ")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise InvalidData("years must be strictly increasing")


@dataclass(frozen=True)
class CorrMatrix:
    names: tuple[str, ...]
    matrix: np.ndarray  # symmetric, unit diagonal, entries in [-1, 1]

    def __post_init__(self):
        p = len(self.names)
        if self.matrix.shape != (p, p):
            raise ShapeError(f"matrix shape {self.matrix.shape} != ({p}, {p})")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12):
            raise InvalidData("correlation matrix must be symmetric")
        if not np.allclose(np.diag(self.matrix), 1.0, atol=1e-12):
            raise InvalidData("correlation matrix diagonal must be 1")
        if np.any(np.abs(self.matrix) > 1.0 + 1e-12):
            raise InvalidData("correlation entries must lie in [-1, 1]")

    def lookup(self, a: str, b: str) -> float:
        return float(self.matrix[self.names.index(a), self.names.index(b)])


def annual_mean(rows: ClimateColumns | FaoColumns, label: str) -> AnnualSeries:
    """Mean value per year across all countries, years ascending.

    Works for the columns of either parser (climate rows, FAOSTAT rows).
    Each year's mean is np.mean over its values in row order.
    """
    if not rows:
        raise EmptyInput("no climate records to aggregate")
    by_year: dict[int, list[float]] = defaultdict(list)
    for year, value in zip(rows.year, rows.value):
        by_year[year].append(value)
    years = tuple(sorted(by_year))
    values = tuple(float(np.mean(by_year[y])) for y in years)
    return AnnualSeries(label=label, years=years, values=values)


def item_frequency(rows: FaoColumns) -> list[tuple[str, int]]:
    """Row counts per item, most frequent first; ties break alphabetically."""
    counts = Counter(rows.item)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def pearson_corr_matrix(x: np.ndarray, names: Sequence[str]) -> CorrMatrix:
    """Pairwise Pearson correlations between the columns of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(names):
        raise ShapeError(f"x has shape {x.shape} but {len(names)} names given")
    if x.shape[0] < 2:
        raise EmptyInput("correlation needs at least 2 rows")
    if not np.isfinite(x).all():
        raise InvalidData("non-finite values in correlation input")

    centered = x - x.mean(axis=0)
    norms = np.sqrt(np.sum(centered * centered, axis=0))
    flat = [str(n) for n, s in zip(names, norms) if s == 0.0]
    if flat:
        raise ConstantFeature(f"constant columns have no correlation: {flat}")

    m = (centered.T @ centered) / np.outer(norms, norms)
    m = np.clip(m, -1.0, 1.0)
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 1.0)
    return CorrMatrix(names=tuple(str(n) for n in names), matrix=m)


def vif(x: np.ndarray, names: Sequence[str]) -> dict[str, float]:
    """Variance inflation factor per column: 1 / (1 - R^2) from regressing
    that column on all the others (with intercept). A perfect auxiliary fit
    maps to inf rather than an error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(names):
        raise ShapeError(f"x has shape {x.shape} but {len(names)} names given")
    if x.shape[1] < 2:
        raise InvalidData("vif needs at least 2 columns")

    out: dict[str, float] = {}
    for j, name in enumerate(names):
        others = np.delete(x, j, axis=1)
        target = x[:, j]
        sst = float(np.sum((target - target.mean()) ** 2))
        if sst == 0.0:
            raise ConstantFeature(f"column {name!r} is constant")
        model = fit_ols(others, target)
        sse = float(np.sum((target - predict_linear(model, others)) ** 2))
        r2 = 1.0 - sse / sst
        out[str(name)] = float("inf") if r2 >= 1.0 else 1.0 / (1.0 - r2)
    return out


def emit_plot_data(series: AnnualSeries, path: str | Path) -> None:
    """Write a two-column CSV (year, value) with full-precision floats."""
    write_csv(["year", series.label], zip(series.years, series.values), path)


__all__ = [
    "AnnualSeries",
    "CorrMatrix",
    "annual_mean",
    "item_frequency",
    "pearson_corr_matrix",
    "vif",
    "emit_plot_data",
]
