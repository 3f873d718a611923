"""Panel-data model, feature-matrix construction, standardization, splitting.

Everything here is immutable after construction and safe to share across
threads. Rows are keyed by (iso3, year, item) and kept in sorted key order so
downstream results never depend on source-file row order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConstantFeature,
    EmptyInput,
    InvalidConfig,
    ShapeError,
)

NUMERIC_FEATURES = ("rain_mm", "temp_c", "pesticides_tonnes")
# cells of a stack `fsum_columns` turns into Python floats at a time
_FSUM_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ClimateRecord:
    """One country-year reading of rainfall (mm) or temperature (degrees C)."""

    year: int
    country: str
    iso3: str
    value: float

    def __post_init__(self):
        if not (len(self.iso3) == 3 and self.iso3.isalpha() and self.iso3.isupper()):
            raise ValueError(f"bad ISO3 code: {self.iso3!r}")
        if not 1901 <= self.year <= 2100:
            raise ValueError(f"year {self.year} outside [1901, 2100]")
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value: {self.value}")


@dataclass(frozen=True)
class FaoRecord:
    """One area-item-year row: crop yield (hg/ha) or pesticide use (tonnes)."""

    area: str
    item: str
    year: int
    unit: str
    value: float

    def __post_init__(self):
        if self.unit not in ("hg/ha", "tonnes"):
            raise ValueError(f"unknown unit: {self.unit!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value: {self.value}")
        if self.value < 0:
            raise ValueError(f"negative value: {self.value}")


@dataclass(frozen=True)
class PanelRow:
    """Merged observation: one crop in one country-year with all parameters."""

    iso3: str
    country: str
    year: int
    item: str
    rain_mm: float
    temp_c: float
    pesticides_tonnes: float
    yield_hg_ha: float

    def __post_init__(self):
        for name in ("rain_mm", "temp_c", "pesticides_tonnes", "yield_hg_ha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} in row {self.key()}")
        if self.pesticides_tonnes < 0 or self.yield_hg_ha < 0:
            raise ValueError(f"negative quantity in row {self.key()}")

    def key(self) -> tuple[str, int, str]:
        return (self.iso3, self.year, self.item)


@dataclass(frozen=True)
class PanelTable:
    """Ordered collection of panel rows plus merge provenance.

    Rows are sorted by (iso3, year, item) and that key is unique.
    """

    rows: tuple[PanelRow, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [r.key() for r in self.rows]
        if keys != sorted(keys):
            raise ValueError("panel rows must be sorted by (iso3, year, item)")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (iso3, year, item) key in panel")

    def __len__(self) -> int:
        return len(self.rows)

    def items(self) -> list[str]:
        return sorted({r.item for r in self.rows})

    def countries(self) -> list[str]:
        return sorted({r.iso3 for r in self.rows})

    def year_range(self) -> tuple[int, int]:
        years = [r.year for r in self.rows]
        return (min(years), max(years))


@dataclass(frozen=True)
class FeatureConfig:
    """Which columns enter the design matrix.

    One-hot blocks encode crop item and country identity; they are appended
    after the numeric columns and flagged so standardization skips them.
    """

    use_rain: bool = True
    use_temp: bool = True
    use_pesticides: bool = True
    encode_item: bool = True
    encode_country: bool = False

    def enabled_numeric(self) -> list[str]:
        out = []
        if self.use_rain:
            out.append("rain_mm")
        if self.use_temp:
            out.append("temp_c")
        if self.use_pesticides:
            out.append("pesticides_tonnes")
        return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Design matrix + target, with names, row keys and one-hot flags."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    row_keys: tuple[tuple[str, int, str], ...]
    onehot: tuple[bool, ...]

    def __post_init__(self):
        n, p = self.x.shape
        if n == 0 or p == 0:
            raise ValueError("feature matrix must be non-empty")
        if len(self.y) != n or len(self.row_keys) != n:
            raise ValueError("row count mismatch")
        if len(self.feature_names) != p or len(self.onehot) != p:
            raise ValueError("column count mismatch")
        if len(set(self.feature_names)) != p:
            raise ValueError("duplicate feature names")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("non-finite entries in feature matrix")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def take(self, indices: np.ndarray) -> "FeatureMatrix":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=int)
        return FeatureMatrix(
            x=self.x[idx].copy(),
            y=self.y[idx].copy(),
            feature_names=self.feature_names,
            row_keys=tuple(self.row_keys[i] for i in idx),
            onehot=self.onehot,
        )


def build_feature_matrix(table: PanelTable, cfg: FeatureConfig) -> FeatureMatrix:
    """Lay out the design matrix from a panel table.

    Column order: enabled numeric columns (rain, temp, pesticides), then the
    item one-hot block, then the country one-hot block, each block in
    lexicographic category order. Target is yield in hg/ha. Row order follows
    the table.
    """
    if len(table) == 0:
        raise EmptyInput("panel table has no rows")
    numeric = cfg.enabled_numeric()
    if not numeric and not cfg.encode_item and not cfg.encode_country:
        raise InvalidConfig("no feature sources enabled")

    names: list[str] = list(numeric)
    onehot: list[bool] = [False] * len(numeric)
    items = table.items() if cfg.encode_item else []
    countries = table.countries() if cfg.encode_country else []
    names += [f"item={it}" for it in items]
    onehot += [True] * len(items)
    names += [f"iso3={c}" for c in countries]
    onehot += [True] * len(countries)

    n, p = len(table), len(names)
    x = np.zeros((n, p))
    item_col = {it: len(numeric) + j for j, it in enumerate(items)}
    country_col = {c: len(numeric) + len(items) + j for j, c in enumerate(countries)}
    for i, row in enumerate(table.rows):
        for j, col in enumerate(numeric):
            x[i, j] = getattr(row, col)
        if cfg.encode_item:
            x[i, item_col[row.item]] = 1.0
        if cfg.encode_country:
            x[i, country_col[row.iso3]] = 1.0

    return FeatureMatrix(
        x=x,
        y=np.array([r.yield_hg_ha for r in table.rows], dtype=float),
        feature_names=tuple(names),
        row_keys=tuple(r.key() for r in table.rows),
        onehot=tuple(onehot),
    )


@dataclass(frozen=True)
class Scaler:
    """Per-column z-score parameters; passthrough columns keep identity."""

    means: np.ndarray
    stds: np.ndarray
    passthrough: tuple[bool, ...]

    def __post_init__(self):
        if not (self.stds > 0).all():
            raise ValueError("scaler stds must be positive")


def fit_scaler(x: np.ndarray, passthrough: Optional[Sequence[bool]] = None) -> Scaler:
    """Column means and sample standard deviations (n-1 denominator).

    Columns flagged in `passthrough` (one-hot indicators) get identity
    parameters and are never checked for zero variance. Any other column with
    zero variance is rejected.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    if n < 2:
        raise EmptyInput(f"need at least 2 rows to fit a scaler, got {n}")
    mask = tuple(bool(b) for b in passthrough) if passthrough is not None else (False,) * p
    if len(mask) != p:
        raise ShapeError(f"passthrough length {len(mask)} != {p} columns")

    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1)
    for j in range(p):
        if mask[j]:
            means[j] = 0.0
            stds[j] = 1.0
        elif stds[j] == 0.0:
            raise ConstantFeature(f"column {j} has zero variance")
    return Scaler(means=means, stds=stds, passthrough=mask)


def apply_scaler(s: Scaler, x: np.ndarray) -> np.ndarray:
    """Transform columns to z-scores; passthrough columns are unchanged."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(s.means):
        raise ShapeError(f"expected {len(s.means)} columns, got shape {x.shape}")
    return (x - s.means) / s.stds


def fsum_columns(stack: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column, so member order cannot change bits."""
    # fsum reads Python floats far faster than numpy scalars, but .tolist() on
    # the whole stack holds ~4x its size: convert _FSUM_BLOCK_CELLS at a time
    stack = np.asarray(stack)
    step = max(1, _FSUM_BLOCK_CELLS // max(1, stack.shape[0]))
    out = np.empty(stack.shape[1])
    for a in range(0, stack.shape[1], step):
        out[a : a + step] = [math.fsum(c) for c in stack[:, a : a + step].T.tolist()]
    return out


def train_test_split(
    m: FeatureMatrix, test_fraction: float, seed: int
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Deterministic shuffled partition into (train, test).

    Test size is round(n * test_fraction) (half away from zero), clamped to
    [1, n-1]. Each part keeps the original row order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InvalidConfig(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = m.n
    if n < 2:
        raise EmptyInput("need at least 2 rows to split")
    n_test = int(math.floor(n * test_fraction + 0.5))
    n_test = min(max(n_test, 1), n - 1)

    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return m.take(train_idx), m.take(test_idx)


__all__ = [
    "ClimateRecord",
    "FaoRecord",
    "PanelRow",
    "PanelTable",
    "FeatureConfig",
    "FeatureMatrix",
    "Scaler",
    "NUMERIC_FEATURES",
    "build_feature_matrix",
    "fit_scaler",
    "apply_scaler",
    "fsum_columns",
    "train_test_split",
]
