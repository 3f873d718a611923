"""Panel-data model, feature-matrix construction, standardization, splitting.

The raw CSV rows never reach this module: `ingest` parses them into columns,
checks them there, and merges them into the PanelTable defined here.
Everything here is immutable after construction and safe to share across
threads. Rows are keyed by (iso3, year, item) and kept in sorted key order so
downstream results never depend on source-file row order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConstantFeature,
    EmptyInput,
    InsufficientRows,
    InvalidConfig,
    InvalidData,
    ShapeError,
)

NUMERIC_FEATURES = ("rain_mm", "temp_c", "pesticides_tonnes")
# the columns of PanelTable.values: the numeric features, then the target
PANEL_VALUES = (*NUMERIC_FEATURES, "yield_hg_ha")
_PESTICIDES, _YIELD = map(PANEL_VALUES.index, ("pesticides_tonnes", "yield_hg_ha"))
# cells that `fsum_columns` turns into Python floats at a time, for
# math.fsum of the columns it cannot certify
_FSUM_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PanelTable:
    """Merged panel, one crop in one country-year per row, held as columns.

    `keys` are the rows' (iso3, year, item) tuples, sorted and unique;
    `country` names each row's country; `values` (any array-like, kept as
    a read-only float copy) has one row per key and columns in PANEL_VALUES
    order.
    """

    keys: tuple[tuple[str, int, str], ...]
    country: tuple[str, ...]
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        n = len(self.keys)
        if len(self.country) != n or values.shape != (n, len(PANEL_VALUES)):
            raise ValueError(f"panel columns disagree: {n} keys, values {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("non-finite value in panel")
        if (values[:, [_PESTICIDES, _YIELD]] < 0).any():
            raise ValueError("negative pesticides or yield in panel")
        for a, b in pairwise(self.keys):
            if not a < b:
                problem = "duplicate key" if a == b else "rows not sorted by (iso3, year, item) at"
                raise ValueError(f"panel {problem} {b}")

    def __len__(self) -> int:
        return len(self.keys)

    def items(self) -> list[str]:
        return sorted({item for _, _, item in self.keys})

    def countries(self) -> list[str]:
        return sorted({iso3 for iso3, _, _ in self.keys})

    def year_range(self) -> tuple[int, int]:
        years = [year for _, year, _ in self.keys]
        return (min(years), max(years))


@dataclass(frozen=True)
class FeatureConfig:
    """Which columns enter the design matrix.

    One-hot blocks encode crop item and country identity; they are appended
    after the numeric columns and flagged so standardization skips them.
    """

    encode_item: bool = True
    encode_country: bool = False


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

    Column order: the numeric columns (rain, temp, pesticides), then the
    item one-hot block, then the country one-hot block, each block in
    lexicographic category order. Target is yield in hg/ha. Row order follows
    the table.
    """
    if len(table) == 0:
        raise EmptyInput("panel table has no rows")
    names = list(NUMERIC_FEATURES)
    blocks = [table.values[:, : len(NUMERIC_FEATURES)]]
    # (name prefix, key part, categories) of each one-hot block
    onehots = [("item", 2, table.items())] if cfg.encode_item else []
    onehots += [("iso3", 0, table.countries())] if cfg.encode_country else []
    for prefix, part, cats in onehots:
        names += [f"{prefix}={c}" for c in cats]
        blocks.append(np.array([key[part] for key in table.keys])[:, None] == np.array(cats))

    return FeatureMatrix(
        x=np.hstack(blocks, dtype=float),
        y=table.values[:, _YIELD].copy(),
        feature_names=tuple(names),
        row_keys=table.keys,
        onehot=tuple(j >= len(NUMERIC_FEATURES) for j in range(len(names))),
    )


@dataclass(frozen=True)
class Scaler:
    """Per-column z-score parameters; passthrough columns keep identity."""

    means: np.ndarray
    stds: np.ndarray
    passthrough: tuple[bool, ...]

    def __post_init__(self):
        p = len(self.passthrough)
        if np.shape(self.means) != (p,) or np.shape(self.stds) != (p,):
            raise ValueError("scaler means, stds and passthrough must be 1-d and of one length")
        if not (np.isfinite(self.means).all() and np.isfinite(self.stds).all()):
            raise ValueError("scaler means and stds must be finite")
        if not (self.stds > 0).all():
            raise ValueError("scaler stds must be positive")


def float_matrix(x) -> np.ndarray:
    """x as a float array, which must be 2-d (rows x columns): else ShapeError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"x must be 2-d, got shape {x.shape}")
    return x


def training_pair(x, y, what: str, min_rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a fit's input: (x, y) as float arrays. Raises
    ShapeError unless x is 2-d with one row per value of a 1-d y,
    InsufficientRows below `min_rows` rows, and InvalidData for any
    non-finite value; the messages name `what` is fit."""
    x = float_matrix(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise ShapeError(f"y shape {y.shape} does not match x rows {x.shape[0]}")
    if len(y) < min_rows:
        raise InsufficientRows(f"{what} needs at least {min_rows} rows, got {len(y)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidData(f"non-finite values in {what} input")
    return x, y


def fit_scaler(x: np.ndarray, passthrough: Optional[Sequence[bool]] = None) -> Scaler:
    """Column means and sample standard deviations (n-1 denominator).

    Columns flagged in `passthrough` (one-hot indicators) get identity
    parameters and are never checked for zero variance. Any other column with
    zero variance is rejected, and so is one whose std passes the float range.
    """
    x = float_matrix(x)
    n, p = x.shape
    if n < 2:
        raise EmptyInput(f"need at least 2 rows to fit a scaler, got {n}")
    mask = tuple(bool(b) for b in passthrough) if passthrough is not None else (False,) * p
    if len(mask) != p:
        raise ShapeError(f"passthrough length {len(mask)} != {p} columns")

    with np.errstate(over="ignore", invalid="ignore"):  # stds are checked below
        means = x.mean(axis=0)
        stds = x.std(axis=0, ddof=1)
    for j in range(p):
        if mask[j]:
            means[j] = 0.0
            stds[j] = 1.0
        elif stds[j] == 0.0:
            raise ConstantFeature(f"column {j} has zero variance")
        elif not np.isfinite(stds[j]):
            raise InvalidData(f"column {j} is too large to standardize")
    return Scaler(means=means, stds=stds, passthrough=mask)


def apply_scaler(s: Scaler, x: np.ndarray) -> np.ndarray:
    """Transform columns to z-scores; passthrough columns are unchanged."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(s.means):
        raise ShapeError(f"expected {len(s.means)} columns, got shape {x.shape}")
    return (x - s.means) / s.stds


def _two_sum(a, b, total, err, tmp) -> None:
    """Knuth's TwoSum into buffers: total = fl(a + b) and err = a + b - total
    exactly, barring overflow. err may be b; total and tmp alias neither."""
    np.add(a, b, out=total)
    np.subtract(total, a, out=tmp)
    np.subtract(b, tmp, out=err)
    np.subtract(total, tmp, out=tmp)
    np.subtract(a, tmp, out=tmp)
    np.add(tmp, err, out=err)


def fsum_rows(
    rows: Iterable[np.ndarray], n: int, columns: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Correctly rounded sum of each of n columns whose members come one row
    at a time, equal bit for bit to math.fsum of the column, so member order
    cannot change bits. `rows` yields each member's n values, and may
    overwrite them once asked for the next member; `columns(idx)` gives the
    (members x len(idx)) member values of just the columns idx, for those
    this pass cannot certify. Finite members whose sum passes the float range
    raise InvalidData; +inf and -inf in one column raise fsum's ValueError.

    One pass over the m members with whole-row vector ops (Ogita, Rump and
    Oishi, "Accurate sum and dot product", 2005), u = 2^-53: TwoSum gives
    the float running sum s and each step's exact error q; a second TwoSum
    adds q into e with exact error q2, and e2 sums |q2| in floats. Then
    (r, t) = TwoSum(s, e), so the exact sum is S = r + t + E2, where
    |E2| <= Q = sum |q2|. fsum returns RN(S), and a column takes r when:
      - e2 == 0: every q2 is 0, so S = s + e and r = fl(s + e) is its one
        round to nearest even, ties included; or
      - |t| + Q < h, half the smaller gap from r to a float neighbour: S
        then lies strictly inside r's rounding interval. e2 adds m - 1
        terms >= 0 with m - 2 roundings, so Q <= e2 (1 - u)^-(m-2) <=
        e2 (1 + 2mu). The product e2 c, c = 1 + (2m + 2) u, rounds down by
        at most a factor (1 - u), which c covers, or by 2^-1075 when it
        underflows, which adding 2^-1074 (exact there) covers; so
        D = fl(fl(e2 c) + 2^-1074) >= Q. Rounding is monotone and h is a
        float, so fl(|t| + D) < h gives |t| + Q < h. The gaps are exact
        differences of neighbours; halving the least one, 2^-1074, gives 0,
        which certifies nothing.
    Both cases also need A = fl(sum |a|) < 2^1021, so the exact sum of |a|
    is below 2^1022: neither this pass nor fsum's partials can then
    overflow, and a NaN or inf member fails it, as NaN fails every test.
    The other columns, and only they, go to math.fsum. The pass holds a few
    rows of n floats, whatever m is.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return np.zeros(n)
    s, e, e2, a_sum = np.array(first, dtype=float), np.zeros(n), np.zeros(n), np.abs(first)
    x, q, tmp = np.empty(n), np.empty(n), np.empty(n)
    m = 1
    with np.errstate(over="ignore", invalid="ignore"):  # such columns are not certified
        for a in rows:
            m += 1
            _two_sum(s, a, x, q, tmp)
            s, x = x, s
            _two_sum(e, q, x, q, tmp)
            e, x = x, e
            e2 += np.abs(q, out=q)
            a_sum += np.abs(a, out=tmp)
        r, t = x, q
        _two_sum(s, e, r, t, tmp)
        half_gap = np.minimum(r - np.nextafter(r, -np.inf), np.nextafter(r, np.inf) - r)
        half_gap *= 0.5
        bound = np.abs(t) + (e2 * (1 + (2 * m + 2) * 2.0**-53) + 2.0**-1074)
        certified = (a_sum < 2.0**1021) & ((e2 == 0) | (bound < half_gap))
    out = r + 0.0  # fsum gives +0.0 for a zero sum
    # fsum reads Python floats far faster than numpy scalars, but .tolist() on
    # many columns holds ~4x their size: convert _FSUM_BLOCK_CELLS at a time
    rest = np.flatnonzero(~certified)
    step = max(1, _FSUM_BLOCK_CELLS // m)
    try:
        for i in range(0, len(rest), step):
            cols = rest[i : i + step]
            out[cols] = [math.fsum(c) for c in columns(cols).T.tolist()]
    except OverflowError as exc:  # finite members whose sum passes the float range
        raise InvalidData("member predictions sum past the float range") from exc
    return out


def fsum_columns(stack: np.ndarray) -> np.ndarray:
    """fsum_rows of the rows of a (members x columns) stack: each column's
    math.fsum, bit for bit."""
    stack = np.ascontiguousarray(stack, dtype=float)
    return fsum_rows(stack, stack.shape[1], lambda cols: stack[:, cols])


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
    "PanelTable",
    "FeatureConfig",
    "FeatureMatrix",
    "Scaler",
    "NUMERIC_FEATURES",
    "PANEL_VALUES",
    "build_feature_matrix",
    "float_matrix",
    "training_pair",
    "fit_scaler",
    "apply_scaler",
    "fsum_columns",
    "fsum_rows",
    "train_test_split",
]
