"""Input row rules, feature-matrix layout, scaling, and splitting."""
from __future__ import annotations

import math
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yieldcast import core
from yieldcast.core import (
    FeatureConfig,
    FeatureMatrix,
    PANEL_VALUES,
    PanelTable,
    apply_scaler,
    build_feature_matrix,
    fit_scaler,
    fsum_columns,
    fsum_rows,
    train_test_split,
)
from yieldcast.errors import (
    ConstantFeature,
    EmptyInput,
    InvalidConfig,
    InvalidData,
    ShapeError,
)
from yieldcast.ingest import parse_cckp_csv, parse_fao_csv
from yieldcast.trees import (
    Forest,
    ForestConfig,
    GbmModel,
    Tree,
    predict_forest_batch,
    predict_gbm_batch,
)


def make_row(iso3="AFG", country="Afghanistan", year=2000, item="Maize",
             rain=500.0, temp=15.0, pest=100.0, yld=30000.0):
    """(key, country, values) of one panel row."""
    return (iso3, year, item), country, [rain, temp, pest, yld]


def make_table(*rows) -> PanelTable:
    keys, countries, values = zip(*rows) if rows else ((), (), ())
    values = np.array(values, dtype=float).reshape(len(rows), len(PANEL_VALUES))
    return PanelTable(keys=keys, country=countries, values=values)


def climate_errors(row: str) -> list[tuple[int, str]]:
    """(line, message) of each RowError parse_cckp_csv reports for one data row."""
    result = parse_cckp_csv(f"Year,Country,ISO3,v\n{row}\n", "precipitation")
    return [(e.line, e.message) for e in result.row_errors]


def fao_errors(row: str) -> list[tuple[int, str]]:
    """(line, message) of each RowError parse_fao_csv reports for one data row."""
    return [(e.line, e.message)
            for e in parse_fao_csv(f"Area,Item,Year,Unit,Value\n{row}\n").row_errors]


class TestRecords:
    """The rules each parsed climate or FAO row must meet, and their messages."""

    def test_climate_record_accepts_valid(self):
        rows = parse_cckp_csv("Year,Country,ISO3,v\n1901,Kenya,KEN,750.25\n",
                              "precipitation").records
        assert (rows.year.tolist(), rows.iso3, rows.value.tolist()) == ([1901], ["KEN"], [750.25])

    @pytest.mark.parametrize("iso3", ["ke", "KENY", "K3N", "ken"])
    def test_climate_record_rejects_bad_iso3(self, iso3):
        assert climate_errors(f"2000,Kenya,{iso3},1.0") == [(2, f"bad ISO3 code: {iso3!r}")]

    @pytest.mark.parametrize("year", [1900, 2101, -5])
    def test_climate_record_rejects_out_of_range_year(self, year):
        assert climate_errors(f"{year},Kenya,KEN,1.0") == [
            (2, f"year {year} outside [1901, 2100]")
        ]

    @pytest.mark.parametrize("cell", ["2_000", "+2000", " +2000", "\u0662\u0660\u0660\u0660"],
                             ids=["2_000", "+2000", "blank+2000", "arabic-indic"])
    def test_climate_year_must_be_plain_digits(self, cell):
        assert climate_errors(f"{cell},Kenya,KEN,1.0") == [
            (2, f"year {cell!r} is not plain ASCII digits")
        ]

    @pytest.mark.parametrize("cell, message", [
        ("99999", "year 99999 outside [1901, 2100]"),
        ("-5", "year -5 outside [1901, 2100]"),
        ("1900", "year 1900 outside [1901, 2100]"),
        ("2_000", "year '2_000' is not plain ASCII digits"),
        ("+2000", "year '+2000' is not plain ASCII digits"),
        ("\u0662\u0660\u0660\u0660", "year '\u0662\u0660\u0660\u0660' is not plain ASCII digits"),
    ], ids=["99999", "-5", "1900", "2_000", "+2000", "arabic-indic"])
    def test_fao_record_rejects_bad_year(self, cell, message):
        # the year rule runs after the unit rule and before the value rules
        assert fao_errors(f"Kenya,Maize,2000,hg/ha,1.0\nKenya,Maize,{cell},hg/ha,1.0") == [
            (3, message)
        ]
        assert fao_errors(f"Kenya,Maize,{cell},kg/ha,-1.0") == [(2, "unknown unit: 'kg/ha'")]
        assert fao_errors(f"Kenya,Maize,{cell},hg/ha,-1.0") == [(2, message)]

    def test_years_in_plain_digits_with_blanks_are_kept(self):
        fao = parse_fao_csv("Area,Item,Year,Unit,Value\nKenya,Maize, 2000 ,hg/ha,1.0\n")
        climate = parse_cckp_csv("Year,Country,ISO3,v\n 1901 ,Kenya,KEN,1.0\n", "temperature")
        assert (fao.row_errors, fao.records.year) == ((), array("l", [2000]))
        assert (climate.row_errors, climate.records.year) == ((), array("l", [1901]))

    def test_fao_record_rejects_unknown_unit(self):
        assert fao_errors("Kenya,Maize,2000,kg/ha,1.0") == [(2, "unknown unit: 'kg/ha'")]

    def test_fao_record_rejects_negative_value(self):
        assert fao_errors("Kenya,Maize,2000,hg/ha,-1.0") == [(2, "negative value: -1.0")]


class TestPanelTable:
    def test_keys_and_country_columns(self):
        table = make_table(make_row(), make_row(iso3="KEN", country="Kenya"))
        assert table.keys == (("AFG", 2000, "Maize"), ("KEN", 2000, "Maize"))
        assert table.country == ("Afghanistan", "Kenya")
        assert table.values.tolist() == [[500.0, 15.0, 100.0, 30000.0]] * 2

    def test_rejects_nonfinite_and_negative(self):
        for column in ("rain", "temp", "pest", "yld"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="non-finite"):
                    make_table(make_row(), make_row(year=2001, **{column: value}))
        for column in ("pest", "yld"):
            with pytest.raises(ValueError, match="negative"):
                make_table(make_row(**{column: -1.0}))
        # rainfall and temperature may be negative
        assert make_table(make_row(rain=-0.0, temp=-12.5)).values[0, 1] == -12.5

    def test_requires_sorted_rows(self):
        with pytest.raises(ValueError, match="sorted"):
            make_table(make_row(year=2001), make_row(year=2000))

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_table(make_row(), make_row(yld=999.0))

    @pytest.mark.parametrize("drop", ["keys", "country", "values"])
    def test_rejects_unequal_lengths(self, drop):
        columns = {"keys": (("AFG", 2000, "Maize"), ("AFG", 2001, "Maize")),
                   "country": ("Afghanistan",) * 2, "values": np.ones((2, 4))}
        columns[drop] = columns[drop][:1]
        with pytest.raises(ValueError, match="disagree"):
            PanelTable(**columns)

    def test_rejects_values_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="disagree"):
            PanelTable(keys=(("AFG", 2000, "Maize"),), country=("Afghanistan",),
                       values=np.ones((1, 3)))

    def test_values_are_a_read_only_copy(self):
        values = np.array([[500.0, 15.0, 100.0, 30000.0]])
        table = PanelTable(keys=(("AFG", 2000, "Maize"),), country=("Afghanistan",),
                           values=values)
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0
        values[0, 0] = 1.0  # the caller's array stays writable and apart
        assert table.values[0, 0] == 500.0

    def test_accessors(self):
        table = make_table(
            make_row(iso3="AFG", item="Wheat", year=2000),
            make_row(iso3="KEN", country="Kenya", item="Maize", year=1995),
            make_row(iso3="KEN", country="Kenya", item="Maize", year=2003),
        )
        assert len(table) == 3
        assert table.items() == ["Maize", "Wheat"]
        assert table.countries() == ["AFG", "KEN"]
        assert table.year_range() == (1995, 2003)


class TestFeatureConfig:
    def test_defaults(self):
        cfg = FeatureConfig()
        assert cfg.encode_item and not cfg.encode_country


class TestBuildFeatureMatrix:
    @pytest.fixture()
    def table(self):
        return make_table(
            make_row(iso3="AFG", item="Maize", rain=400.0, temp=14.0, pest=50.0, yld=10000.0),
            make_row(iso3="AFG", item="Wheat", rain=400.0, temp=14.0, pest=50.0, yld=20000.0),
            make_row(iso3="KEN", country="Kenya", item="Maize", rain=900.0, temp=22.0, pest=75.0, yld=15000.0),
        )

    def test_column_layout_numeric_then_item_block(self, table):
        m = build_feature_matrix(table, FeatureConfig())
        assert m.feature_names == (
            "rain_mm", "temp_c", "pesticides_tonnes", "item=Maize", "item=Wheat",
        )
        assert m.onehot == (False, False, False, True, True)
        np.testing.assert_array_equal(m.x[0], [400.0, 14.0, 50.0, 1.0, 0.0])
        np.testing.assert_array_equal(m.x[1], [400.0, 14.0, 50.0, 0.0, 1.0])
        np.testing.assert_array_equal(m.y, [10000.0, 20000.0, 15000.0])
        assert m.row_keys[0] == ("AFG", 2000, "Maize")

    def test_country_block_appended_after_items(self, table):
        m = build_feature_matrix(table, FeatureConfig(encode_country=True))
        assert m.feature_names[-2:] == ("iso3=AFG", "iso3=KEN")
        np.testing.assert_array_equal(m.x[2, -2:], [0.0, 1.0])

    def test_numeric_only_when_item_encoding_off(self, table):
        m = build_feature_matrix(table, FeatureConfig(encode_item=False))
        assert m.feature_names == ("rain_mm", "temp_c", "pesticides_tonnes")
        assert m.onehot == (False, False, False)

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyInput):
            build_feature_matrix(make_table(), FeatureConfig())

    def test_take_preserves_metadata(self, table):
        m = build_feature_matrix(table, FeatureConfig())
        sub = m.take(np.array([2, 0]))
        assert sub.n == 2 and sub.feature_names == m.feature_names
        assert sub.row_keys == (m.row_keys[2], m.row_keys[0])
        np.testing.assert_array_equal(sub.x[0], m.x[2])


class TestScaler:
    def test_mean_and_sample_std_oracle(self):
        s = fit_scaler(np.array([[0.0], [2.0]]))
        assert s.means[0] == 1.0
        assert s.stds[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_apply_then_invert_roundtrip(self):
        x = np.array([[1.0, 10.0], [2.0, 30.0], [4.0, 20.0]])
        s = fit_scaler(x)
        z = apply_scaler(s, x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z * s.stds + s.means, x, rtol=1e-12)

    def test_passthrough_columns_keep_identity(self):
        x = np.array([[5.0, 1.0], [7.0, 1.0]])
        s = fit_scaler(x, passthrough=[False, True])
        assert (s.means[1], s.stds[1]) == (0.0, 1.0)
        np.testing.assert_array_equal(apply_scaler(s, x)[:, 1], x[:, 1])

    def test_constant_column_rejected_unless_passthrough(self):
        x = np.array([[5.0, 1.0], [7.0, 1.0]])
        with pytest.raises(ConstantFeature):
            fit_scaler(x)

    def test_single_row_rejected(self):
        with pytest.raises(EmptyInput):
            fit_scaler(np.array([[1.0, 2.0]]))

    def test_bad_passthrough_length(self):
        with pytest.raises(ShapeError):
            fit_scaler(np.eye(3), passthrough=[True])

    def test_apply_wrong_width(self):
        s = fit_scaler(np.array([[0.0], [2.0]]))
        with pytest.raises(ShapeError):
            apply_scaler(s, np.zeros((2, 2)))

    @given(st.integers(0, 10**6))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 3)) * rng.uniform(0.1, 100.0, size=3)
        x[:, 0] += np.arange(5)  # guarantee variance
        s = fit_scaler(x)
        z = apply_scaler(s, x)
        np.testing.assert_allclose(z * s.stds + s.means, x, rtol=1e-10, atol=1e-10)


def grid_matrix(n: int) -> FeatureMatrix:
    return FeatureMatrix(
        x=np.arange(n, dtype=float).reshape(-1, 1),
        y=np.arange(n, dtype=float),
        feature_names=("f0",),
        row_keys=tuple(("AAA", 1990, f"row{i:04d}") for i in range(n)),
        onehot=(False,),
    )


class TestTrainTestSplit:
    def test_size_rounds_half_away_from_zero(self):
        train, test = train_test_split(grid_matrix(10), 0.25, seed=0)
        assert (train.n, test.n) == (7, 3)  # 2.5 rounds up to 3

    def test_partition_preserves_row_order(self):
        m = grid_matrix(20)
        train, test = train_test_split(m, 0.3, seed=1)
        got = sorted(train.row_keys + test.row_keys)
        assert got == list(m.row_keys)
        assert list(train.x[:, 0]) == sorted(train.x[:, 0])
        assert list(test.x[:, 0]) == sorted(test.x[:, 0])
        assert not set(train.row_keys) & set(test.row_keys)

    def test_clamps_to_one_row_each_side(self):
        train, test = train_test_split(grid_matrix(4), 0.01, seed=0)
        assert test.n == 1
        train, test = train_test_split(grid_matrix(4), 0.99, seed=0)
        assert train.n == 1

    def test_deterministic_per_seed(self):
        m = grid_matrix(30)
        a = train_test_split(m, 0.2, seed=7)
        b = train_test_split(m, 0.2, seed=7)
        assert a[1].row_keys == b[1].row_keys
        c = train_test_split(m, 0.2, seed=8)
        assert a[1].row_keys != c[1].row_keys

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        with pytest.raises(InvalidConfig):
            train_test_split(grid_matrix(4), fraction, seed=0)


BIG = np.finfo(float).max  # its ulp is 2^971


def _sum_column(rng, family, m):
    """m members of one column of a `family` of hard cases for exact sums."""
    def pick(values):
        return rng.choice(np.array(values, dtype=float), size=m)

    if family == "wide":  # exponents from 1e-300 to 1e300
        return rng.normal(size=m) * 10.0 ** rng.integers(-300, 301, size=m)
    if family == "ties":  # many sums land exactly half an ulp from two floats
        half_ulp, tiny = 2.0**-53, 2.0**-106  # of 1.0
        scale = 2.0 ** int(rng.integers(-60, 61))
        return scale * pick([1.0, 1.0, half_ulp, -half_ulp, 3 * half_ulp, half_ulp / 2,
                             tiny, -tiny])
    if family == "cancel":  # x and -x, and a tiny residue
        half = rng.normal(size=m // 2) * 10.0 ** rng.integers(-20, 21, size=m // 2)
        rest = rng.normal(size=m % 2) * 1e-30
        return rng.permutation(np.concatenate([half, -half, rest]))
    if family == "zeros":
        return pick([0.0, -0.0])
    if family == "subnormal":
        return rng.integers(-3, 4, size=m) * 5e-324 + pick([0.0, 0.0, 2.0**-1022, -(2.0**-1022)])
    if family == "huge":  # sums past the float range, or within an ulp of it
        return pick([BIG, -BIG, 2.0**1023, -(2.0**1023), 2.0**970, -(2.0**970), 2.0**969, 1.0])
    return pick([np.inf, -np.inf, np.nan, 1.0, -0.0])  # "special"


FAMILIES = ["wide", "ties", "cancel", "zeros", "subnormal", "huge", "special"]


@st.composite
def sum_stacks(draw):
    m = draw(st.sampled_from([0, 1, 2, 3, 8, 101, 130]))
    families = draw(st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.empty((m, len(families)))
    for j, family in enumerate(families):
        stack[:, j] = _sum_column(rng, family, m)
    return stack


def fsum_oracle(stack):
    """Per-column math.fsum, or the error type of the first column it fails."""
    out = []
    for column in stack.T.tolist():
        try:
            out.append(math.fsum(column))
        except OverflowError:
            return InvalidData
        except ValueError:
            return ValueError
    return np.array(out, dtype=float)


def overwritten(stack):
    """The rows of stack one at a time, through one buffer that is
    overwritten between members, as the tree routers overwrite theirs."""
    buffer = np.empty(stack.shape[1])
    for row in stack:
        buffer[:] = row
        yield buffer
    buffer[:] = np.nan


def column_tree(values) -> Tree:
    """A tree that predicts values[j] for the row [j]: a chain of splits."""
    nodes = []  # [feature, threshold, left, right, value, n_samples], in preorder
    for j, v in enumerate(values[:-1]):
        at = len(nodes)
        nodes += [[0, j + 0.5, at + 1, at + 2, 0.0, 0], [-1, 0.0, -1, -1, v, 1]]
    nodes.append([-1, 0.0, -1, -1, values[-1], 1])
    return Tree.from_records(nodes)


def member_sums(stack):
    """(entry point, its sum of stack's columns, what it gives for the
    columns' exact sums s): the stack; its rows one at a time; and, when
    every member is finite, a forest's and a GBM's member trees."""
    m, n = stack.shape
    sums = [
        ("stack", lambda: fsum_columns(stack), lambda s: s),
        ("rows", lambda: fsum_rows(overwritten(stack), n, lambda cols: stack[:, cols]),
         lambda s: s),
    ]
    if m and np.isfinite(stack).all():
        trees = tuple(column_tree(row) for row in stack.tolist())
        x = np.arange(n, dtype=float)[:, None]
        forest = Forest(trees=trees, config=ForestConfig(n_trees=m))
        gbm = GbmModel(init_value=0.5, stages=trees, learning_rate=0.25)
        sums += [
            ("forest", lambda: predict_forest_batch(forest, x), lambda s: s / m),
            ("gbm", lambda: predict_gbm_batch(gbm, x), lambda s: 0.5 + 0.25 * s),
        ]
    return sums


# Member stacks whose middle columns fall back to math.fsum: a sum within an
# ulp of overflow, and members that cancel to a tiny residue
FOREST_FALLBACK = np.array([
    [1.0, BIG, 1.0, 0.5],
    [2.0, 2.0**969, 2.0**-53, 0.25],
    [3.0, -(2.0**969), 2.0**-106, 0.125],
    [4.0, 0.0, -1.0, 0.0625],
])
GBM_FALLBACK = np.array([
    [0.1, 1.0, 2.0**-60, -BIG, 7.0],
    [0.2, 2.0**-53, 1.0, 2.0**970, 8.0],
    [0.3, 2.0**-106, -1.0, -(2.0**970), 9.0],
    [0.4, -1.0, 3.0, 0.0, 10.0],
])


class TestFsumColumns:
    @staticmethod
    def oracle(stack):
        return [math.fsum(stack[:, j]) for j in range(stack.shape[1])]

    @pytest.mark.parametrize("shape", [(1, 37), (37, 1), (7, 40), (3, 1000)])
    def test_equals_per_column_fsum_across_blocks(self, monkeypatch, shape):
        # 64 cells a block: 1 to 64 columns per block, the last one ragged
        monkeypatch.setattr(core, "_FSUM_BLOCK_CELLS", 64)
        rng = np.random.default_rng(1)
        stack = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        assert fsum_columns(stack).tolist() == self.oracle(stack)

    def test_wider_than_one_default_block(self):
        rng = np.random.default_rng(2)
        stack = rng.normal(size=(3, core._FSUM_BLOCK_CELLS))
        assert fsum_columns(stack).tolist() == self.oracle(stack)

    def test_cancelling_values_sum_exactly(self):
        stack = np.array([[1e16, 1.0, 3.0], [1.0, -1e16, 0.1], [-1e16, 1e16, 0.2]])
        assert fsum_columns(stack).tolist() == [1.0, 1.0, math.fsum([3.0, 0.1, 0.2])]
        assert sum([3.0, 0.1, 0.2]) != math.fsum([3.0, 0.1, 0.2])

    @settings(max_examples=400)
    @given(sum_stacks(), st.sampled_from([1, 5, 64, core._FSUM_BLOCK_CELLS]))
    @example(FOREST_FALLBACK, 1)
    @example(FOREST_FALLBACK, 5)
    @example(GBM_FALLBACK, 1)
    @example(GBM_FALLBACK, 5)
    def test_bits_and_errors_equal_math_fsum(self, stack, cells):
        # small blocks split the columns math.fsum sums anywhere; the trees
        # route again only the rows whose columns fall back
        expected = fsum_oracle(stack)
        for name, total, of_sums in member_sums(stack):
            with mock.patch.object(core, "_FSUM_BLOCK_CELLS", cells):
                if isinstance(expected, type):
                    with pytest.raises((InvalidData, ValueError)) as err:
                        total()
                    assert type(err.value) is expected, name
                else:
                    assert total().tobytes() == of_sums(expected).tobytes(), name
