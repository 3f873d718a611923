"""Annual aggregation, item frequency, correlation, VIF, plot-data export."""
from __future__ import annotations

import math

import numpy as np
import pytest

from yieldcast.errors import (
    ConstantFeature,
    EmptyInput,
    InvalidData,
    ShapeError,
)
from yieldcast.explore import (
    AnnualSeries,
    CorrMatrix,
    annual_mean,
    emit_plot_data,
    item_frequency,
    pearson_corr_matrix,
    vif,
)
from yieldcast.ingest import parse_cckp_csv, parse_fao_csv


def climate(*rows: str):
    """The columns parse_cckp_csv makes of these Year,Country,ISO3,value rows."""
    return parse_cckp_csv("Year,Country,ISO3,v\n" + "\n".join(rows), "precipitation").records


def fao(*rows: str):
    """The columns parse_fao_csv makes of these Area,Item,Year,Unit,Value rows."""
    return parse_fao_csv("Area,Item,Year,Unit,Value\n" + "\n".join(rows)).records


class TestAnnualMean:
    def test_means_per_year_sorted_ascending(self):
        rows = climate("2001,Kenya,KEN,10", "2000,Kenya,KEN,1",
                       "2001,Afghanistan,AFG,20", "2000,Afghanistan,AFG,3")
        series = annual_mean(rows, "rain_mm")
        assert series.label == "rain_mm"
        assert series.years == (2000, 2001)
        assert series.values == (2.0, 15.0)

    def test_works_for_fao_records_too(self):
        rows = fao("Kenya,P,2000,tonnes,4", "Kenya,P,2000,tonnes,6")
        assert annual_mean(rows, "pesticides_tonnes").values == (5.0,)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            annual_mean(climate(), "rain_mm")

    def test_series_validation(self):
        with pytest.raises(ShapeError):
            AnnualSeries(label="x", years=(2000,), values=(1.0, 2.0))
        with pytest.raises(InvalidData):
            AnnualSeries(label="x", years=(2001, 2000), values=(1.0, 2.0))


class TestItemFrequency:
    def test_sorted_by_count_then_name(self):
        rows = fao(*(f"A,{item},2000,hg/ha,1" for item in
                     ["Wheat", "Maize", "Wheat", "Cassava", "Maize"]))
        assert item_frequency(rows) == [
            ("Maize", 2), ("Wheat", 2), ("Cassava", 1),
        ]

    def test_empty_is_empty(self):
        assert item_frequency(fao()) == []


class TestPearson:
    def test_perfect_correlations(self):
        x = np.array([[1.0, 3.0, 2.0], [2.0, 2.0, 4.0], [3.0, 1.0, 6.0]])
        corr = pearson_corr_matrix(x, ["a", "b", "c"])
        assert corr.lookup("a", "b") == pytest.approx(-1.0, abs=1e-15)
        assert corr.lookup("a", "c") == pytest.approx(1.0, abs=1e-15)
        assert corr.lookup("a", "a") == 1.0

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 4)) * [1.0, 10.0, 100.0, 1000.0]
        corr = pearson_corr_matrix(x, list("abcd"))
        np.testing.assert_allclose(corr.matrix, np.corrcoef(x, rowvar=False),
                                   atol=1e-12)

    def test_constant_column_named_in_error(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0]])
        with pytest.raises(ConstantFeature, match="b"):
            pearson_corr_matrix(x, ["a", "b"])

    def test_input_validation(self):
        with pytest.raises(EmptyInput):
            pearson_corr_matrix(np.ones((1, 2)), ["a", "b"])
        with pytest.raises(ShapeError):
            pearson_corr_matrix(np.ones((3, 2)), ["a"])
        with pytest.raises(InvalidData):
            pearson_corr_matrix(np.array([[1.0, np.nan], [2.0, 3.0]]), ["a", "b"])

    def test_corr_matrix_invariants_enforced(self):
        with pytest.raises(InvalidData):
            CorrMatrix(names=("a", "b"),
                       matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
        with pytest.raises(InvalidData):
            CorrMatrix(names=("a", "b"),
                       matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))  # out of range


class TestVif:
    def test_orthogonal_columns_are_one(self):
        x = np.array([
            [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
        ])
        values = vif(x, ["a", "b"])
        assert values["a"] == pytest.approx(1.0, abs=1e-9)
        assert values["b"] == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_column_is_infinite(self):
        a = np.arange(8.0)
        b = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        values = vif(np.column_stack([a, b, a]), ["a", "b", "a2"])
        assert math.isinf(values["a"]) and math.isinf(values["a2"])
        assert math.isfinite(values["b"])

    def test_correlated_columns_exceed_one(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=100)
        x = np.column_stack([base, base + 0.1 * rng.normal(size=100),
                             rng.normal(size=100)])
        values = vif(x, ["a", "b", "c"])
        assert values["a"] > 10.0 and values["b"] > 10.0
        assert values["c"] < 2.0

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantFeature):
            vif(np.column_stack([np.ones(5), np.arange(5.0)]), ["a", "b"])

    def test_needs_two_columns(self):
        with pytest.raises(InvalidData):
            vif(np.arange(5.0).reshape(-1, 1), ["a"])


class TestEmitPlotData:
    def test_exact_file_contents(self, tmp_path):
        series = AnnualSeries(label="rain_mm", years=(2000, 2001), values=(1.5, 2.5))
        path = tmp_path / "annual.csv"
        emit_plot_data(series, path)
        assert path.read_text(encoding="utf-8") == "year,rain_mm\n2000,1.5\n2001,2.5\n"
