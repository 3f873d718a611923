"""CSV parsing, country-name normalization, and the four-way panel merge."""
from __future__ import annotations

import json
from array import array
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ingest_oracles as oracle
import synth
from conftest import parse_snapshot
from yieldcast.core import PANEL_VALUES
from yieldcast.errors import EmptyJoin, FormatError, InvalidConfig, YieldcastError
from yieldcast.ingest import (
    PESTICIDE_ITEM,
    ClimateColumns,
    CountryAliasMap,
    FaoColumns,
    merge_panel,
    normalize_country,
    parse_cckp_csv,
    parse_fao_csv,
)
from yieldcast.persist import canonical_json

ALIASES = CountryAliasMap.from_csv(
    "source_name,iso3\n"
    "Kenya,KEN\n"
    "Republic of Kenya,KEN\n"
    "Afghanistan,AFG\n"
    "Mexico,MEX\n"
)


class TestParseCckp:
    def test_happy_path(self):
        result = parse_cckp_csv(
            "Year,Country,ISO3,Rainfall - (MM)\n"
            "2000,Kenya,KEN,630.5\n"
            "2001,Kenya,KEN,702.25\n",
            "precipitation",
        )
        assert result.row_errors == () and result.warnings == ()
        assert result.records == ClimateColumns(
            year=array("l", [2000, 2001]), country=["Kenya", "Kenya"],
            iso3=["KEN", "KEN"], value=array("d", [630.5, 702.25]),
        )

    def test_value_column_selected_by_position(self):
        result = parse_cckp_csv(
            "Year,Country,ISO3,Annual Mean Temp\n2000,Kenya,KEN,24.5\n",
            "temperature",
        )
        assert result.records.value.tolist() == [24.5]

    def test_bom_and_bytes_accepted(self):
        data = "﻿Year,Country,ISO3,v\n2000,Kenya,KEN,1.0\n".encode("utf-8")
        assert len(parse_cckp_csv(data, "precipitation").records) == 1

    def test_unknown_variable_kind(self):
        with pytest.raises(InvalidConfig):
            parse_cckp_csv("Year,Country,ISO3,v\n", "rain")

    def test_empty_file_is_format_error(self):
        with pytest.raises(FormatError, match="header"):
            parse_cckp_csv("", "precipitation")

    def test_wrong_header_is_format_error(self):
        with pytest.raises(FormatError):
            parse_cckp_csv("Country,Year,ISO3,v\n", "precipitation")
        with pytest.raises(FormatError):
            parse_cckp_csv("Year,Country,ISO3\n", "precipitation")

    def test_bad_rows_collected_not_fatal(self):
        result = parse_cckp_csv(
            "Year,Country,ISO3,v\n"
            "2000,Kenya,KEN,1.5\n"
            "20x0,Kenya,KEN,1.5\n"     # bad year
            "2001,Kenya,K1N,1.5\n"     # bad ISO3
            "2002,Kenya\n"             # short row
            "\n"                       # blank: skipped silently
            "2003,Kenya,KEN,2.5\n",
            "precipitation",
        )
        assert result.records.year.tolist() == [2000, 2003]
        assert [e.line for e in result.row_errors] == [3, 4, 5]

    def test_header_only_warns(self):
        result = parse_cckp_csv("Year,Country,ISO3,v\n", "temperature")
        assert len(result.records) == 0 and len(result.warnings) == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_is_row_error(self, cell):
        result = parse_cckp_csv(
            f"Year,Country,ISO3,v\n2000,Kenya,KEN,{cell}\n2001,Kenya,KEN,2.5\n",
            "precipitation",
        )
        assert result.records.year.tolist() == [2001]
        assert [(e.line, e.message) for e in result.row_errors] == [
            (2, f"non-finite value: {float(cell)}")
        ]


class TestParseFao:
    def test_happy_path(self):
        result = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            'Kenya,"Rice, paddy",2000,hg/ha,42000\n'
            "Kenya,Pesticides (total),2000,tonnes,125.5\n"
        )
        assert result.records == FaoColumns(
            area=["Kenya", "Kenya"], item=["Rice, paddy", "Pesticides (total)"],
            year=array("l", [2000, 2000]), unit=["hg/ha", "tonnes"],
            value=array("d", [42000.0, 125.5]),
        )

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_fao_csv("Area,Item,Year,Value\nKenya,Maize,2000,1\n")

    def test_row_level_rejections(self):
        result = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            "Kenya,Maize,2000,kg/ha,5\n"    # unknown unit
            "Kenya,Maize,2000,hg/ha,-5\n"   # negative
            "Kenya,Maize,2000,hg/ha,abc\n"  # non-numeric
            "Kenya,Maize,2000,hg/ha,7\n"
        )
        assert result.records.value.tolist() == [7.0]
        assert [(e.line, e.message) for e in result.row_errors] == [
            (2, "unknown unit: 'kg/ha'"),
            (3, "negative value: -5.0"),
            (4, "could not convert string to float: 'abc'"),
        ]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_row_error(self, cell):
        result = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            f"Kenya,Maize,2000,hg/ha,{cell}\n"
            f"Kenya,Pesticides (total),2000,tonnes,{cell}\n"
            "Kenya,Maize,2001,hg/ha,7\n"
        )
        assert result.records.value.tolist() == [7.0]
        message = f"non-finite value: {float(cell)}"
        assert [(e.line, e.message) for e in result.row_errors] == [(2, message), (3, message)]


class TestRecords:
    """Parsed rows are held as columns that share their strings."""

    def test_equal_strings_are_one_object(self):
        fao = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            "Kenya,Maize,2000,hg/ha,15000\n"
            " Kenya , Maize ,2001, hg/ha ,16000\n"
            "Mexico,Maize,2000,tonnes,7\n"
        ).records
        climate = parse_cckp_csv(
            "Year,Country,ISO3,v\n2000,Kenya,KEN,630.5\n2001, Kenya , KEN ,702.25\n",
            "precipitation",
        ).records
        assert fao.area[0] is fao.area[1] and fao.unit[0] is fao.unit[1]
        assert fao.item[0] is fao.item[1] is fao.item[2]
        assert climate.country[0] is climate.country[1] and climate.iso3[0] is climate.iso3[1]

    def test_length_counts_the_parsed_rows(self):
        fao = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            "Kenya,Maize,2000,hg/ha,15000\n"
            "Kenya,Maize,2001,kg/ha,16000\n"   # refused: not counted
            "Mexico,Maize,2000,tonnes,7\n"
        )
        climate = parse_cckp_csv(
            "Year,Country,ISO3,v\n2000,Kenya,KEN,630.5\n2001,Kenya\n", "precipitation"
        )
        assert (len(fao.records), len(fao.row_errors)) == (2, 1)
        assert (len(climate.records), len(climate.row_errors)) == (1, 1)


HEADERS = {
    "cckp": "Year,Country,ISO3,v\n",
    "fao": "Area,Item,Year,Unit,Value\n",
    "aliases": "source_name,iso3\n",
}
PARSERS = {
    "cckp": lambda data: parse_cckp_csv(data, "precipitation"),
    "fao": parse_fao_csv,
    "aliases": CountryAliasMap.from_csv,
}
OVERSIZED = "2000,Kenya,KEN," + "9" * 131_073 + "\n"


class TestSharedReader:
    """The row rules every input CSV shares."""

    @pytest.mark.parametrize("dialect", sorted(PARSERS))
    def test_oversized_field_names_its_line(self, dialect):
        with pytest.raises(FormatError, match="^line 3: field larger than field limit"):
            PARSERS[dialect](HEADERS[dialect] + "\n" + OVERSIZED)

    @pytest.mark.parametrize("dialect", sorted(PARSERS))
    def test_lone_carriage_returns_are_a_format_error(self, dialect):
        with pytest.raises(FormatError, match="new-line character"):
            PARSERS[dialect](HEADERS[dialect] + "a,b\rc,d\n")

    def test_header_after_leading_blank_lines(self):
        rows = {
            "cckp": "2000,Kenya,KEN,1.5\n",
            "fao": "Kenya,Maize,2000,hg/ha,7\n",
            "aliases": "Kenya,KEN\n",
        }
        for dialect, parse in PARSERS.items():
            plain = parse(HEADERS[dialect] + rows[dialect])
            padded = parse("\n , \n" + HEADERS[dialect] + rows[dialect])
            if dialect == "aliases":
                assert len(padded) == len(plain) == 1
            else:
                assert padded.records == plain.records and padded.row_errors == ()

    def test_quoted_line_breaks_count_as_lines(self):
        result = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            '"Kenya\nwest",Maize,2000,hg/ha,7\n'
            "Kenya,Maize,2001,kg/ha,7\n"
        )
        assert result.records.area == ["Kenya\nwest"]
        assert [e.line for e in result.row_errors] == [4]

    @pytest.mark.parametrize("dialect", sorted(PARSERS))
    @given(
        data=st.one_of(
            st.binary(),
            st.text(),
            st.text(alphabet=st.sampled_from(list('0123456789,.-+"\r\n eEinfaKEN/hgtons\x00'))),
        )
    )
    @example(data=OVERSIZED)
    @example(data="2000,Kenya,KEN,nan\n")
    def test_fuzz_only_domain_errors_escape(self, dialect, data):
        if isinstance(data, str):
            data = HEADERS[dialect] + data
        try:
            PARSERS[dialect](data)
        except YieldcastError:
            pass


class TestAliasMap:
    def test_lookup_normalizes_case_space_punctuation(self):
        for raw in ("Kenya", "  kenya ", "KENYA", "Kenya!", "Republic of Kenya"):
            assert normalize_country(raw, ALIASES) == ("Kenya", "KEN")
        assert normalize_country("Narnia", ALIASES) is None

    def test_first_listed_name_is_canonical(self):
        assert ALIASES.canonical_for("KEN") == "Kenya"
        assert normalize_country("republic of kenya", ALIASES) == ("Kenya", "KEN")

    def test_conflicting_alias_rejected(self):
        with pytest.raises(FormatError):
            CountryAliasMap([("Kenya", "KEN"), ("Kenya", "MEX")])

    def test_bad_iso3_rejected(self):
        with pytest.raises(FormatError):
            CountryAliasMap([("Kenya", "KE")])

    def test_short_row_rejected(self):
        with pytest.raises(FormatError):
            CountryAliasMap.from_csv("source_name,iso3\nKenya\n")

    def test_short_row_names_its_line(self):
        with pytest.raises(FormatError, match="^line 3: "):
            CountryAliasMap.from_csv("source_name,iso3\n\nKenya\n")

    def test_packaged_table_covers_generator_countries(self):
        aliases = CountryAliasMap.load_default()
        assert len(aliases) > 150
        for name, iso3 in synth.COUNTRIES:
            assert normalize_country(name, aliases) == (name, iso3)


def climate(*rows: str) -> ClimateColumns:
    """The columns parse_cckp_csv makes of these Year,Country,ISO3,value rows."""
    return parse_cckp_csv("Year,Country,ISO3,v\n" + "\n".join(rows), "precipitation").records


def fao(*rows: str) -> FaoColumns:
    """The columns parse_fao_csv makes of these Area,Item,Year,Unit,Value rows."""
    return parse_fao_csv("Area,Item,Year,Unit,Value\n" + "\n".join(rows)).records


class TestMergePanel:
    def make_inputs(self, *extra_rain: str):
        rain = climate("2000,Kenya,KEN,600", "2001,Kenya,KEN,650", "2000,Afghanistan,AFG,300",
                       *extra_rain)
        temp = climate("2000,Kenya,KEN,24", "2001,Kenya,KEN,24.5", "2000,Afghanistan,AFG,12")
        pesticides = fao(
            f"Kenya,{PESTICIDE_ITEM},2000,tonnes,100",
            f"Kenya,{PESTICIDE_ITEM},2001,tonnes,110",
            "Kenya,Herbicides,2000,tonnes,5",
        )
        yields = fao(
            "Kenya,Maize,2000,hg/ha,15000",
            "Kenya,Maize,2000,hg/ha,16000",  # dup key
            "Kenya,Wheat,2001,hg/ha,18000",
            "Kenya,Maize,1999,hg/ha,14000",  # no climate
            "Afghanistan,Maize,2000,hg/ha,9000",  # no pesticides
            "Narnia,Maize,2000,hg/ha,1",  # unmatched
            "Kenya,Maize,2000,tonnes,2",  # wrong unit
        )
        return rain, temp, pesticides, yields

    def test_merge_accounting_is_exact(self):
        table, report = merge_panel(*self.make_inputs(), ALIASES)
        assert table.keys == (("KEN", 2000, "Maize"), ("KEN", 2001, "Wheat"))
        assert table.country == ("Kenya", "Kenya")
        # PANEL_VALUES order: rain, temp, pesticides, yield; the duplicate
        # maize row keeps the last yield
        assert table.values[0].tolist() == [600.0, 24.0, 100.0, 16000.0]

        assert report.rows_in == {"rain": 3, "temp": 3, "pesticides": 3, "yields": 7}
        assert report.rows_out == 2
        assert report.dropped_for_missing == {"rain": 1, "temp": 0, "pesticides": 1}
        assert report.duplicate_rows == {"yields": 1}
        assert report.ignored_pesticide_items == 1
        assert report.ignored_yield_units == 1
        assert report.unmatched_areas == ["Narnia"]
        assert report.unmatched_yield_rows == 1
        assert report.year_range == (2000, 2001)
        assert report.country_count == 1

    def test_report_round_trips_to_dict_and_summary(self):
        _, report = merge_panel(*self.make_inputs(), ALIASES)
        d = json.loads(canonical_json(report))
        assert d["rows_out"] == 2 and d["year_range"] == [2000, 2001]
        text = report.summary()
        assert "rows out: 2" in text and "Narnia" in text

    def test_climate_duplicates_counted_keep_last(self):
        table, report = merge_panel(*self.make_inputs("2000,Kenya,KEN,999"), ALIASES)
        assert report.duplicate_rows["rain"] == 1
        assert table.values[0, PANEL_VALUES.index("rain_mm")] == 999.0

    def test_empty_join_raises(self):
        rain = climate("1990,Kenya,KEN,1")
        temp = climate("1990,Kenya,KEN,2")
        pesticides = fao(f"Kenya,{PESTICIDE_ITEM},1990,tonnes,1")
        yields = fao("Kenya,Maize,2050,hg/ha,1")
        with pytest.raises(EmptyJoin):
            merge_panel(rain, temp, pesticides, yields, ALIASES)

    def test_provenance_records_digests(self):
        digests = {"rain": "abc123"}
        table, _ = merge_panel(*self.make_inputs(), ALIASES, source_digests=digests)
        assert table.provenance["source_digests"] == digests
        assert table.provenance["merge"]["rows_out"] == 2


class TestMergeOnSnapshot:
    def test_year_range_emerges_from_source_overlap(self, tmp_path):
        paths = synth.small_snapshot(tmp_path)
        parsed = parse_snapshot(paths)
        table, report = merge_panel(
            parsed["rain"], parsed["temp"], parsed["pesticides"], parsed["yield"],
            CountryAliasMap.load_default(),
        )
        # climate 1995-2010, pesticides 1999-2012, yields 1995-2010
        assert table.year_range() == (1999, 2010)
        assert report.country_count == 4

    def test_every_yield_row_is_accounted_for(self, tmp_path):
        paths = synth.small_snapshot(tmp_path)
        parsed = parse_snapshot(paths)
        _, report = merge_panel(
            parsed["rain"], parsed["temp"], parsed["pesticides"], parsed["yield"],
            CountryAliasMap.load_default(),
        )
        accounted = (
            report.rows_out
            + sum(report.dropped_for_missing.values())
            + report.unmatched_yield_rows
            + report.ignored_yield_units
            + report.duplicate_rows.get("yields", 0)
        )
        assert accounted == report.rows_in["yields"]


# Cells that mix valid values with every case a row rule refuses; a cell
# holding a comma is written in quotes.
YEARS = st.sampled_from(["1999", "2000", "2001", " 2000 ", "1900", "2101", "-5", "20x0", "",
                         "99999", "2_000", "+2000", "\u0662\u0660\u0660\u0660"])
VALUES = st.sampled_from(
    ["0", "1.5", "300", " 2.5 ", "-5", "-0.0", "nan", "inf", "-inf", "1e999", "abc", ""]
)
AREAS = st.sampled_from(["Kenya", " Kenya ", "Republic of Kenya", "Afghanistan", "Mexico",
                         "Narnia", "Kenya, west"])
CLIMATE_ROW = st.tuples(
    YEARS,
    st.sampled_from(["Kenya", " Kenya ", "Kenya, west", "Afghanistan"]),
    st.sampled_from(["KEN", " KEN ", "AFG", "MEX", "ke", "K3N", "KENY", ""]),
    VALUES,
)
FAO_ROW = st.tuples(
    AREAS,
    st.sampled_from(["Maize", " Maize ", "Rice, paddy", PESTICIDE_ITEM, "Herbicides"]),
    YEARS,
    st.sampled_from(["hg/ha", "tonnes", " tonnes ", "kg/ha", ""]),
    VALUES,
)
# rows that every rule keeps, over few enough country-years that merges join
# some of them, repeat some keys and leave some unmatched
JOIN_YEARS = st.sampled_from(["2000", "2001"])
KEPT_VALUES = st.sampled_from(["0", "1.5", "300", "42000.25"])
KEPT = {
    "climate": st.tuples(JOIN_YEARS, st.just("Kenya"), st.sampled_from(["KEN", "AFG"]),
                         KEPT_VALUES),
    "pesticides": st.tuples(AREAS, st.just(PESTICIDE_ITEM), JOIN_YEARS, st.just("tonnes"),
                            KEPT_VALUES),
    "yields": st.tuples(AREAS, st.sampled_from(["Maize", "Rice, paddy"]), JOIN_YEARS,
                        st.just("hg/ha"), KEPT_VALUES),
}


def csv_text(header: str, rows: st.SearchStrategy, kept: st.SearchStrategy) -> st.SearchStrategy:
    """CSV text: the header, then lines that are blank, or short, full or long
    rows; about half of them kept rows."""
    line = st.one_of(
        kept.map(list),
        kept.map(list),
        kept.map(list),
        st.just([""]),
        st.tuples(rows, st.integers(0, 5)).map(lambda r: list(r[0][: r[1]] or [""])),
        rows.map(list),
        rows.map(lambda r: [*r, "extra"]),
    )
    body = st.lists(line, min_size=4, max_size=16).map(lambda lines: "\n".join(
        ",".join(f'"{c}"' if "," in c else c for c in cells) for cells in lines
    ))
    return body.map(lambda body: f"{header}\n{body}\n")


CLIMATE_FIELDS = ("year", "country", "iso3", "value")
FAO_FIELDS = ("area", "item", "year", "unit", "value")


def assert_same_parse(result, reference, fields):
    got = {name: list(getattr(result.records, name)) for name in fields}
    assert got == oracle.columns(reference.records, fields)
    assert len(result.records) == len(reference.records)
    assert [(e.line, e.message) for e in result.row_errors] == [
        (e.line, e.message) for e in reference.row_errors
    ]
    assert result.warnings == reference.warnings


class TestAgainstRecordOracle:
    """The column parsers and merge agree with the record-based references
    in tests/ingest_oracles.py on rows that mix every row rule."""

    @settings(max_examples=200)
    @given(text=csv_text("Year,Country,ISO3,Rainfall", CLIMATE_ROW, KEPT["climate"]))
    def test_climate_parse(self, text):
        assert_same_parse(parse_cckp_csv(text, "precipitation"), oracle.parse_cckp_csv(text),
                          CLIMATE_FIELDS)

    @settings(max_examples=200)
    @given(text=csv_text("Area,Item,Year,Unit,Value", FAO_ROW, KEPT["yields"]))
    def test_fao_parse(self, text):
        assert_same_parse(parse_fao_csv(text), oracle.parse_fao_csv(text), FAO_FIELDS)

    @settings(max_examples=200)
    @given(
        rain=csv_text("Year,Country,ISO3,v", CLIMATE_ROW, KEPT["climate"]),
        temp=csv_text("Year,Country,ISO3,v", CLIMATE_ROW, KEPT["climate"]),
        pesticides=csv_text("Area,Item,Year,Unit,Value", FAO_ROW, KEPT["pesticides"]),
        yields=csv_text("Area,Item,Year,Unit,Value", FAO_ROW, KEPT["yields"]),
    )
    def test_merge(self, rain, temp, pesticides, yields):
        inputs = [(rain, "cckp"), (temp, "cckp"), (pesticides, "fao"), (yields, "fao")]
        columns = [PARSERS[kind](text).records for text, kind in inputs]
        records = [
            (oracle.parse_cckp_csv if kind == "cckp" else oracle.parse_fao_csv)(text).records
            for text, kind in inputs
        ]
        digests = {"rain": "abc123"}
        try:
            table, report = merge_panel(*columns, ALIASES, source_digests=digests)
        except EmptyJoin as exc:
            with pytest.raises(EmptyJoin) as ref:
                oracle.merge_panel(*records, ALIASES, source_digests=digests)
            assert str(ref.value) == str(exc)
            return
        ref_table, ref_report = oracle.merge_panel(*records, ALIASES, source_digests=digests)
        assert table.keys == ref_table.keys
        assert table.country == ref_table.country
        assert table.values.tobytes() == ref_table.values.tobytes()
        assert table.provenance == ref_table.provenance
        assert asdict(report) == asdict(ref_report)
