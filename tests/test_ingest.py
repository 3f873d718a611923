"""CSV parsing, country-name normalization, and the four-way panel merge."""
from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import synth
from conftest import parse_snapshot
from yieldcast.core import PANEL_VALUES, ClimateRecord, FaoRecord
from yieldcast.errors import EmptyJoin, FormatError, InvalidConfig, YieldcastError
from yieldcast.ingest import (
    PESTICIDE_ITEM,
    CountryAliasMap,
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
        assert result.records == (
            ClimateRecord(year=2000, country="Kenya", iso3="KEN", value=630.5),
            ClimateRecord(year=2001, country="Kenya", iso3="KEN", value=702.25),
        )

    def test_value_column_selected_by_position(self):
        result = parse_cckp_csv(
            "Year,Country,ISO3,Annual Mean Temp\n2000,Kenya,KEN,24.5\n",
            "temperature",
        )
        assert result.records[0].value == 24.5

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
        assert [r.year for r in result.records] == [2000, 2003]
        assert [e.line for e in result.row_errors] == [3, 4, 5]

    def test_header_only_warns(self):
        result = parse_cckp_csv("Year,Country,ISO3,v\n", "temperature")
        assert result.records == () and len(result.warnings) == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_is_row_error(self, cell):
        result = parse_cckp_csv(
            f"Year,Country,ISO3,v\n2000,Kenya,KEN,{cell}\n2001,Kenya,KEN,2.5\n",
            "precipitation",
        )
        assert [r.year for r in result.records] == [2001]
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
        assert result.records == (
            FaoRecord(area="Kenya", item="Rice, paddy", year=2000, unit="hg/ha", value=42000.0),
            FaoRecord(area="Kenya", item="Pesticides (total)", year=2000, unit="tonnes", value=125.5),
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
        assert [r.value for r in result.records] == [7.0]
        assert [e.line for e in result.row_errors] == [2, 3, 4]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_row_error(self, cell):
        result = parse_fao_csv(
            "Area,Item,Year,Unit,Value\n"
            f"Kenya,Maize,2000,hg/ha,{cell}\n"
            f"Kenya,Pesticides (total),2000,tonnes,{cell}\n"
            "Kenya,Maize,2001,hg/ha,7\n"
        )
        assert [r.value for r in result.records] == [7.0]
        assert [e.line for e in result.row_errors] == [2, 3]
        assert all("non-finite" in e.message for e in result.row_errors)


class TestRecords:
    """Parsed records are slotted, frozen value objects that share their strings."""

    @pytest.fixture(scope="class")
    def parsed(self):
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
        return fao, climate

    def test_records_have_no_instance_dict(self, parsed):
        for record in (*parsed[0], *parsed[1]):
            assert not hasattr(record, "__dict__")

    def test_equal_strings_are_one_object(self, parsed):
        (a, b, c), (x, y) = parsed
        assert a.area is b.area and a.item is b.item is c.item and a.unit is b.unit
        assert x.country is y.country and x.iso3 is y.iso3

    def test_fields_stay_frozen(self, parsed):
        for record, name in ((parsed[0][0], "value"), (parsed[1][0], "iso3")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 1.0)

    def test_value_semantics(self, parsed):
        fao, climate = parsed
        assert fao[0] == FaoRecord("Kenya", "Maize", 2000, "hg/ha", 15000.0)
        assert hash(fao[0]) == hash(FaoRecord("Kenya", "Maize", 2000, "hg/ha", 15000.0))
        assert fao[0] != fao[1] and len({*fao, *fao}) == 3
        assert dataclasses.replace(fao[0], year=2001, value=16000.0) == fao[1]
        assert dataclasses.replace(climate[0], year=2001, value=702.25) == climate[1]
        with pytest.raises(ValueError, match="unknown unit"):
            dataclasses.replace(fao[0], unit="kg")
        for record in (*fao, *climate):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and hash(copy) == hash(record)


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
        assert result.records[0].area == "Kenya\nwest"
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


def climate(iso3, year, value):
    return ClimateRecord(year=year, country=iso3.title(), iso3=iso3, value=value)


class TestMergePanel:
    def make_inputs(self):
        rain = [climate("KEN", 2000, 600.0), climate("KEN", 2001, 650.0),
                climate("AFG", 2000, 300.0)]
        temp = [climate("KEN", 2000, 24.0), climate("KEN", 2001, 24.5),
                climate("AFG", 2000, 12.0)]
        pesticides = [
            FaoRecord(area="Kenya", item=PESTICIDE_ITEM, year=2000, unit="tonnes", value=100.0),
            FaoRecord(area="Kenya", item=PESTICIDE_ITEM, year=2001, unit="tonnes", value=110.0),
            FaoRecord(area="Kenya", item="Herbicides", year=2000, unit="tonnes", value=5.0),
        ]
        yields = [
            FaoRecord(area="Kenya", item="Maize", year=2000, unit="hg/ha", value=15000.0),
            FaoRecord(area="Kenya", item="Maize", year=2000, unit="hg/ha", value=16000.0),  # dup key
            FaoRecord(area="Kenya", item="Wheat", year=2001, unit="hg/ha", value=18000.0),
            FaoRecord(area="Kenya", item="Maize", year=1999, unit="hg/ha", value=14000.0),  # no climate
            FaoRecord(area="Afghanistan", item="Maize", year=2000, unit="hg/ha", value=9000.0),  # no pesticides
            FaoRecord(area="Narnia", item="Maize", year=2000, unit="hg/ha", value=1.0),  # unmatched
            FaoRecord(area="Kenya", item="Maize", year=2000, unit="tonnes", value=2.0),  # wrong unit
        ]
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
        rain, temp, pesticides, yields = self.make_inputs()
        rain.append(climate("KEN", 2000, 999.0))
        table, report = merge_panel(rain, temp, pesticides, yields, ALIASES)
        assert report.duplicate_rows["rain"] == 1
        assert table.values[0, PANEL_VALUES.index("rain_mm")] == 999.0

    def test_empty_join_raises(self):
        rain = [climate("KEN", 1990, 1.0)]
        temp = [climate("KEN", 1990, 2.0)]
        pesticides = [FaoRecord(area="Kenya", item=PESTICIDE_ITEM, year=1990,
                                unit="tonnes", value=1.0)]
        yields = [FaoRecord(area="Kenya", item="Maize", year=2050,
                            unit="hg/ha", value=1.0)]
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
