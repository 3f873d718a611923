"""Plain reference versions of the ingest parsers and merge, used as test oracles.

Each CSV row becomes one frozen record, `ClimateRecord` or `FaoRecord`, whose
`__post_init__` applies the row rules (a record keeps its year's cell, for the
rule that a year is written in plain digits); a row the record refuses is kept
as a `RowError` carrying the refusal's message. `merge_panel` joins the four
record lists one record at a time. `yieldcast.ingest` parses straight into
columns and merges from them, and must agree with these in every column,
every `RowError`, every warning, the merged `PanelTable` and its
`MergeReport`. `columns` turns a list of records into the column layout of
`yieldcast.ingest`, so the two compare with `==`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from yieldcast.core import PanelTable
from yieldcast.errors import EmptyJoin, FormatError
from yieldcast.ingest import (
    PESTICIDE_ITEM,
    CountryAliasMap,
    MergeReport,
    ParseResult,
    RowError,
    csv_rows,
    normalize_country,
)


def check_year(year: int, cell: str) -> None:
    """A year in [1901, 2100] whose cell is ASCII digits 0-9, blanks around."""
    if not 1901 <= year <= 2100:
        raise ValueError(f"year {year} outside [1901, 2100]")
    if any(c not in "0123456789" for c in cell.strip()):
        raise ValueError(f"year {cell!r} is not plain ASCII digits")


@dataclass(frozen=True, slots=True)
class ClimateRecord:
    """One country-year reading of rainfall (mm) or temperature (degrees C)."""

    year: int
    country: str
    iso3: str
    value: float
    year_cell: str

    def __post_init__(self):
        if not (len(self.iso3) == 3 and self.iso3.isalpha() and self.iso3.isupper()):
            raise ValueError(f"bad ISO3 code: {self.iso3!r}")
        check_year(self.year, self.year_cell)
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value: {self.value}")


@dataclass(frozen=True, slots=True)
class FaoRecord:
    """One area-item-year row: crop yield (hg/ha) or pesticide use (tonnes)."""

    area: str
    item: str
    year: int
    unit: str
    value: float
    year_cell: str

    def __post_init__(self):
        if self.unit not in ("hg/ha", "tonnes"):
            raise ValueError(f"unknown unit: {self.unit!r}")
        check_year(self.year, self.year_cell)
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite value: {self.value}")
        if self.value < 0:
            raise ValueError(f"negative value: {self.value}")


def _parse_records(data, layout: str, record: Callable[[list[str]], object]) -> ParseResult:
    columns = layout.split(",")
    rows = csv_rows(data)
    _, header = next(rows, (None, None))
    if header is None:
        raise FormatError("empty file: missing header row")
    names = [h.strip().lower() for h in header[: len(columns)]]
    expected = [n if c.startswith("<") else c.lower() for c, n in zip(columns, names)]
    if len(names) < len(columns) or names != expected:
        raise FormatError(f"bad header {header!r}: expected {layout}")

    records = []
    errors: list[RowError] = []
    for line, row in rows:
        try:
            if len(row) < len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
            records.append(record(row))
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
    warnings = () if records or errors else ("no data rows after header",)
    return ParseResult(tuple(records), tuple(errors), warnings)


def parse_cckp_csv(data) -> ParseResult:
    return _parse_records(
        data,
        "Year,Country,ISO3,<value>",
        lambda row: ClimateRecord(
            year=int(row[0]), country=sys.intern(row[1].strip()),
            iso3=sys.intern(row[2].strip()), value=float(row[3]), year_cell=row[0],
        ),
    )


def parse_fao_csv(data) -> ParseResult:
    return _parse_records(
        data,
        "Area,Item,Year,Unit,Value",
        lambda row: FaoRecord(
            area=sys.intern(row[0].strip()), item=sys.intern(row[1].strip()),
            year=int(row[2]), unit=sys.intern(row[3].strip()), value=float(row[4]),
            year_cell=row[2],
        ),
    )


def columns(records: Iterable, fields: Iterable[str]) -> dict[str, list]:
    """{field: [each record's value of it]}, in record order."""
    records = list(records)
    return {name: [getattr(r, name) for r in records] for name in fields}


def _keep_last(pairs: Iterable[tuple], report: MergeReport, label: str) -> dict:
    pairs = list(pairs)
    index = dict(pairs)
    if len(index) < len(pairs):
        report.duplicate_rows[label] = len(pairs) - len(index)
    return index


def _located(records: list, aliases: CountryAliasMap, unmatched: set) -> list:
    hits = {area: normalize_country(area, aliases) for area in {r.area for r in records}}
    unmatched.update(area for area, hit in hits.items() if hit is None)
    return [(r, hits[r.area]) for r in records if hits[r.area] is not None]


def merge_panel(rain, temp, pesticides, yields, aliases: CountryAliasMap,
                source_digests=None) -> tuple[PanelTable, MergeReport]:
    """The four-way inner join of `yieldcast.ingest.merge_panel`, over records."""
    report = MergeReport(
        rows_in={
            "rain": len(rain),
            "temp": len(temp),
            "pesticides": len(pesticides),
            "yields": len(yields),
        }
    )
    rain_by = _keep_last((((r.iso3, r.year), r.value) for r in rain), report, "rain")
    temp_by = _keep_last((((r.iso3, r.year), r.value) for r in temp), report, "temp")

    unmatched: set[str] = set()
    pest = [r for r in pesticides if r.item == PESTICIDE_ITEM and r.unit == "tonnes"]
    report.ignored_pesticide_items = len(pesticides) - len(pest)
    pest_hits = _located(pest, aliases, unmatched)
    report.unmatched_pesticide_rows = len(pest) - len(pest_hits)
    pest_by = _keep_last(
        (((iso3, r.year), r.value) for r, (_, iso3) in pest_hits), report, "pesticides"
    )

    crops = [r for r in yields if r.unit == "hg/ha"]
    report.ignored_yield_units = len(yields) - len(crops)
    crop_hits = _located(crops, aliases, unmatched)
    report.unmatched_yield_rows = len(crops) - len(crop_hits)

    def joined():
        for rec, (canonical, iso3) in crop_hits:
            cy = (iso3, rec.year)
            if cy not in rain_by:
                report.dropped_for_missing["rain"] += 1
            elif cy not in temp_by:
                report.dropped_for_missing["temp"] += 1
            elif cy not in pest_by:
                report.dropped_for_missing["pesticides"] += 1
            else:
                values = (rain_by[cy], temp_by[cy], pest_by[cy], rec.value)
                yield (iso3, rec.year, rec.item), (canonical, values)

    rows = _keep_last(joined(), report, "yields")

    report.unmatched_areas = sorted(unmatched)
    report.rows_out = len(rows)
    if not rows:
        raise EmptyJoin(
            "merge produced zero rows: check year overlap and country aliases"
        )
    keys = tuple(sorted(rows))
    table = PanelTable(
        keys=keys,
        country=tuple(rows[k][0] for k in keys),
        values=[rows[k][1] for k in keys],
    )
    report.year_range = table.year_range()
    report.country_count = len(table.countries())
    table.provenance["merge"] = dict(asdict(report), year_range=list(report.year_range))
    if source_digests:
        table.provenance["source_digests"] = dict(source_digests)
    return table, report
