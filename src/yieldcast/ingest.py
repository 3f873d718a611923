"""Parsing of the two source CSV dialects and the four-way panel merge.

Climate files carry (Year, Country, ISO3, value) rows; FAO-style files carry
(Area, Item, Year, Unit, Value) rows. Each parser makes one pass over its
CSV's rows, applies the row rules inline and appends each kept row's
converted cells to typed columns (ClimateColumns, FaoColumns); no object is
built per row, and a refused row becomes a RowError naming its line.
Countries in FAO files are named by free-text area strings, so a shipped
alias map bridges them onto ISO3 codes. The merge reads the columns and is
an inner join: a panel row exists only when rainfall, temperature,
pesticide use and the crop's yield are all present for that country-year.
"""
from __future__ import annotations

import csv
import io
import math
import sys
from array import array
from dataclasses import asdict, dataclass, field
from importlib import resources
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import PanelTable
from .errors import EmptyJoin, FormatError, InvalidConfig

PESTICIDE_ITEM = "Pesticides (total)"


@dataclass(frozen=True)
class RowError:
    """A rejected input row: kept for the report, never fatal."""

    line: int
    message: str


@dataclass(frozen=True)
class ClimateColumns:
    """Kept climate rows as columns, in file order: row i is (year[i],
    country[i], iso3[i], value[i])."""

    year: array = field(default_factory=lambda: array("l"))
    country: list[str] = field(default_factory=list)
    iso3: list[str] = field(default_factory=list)
    value: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.value)


@dataclass(frozen=True)
class FaoColumns:
    """Kept FAO rows as columns, in file order: row i is (area[i], item[i],
    year[i], unit[i], value[i])."""

    area: list[str] = field(default_factory=list)
    item: list[str] = field(default_factory=list)
    year: array = field(default_factory=lambda: array("l"))
    unit: list[str] = field(default_factory=list)
    value: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.value)

    def where(self, keep: Sequence[bool]) -> "FaoColumns":
        """The rows whose entry in keep is true, in order."""
        return FaoColumns(
            list(compress(self.area, keep)),
            list(compress(self.item, keep)),
            array("l", compress(self.year, keep)),
            list(compress(self.unit, keep)),
            array("d", compress(self.value, keep)),
        )


@dataclass(frozen=True)
class ParseResult:
    """Parsed rows as columns, plus everything that was rejected or suspicious."""

    records: ClimateColumns | FaoColumns
    row_errors: tuple[RowError, ...] = ()
    warnings: tuple[str, ...] = ()


def csv_rows(data) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each record of a CSV given as bytes or text.

    Records whose cells are all blank are skipped. A record is numbered by
    the line it ends on, which is the line it starts on unless a quoted
    field holds a line break. Bytes must be UTF-8 (a BOM is dropped); bytes that
    are not, and rows the csv module cannot read (such as a field over its
    size limit), raise FormatError.
    """
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(data))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from exc


def _data_rows(data, layout: str) -> Iterator[tuple[int, list[str]]]:
    """csv_rows of a CSV whose header starts with the columns named in layout,
    after that header. Header cells match case-insensitively; a "<...>"
    column matches any name."""
    columns = layout.split(",")
    rows = csv_rows(data)
    _, header = next(rows, (None, None))
    if header is None:
        raise FormatError("empty file: missing header row")
    names = [h.strip().lower() for h in header[: len(columns)]]
    expected = [n if c.startswith("<") else c.lower() for c, n in zip(columns, names)]
    if len(names) < len(columns) or names != expected:
        raise FormatError(f"bad header {header!r}: expected {layout}")
    return rows


def _check_year(year: int, cell: str) -> None:
    """Refuse a year outside [1901, 2100], and one that int read from other
    than ASCII digits and surrounding whitespace, such as '2_000', '+2000'
    or Arabic-Indic digits."""
    if not 1901 <= year <= 2100:
        raise ValueError(f"year {year} outside [1901, 2100]")
    digits = cell.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"year {cell!r} is not plain ASCII digits")


def _result(columns: ClimateColumns | FaoColumns, errors: list[RowError]) -> ParseResult:
    warnings = () if columns or errors else ("no data rows after header",)
    return ParseResult(columns, tuple(errors), warnings)


def parse_cckp_csv(data, variable_kind: str) -> ParseResult:
    """Parse a climate CSV (Year, Country, ISO3, value-by-position-4) into
    ClimateColumns.

    The fourth column's header name varies between exports, so it is selected
    by position. A row is refused, as a RowError naming its line, when it has
    fewer than 4 cells, a non-numeric year or value, a malformed ISO3 code
    (three upper-case letters), a year outside [1901, 2100] or not written in
    plain ASCII digits, or a non-finite value, checked in that order. Rows
    that name the same country or ISO3 code share one string object.
    """
    if variable_kind not in ("precipitation", "temperature"):
        raise InvalidConfig(f"unknown variable kind: {variable_kind!r}")
    rows = _data_rows(data, "Year,Country,ISO3,<value>")
    out = ClimateColumns()
    add_year, add_country, add_iso3, add_value = (
        out.year.append, out.country.append, out.iso3.append, out.value.append
    )
    errors: list[RowError] = []
    intern = sys.intern
    for line, row in rows:
        try:
            if len(row) < 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            year, country, iso3, value = (
                int(row[0]), intern(row[1].strip()), intern(row[2].strip()), float(row[3])
            )
            if not (len(iso3) == 3 and iso3.isalpha() and iso3.isupper()):
                raise ValueError(f"bad ISO3 code: {iso3!r}")
            _check_year(year, row[0])
            if not math.isfinite(value):
                raise ValueError(f"non-finite value: {value}")
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        add_year(year)
        add_country(country)
        add_iso3(iso3)
        add_value(value)
    return _result(out, errors)


def parse_fao_csv(data) -> ParseResult:
    """Parse an Area,Item,Year,Unit,Value CSV into FaoColumns.

    A row is refused, as a RowError naming its line, when it has fewer than
    5 cells, a non-numeric year or value, a unit outside {hg/ha, tonnes}, a
    year outside [1901, 2100] or not written in plain ASCII digits, or a
    non-finite or negative value, checked in that order. Rows that name
    the same area, item or unit share one string object.
    """
    rows = _data_rows(data, "Area,Item,Year,Unit,Value")
    out = FaoColumns()
    add_area, add_item, add_year, add_unit, add_value = (
        out.area.append, out.item.append, out.year.append, out.unit.append, out.value.append
    )
    errors: list[RowError] = []
    intern = sys.intern
    for line, row in rows:
        try:
            if len(row) < 5:
                raise ValueError(f"expected 5 fields, got {len(row)}")
            area, item, year, unit, value = (
                intern(row[0].strip()), intern(row[1].strip()), int(row[2]),
                intern(row[3].strip()), float(row[4]),
            )
            if unit not in ("hg/ha", "tonnes"):
                raise ValueError(f"unknown unit: {unit!r}")
            _check_year(year, row[2])
            if not math.isfinite(value):
                raise ValueError(f"non-finite value: {value}")
            if value < 0:
                raise ValueError(f"negative value: {value}")
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
            continue
        add_area(area)
        add_item(item)
        add_year(year)
        add_unit(unit)
        add_value(value)
    return _result(out, errors)


def _normalize_name(name: str) -> str:
    """Casefold, drop punctuation, collapse whitespace."""
    kept = "".join(ch for ch in name.casefold() if ch.isalnum() or ch.isspace())
    return " ".join(kept.split())


class CountryAliasMap:
    """Bridge from free-text country names to (canonical name, ISO3).

    Built from a two-column CSV (source_name, iso3); the first name listed
    for an ISO3 becomes its canonical name. Lookups normalize case,
    whitespace and punctuation, so "  zimbabwe " and "Zimbabwe" agree.
    """

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        self._entries: dict[str, tuple[str, str]] = {}
        self._canonical: dict[str, str] = {}
        for name, iso3 in pairs:
            iso3 = iso3.strip().upper()
            if not (len(iso3) == 3 and iso3.isalpha()):
                raise FormatError(f"bad ISO3 {iso3!r} for {name!r}")
            if iso3 not in self._canonical:
                self._canonical[iso3] = name.strip()
            key = _normalize_name(name)
            if not key:
                raise FormatError(f"empty country name for {iso3}")
            prev = self._entries.get(key)
            if prev is not None and prev[1] != iso3:
                raise FormatError(
                    f"alias {name!r} maps to both {prev[1]} and {iso3}"
                )
            if prev is None:
                self._entries[key] = (self._canonical[iso3], iso3)

    def __len__(self) -> int:
        return len(self._entries)

    def canonical_for(self, iso3: str) -> Optional[str]:
        return self._canonical.get(iso3)

    @classmethod
    def from_csv(cls, data) -> "CountryAliasMap":
        """Read (source_name, iso3) rows; a first row naming source_name is a header."""
        pairs = []
        for line, row in csv_rows(data):
            if len(row) < 2:
                raise FormatError(f"line {line}: alias row needs 2 columns: {row!r}")
            pairs.append((row[0], row[1]))
        if pairs and pairs[0][0].strip().lower() == "source_name":
            del pairs[0]
        return cls(pairs)

    @classmethod
    def load_default(cls) -> "CountryAliasMap":
        """The alias table shipped with the package (UN member spellings)."""
        data = resources.files("yieldcast.data").joinpath("country_aliases.csv")
        return cls.from_csv(data.read_bytes())


def normalize_country(name: str, aliases: CountryAliasMap) -> Optional[tuple[str, str]]:
    """Resolve a free-text name to (canonical, iso3); None when unmatched."""
    return aliases._entries.get(_normalize_name(name))


@dataclass
class MergeReport:
    """Audit trail of the four-way merge; every dropped row is accounted for."""

    rows_in: dict[str, int] = field(default_factory=dict)
    rows_out: int = 0
    unmatched_areas: list[str] = field(default_factory=list)
    unmatched_yield_rows: int = 0
    unmatched_pesticide_rows: int = 0
    dropped_for_missing: dict[str, int] = field(
        default_factory=lambda: {"rain": 0, "temp": 0, "pesticides": 0}
    )
    duplicate_rows: dict[str, int] = field(default_factory=dict)
    ignored_pesticide_items: int = 0
    ignored_yield_units: int = 0
    year_range: Optional[tuple[int, int]] = None
    country_count: int = 0

    def summary(self) -> str:
        lines = [
            f"rows in: " + ", ".join(f"{k}={v}" for k, v in sorted(self.rows_in.items())),
            f"rows out: {self.rows_out}",
            f"countries: {self.country_count}",
        ]
        if self.year_range:
            lines.append(f"years: {self.year_range[0]}-{self.year_range[1]}")
        drops = ", ".join(f"{k}={v}" for k, v in sorted(self.dropped_for_missing.items()))
        lines.append(f"yield rows dropped for missing: {drops}")
        if self.unmatched_areas:
            lines.append(
                f"unmatched areas ({len(self.unmatched_areas)}): "
                + ", ".join(self.unmatched_areas[:8])
                + ("..." if len(self.unmatched_areas) > 8 else "")
            )
        return "\n".join(lines)


def _keep_last(keys: list, values: Iterable, report: MergeReport, label: str) -> dict:
    """Index values by the keys at the same positions; a repeated key keeps
    its last value and is counted in report.duplicate_rows[label]."""
    index = dict(zip(keys, values))
    if len(index) < len(keys):
        report.duplicate_rows[label] = len(keys) - len(index)
    return index


def pesticide_totals(rows: FaoColumns) -> FaoColumns:
    """The pesticide rows the panel uses: all pesticides together, in tonnes."""
    return rows.where(
        [item == PESTICIDE_ITEM and unit == "tonnes" for item, unit in zip(rows.item, rows.unit)]
    )


def _located(rows: FaoColumns, aliases: CountryAliasMap, unmatched: set) -> list:
    """(canonical, iso3) for each row's area, None where the alias map cannot
    resolve it; the areas it cannot resolve are added to unmatched."""
    hits = {area: normalize_country(area, aliases) for area in set(rows.area)}
    unmatched.update(area for area, hit in hits.items() if hit is None)
    return [hits[area] for area in rows.area]


def merge_panel(
    rain: ClimateColumns,
    temp: ClimateColumns,
    pesticides: FaoColumns,
    yields: FaoColumns,
    aliases: CountryAliasMap,
    source_digests: Optional[dict] = None,
) -> tuple[PanelTable, MergeReport]:
    """Inner-join the four parsed sources into a PanelTable plus its MergeReport.

    A panel row exists iff the country-year has rainfall, temperature and a
    pesticide total, and the country-year-item has a yield value. Climate and
    pesticide values are replicated across that country-year's crops.
    Duplicate keys keep the last occurrence and are counted.
    """
    report = MergeReport(
        rows_in={
            "rain": len(rain),
            "temp": len(temp),
            "pesticides": len(pesticides),
            "yields": len(yields),
        }
    )
    rain_by = _keep_last(list(zip(rain.iso3, rain.year)), rain.value, report, "rain")
    temp_by = _keep_last(list(zip(temp.iso3, temp.year)), temp.value, report, "temp")

    unmatched: set[str] = set()
    pest = pesticide_totals(pesticides)
    report.ignored_pesticide_items = len(pesticides) - len(pest)
    pest_keys, pest_values = [], []
    for hit, year, value in zip(_located(pest, aliases, unmatched), pest.year, pest.value):
        if hit is not None:
            pest_keys.append((hit[1], year))
            pest_values.append(value)
    report.unmatched_pesticide_rows = len(pest) - len(pest_keys)
    pest_by = _keep_last(pest_keys, pest_values, report, "pesticides")

    crops = yields.where([unit == "hg/ha" for unit in yields.unit])
    report.ignored_yield_units = len(yields) - len(crops)
    crop_at = _located(crops, aliases, unmatched)

    # climate[slot[cy]] is the (rain, temp, pesticides) of a country-year
    # that all three sources cover
    slot = {cy: j for j, cy in enumerate(cy for cy in rain_by if cy in temp_by and cy in pest_by)}
    climate = [(rain_by[cy], temp_by[cy], pest_by[cy]) for cy in slot]
    report.unmatched_yield_rows = crop_at.count(None)
    keys, country, joined, crop_value = [], [], [], []
    for hit, item, year, value in zip(crop_at, crops.item, crops.year, crops.value):
        if hit is None:
            continue
        canonical, iso3 = hit
        cy = (iso3, year)
        j = slot.get(cy)
        if j is None:
            first = "rain" if cy not in rain_by else "temp" if cy not in temp_by else "pesticides"
            report.dropped_for_missing[first] += 1
        else:
            keys.append((iso3, year, item))
            country.append(canonical)
            joined.append(j)
            crop_value.append(value)
    last = _keep_last(keys, range(len(keys)), report, "yields")  # each key's last row

    report.unmatched_areas = sorted(unmatched)
    report.rows_out = len(last)
    if not last:
        raise EmptyJoin(
            "merge produced zero rows: check year overlap and country aliases"
        )
    keys = tuple(sorted(last))
    order = [last[k] for k in keys]
    values = np.column_stack(
        (np.array(climate)[np.array(joined)[order]], np.array(crop_value)[order])
    )
    table = PanelTable(keys=keys, country=tuple(country[i] for i in order), values=values)
    report.year_range = table.year_range()
    report.country_count = len(table.countries())

    # JSON-shaped, so the provenance of a panel read back from disk compares equal
    table.provenance["merge"] = dict(asdict(report), year_range=list(report.year_range))
    if source_digests:
        table.provenance["source_digests"] = dict(source_digests)
    return table, report


__all__ = [
    "PESTICIDE_ITEM",
    "RowError",
    "ClimateColumns",
    "FaoColumns",
    "ParseResult",
    "csv_rows",
    "parse_cckp_csv",
    "parse_fao_csv",
    "CountryAliasMap",
    "normalize_country",
    "MergeReport",
    "pesticide_totals",
    "merge_panel",
]
