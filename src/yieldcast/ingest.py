"""Parsing of the two source CSV dialects and the four-way panel merge.

Climate files carry (Year, Country, ISO3, value) rows; FAO-style files carry
(Area, Item, Year, Unit, Value) rows. Countries in FAO files are named by
free-text area strings, so a shipped alias map bridges them onto ISO3 codes.
The merge is an inner join: a panel row exists only when rainfall,
temperature, pesticide use and the crop's yield are all present for that
country-year.
"""
from __future__ import annotations

import csv
import io
import sys
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Callable, Iterable, Iterator, Optional

from .core import ClimateRecord, FaoRecord, PanelTable
from .errors import EmptyJoin, FormatError, InvalidConfig

PESTICIDE_ITEM = "Pesticides (total)"


@dataclass(frozen=True)
class RowError:
    """A rejected input row: kept for the report, never fatal."""

    line: int
    message: str


@dataclass(frozen=True)
class ParseResult:
    """Parsed records plus everything that was rejected or suspicious."""

    records: tuple
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


def _parse_records(data, layout: str, record: Callable[[list[str]], object]) -> ParseResult:
    """Records of a CSV whose header starts with the columns named in layout.

    Header cells match case-insensitively; a "<...>" column matches any
    name. Each data row becomes record(row). A row with fewer cells than
    layout names, or one that record rejects with ValueError, is kept as a
    RowError instead.
    """
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


def parse_cckp_csv(data, variable_kind: str) -> ParseResult:
    """Parse a climate CSV (Year, Country, ISO3, value-by-position-4).

    The fourth column's header name varies between exports, so it is selected
    by position. Rows with non-numeric years or values, and rows that
    ClimateRecord rejects (years out of range, malformed ISO3 codes,
    non-finite values), are collected as RowErrors. Records that name the
    same country or ISO3 code share one string object.
    """
    if variable_kind not in ("precipitation", "temperature"):
        raise InvalidConfig(f"unknown variable kind: {variable_kind!r}")
    return _parse_records(
        data,
        "Year,Country,ISO3,<value>",
        lambda row: ClimateRecord(
            year=int(row[0]), country=sys.intern(row[1].strip()),
            iso3=sys.intern(row[2].strip()), value=float(row[3]),
        ),
    )


def parse_fao_csv(data) -> ParseResult:
    """Parse an Area,Item,Year,Unit,Value CSV.

    Rows with non-numeric years or values, and rows that FaoRecord rejects
    (units outside {hg/ha, tonnes}, negative or non-finite values), are
    collected as RowErrors. Records that name the same area, item or unit
    share one string object.
    """
    return _parse_records(
        data,
        "Area,Item,Year,Unit,Value",
        lambda row: FaoRecord(
            area=sys.intern(row[0].strip()), item=sys.intern(row[1].strip()),
            year=int(row[2]), unit=sys.intern(row[3].strip()), value=float(row[4]),
        ),
    )


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


def _keep_last(pairs: Iterable[tuple], report: MergeReport, label: str) -> dict:
    """Index (key, value) pairs; a repeated key keeps its last value and is
    counted in report.duplicate_rows[label]."""
    pairs = list(pairs)
    index = dict(pairs)
    if len(index) < len(pairs):
        report.duplicate_rows[label] = len(pairs) - len(index)
    return index


def pesticide_totals(records: Iterable[FaoRecord]) -> list[FaoRecord]:
    """The pesticide rows the panel uses: all pesticides together, in tonnes."""
    return [r for r in records if r.item == PESTICIDE_ITEM and r.unit == "tonnes"]


def _located(records: list, aliases: CountryAliasMap, unmatched: set) -> list:
    """(record, (canonical, iso3)) for each record whose area the alias map
    resolves; the areas it cannot resolve are added to unmatched."""
    hits = {area: normalize_country(area, aliases) for area in {r.area for r in records}}
    unmatched.update(area for area, hit in hits.items() if hit is None)
    return [(r, hits[r.area]) for r in records if hits[r.area] is not None]


def merge_panel(
    rain,
    temp,
    pesticides,
    yields,
    aliases: CountryAliasMap,
    source_digests: Optional[dict] = None,
) -> tuple[PanelTable, MergeReport]:
    """Inner-join the four sources into a PanelTable plus its MergeReport.

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
    rain_by = _keep_last((((r.iso3, r.year), r.value) for r in rain), report, "rain")
    temp_by = _keep_last((((r.iso3, r.year), r.value) for r in temp), report, "temp")

    unmatched: set[str] = set()
    pest = pesticide_totals(pesticides)
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

    # JSON-shaped, so the provenance of a panel read back from disk compares equal
    table.provenance["merge"] = dict(asdict(report), year_range=list(report.year_range))
    if source_digests:
        table.provenance["source_digests"] = dict(source_digests)
    return table, report


__all__ = [
    "PESTICIDE_ITEM",
    "RowError",
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
