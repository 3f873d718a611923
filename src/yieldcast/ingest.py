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
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Iterable, Optional

from .core import ClimateRecord, FaoRecord, PanelRow, PanelTable
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


def _decode(data) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8: {exc}") from exc


def parse_cckp_csv(data, variable_kind: str) -> ParseResult:
    """Parse a climate CSV (Year, Country, ISO3, value-by-position-4).

    The fourth column's header name varies between exports, so it is selected
    by position. Rows with malformed years, ISO3 codes or non-numeric values
    are collected as RowErrors.
    """
    if variable_kind not in ("precipitation", "temperature"):
        raise InvalidConfig(f"unknown variable kind: {variable_kind!r}")
    reader = csv.reader(io.StringIO(_decode(data)))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty file: missing header row") from None
    expected = ("year", "country", "iso3")
    got = tuple(h.strip().lower() for h in header[:3])
    if len(header) < 4 or got != expected:
        raise FormatError(
            f"bad header {header!r}: expected Year,Country,ISO3,<value>"
        )

    records: list[ClimateRecord] = []
    errors: list[RowError] = []
    warnings: list[str] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 4:
            errors.append(RowError(line_no, f"expected 4 fields, got {len(row)}"))
            continue
        try:
            year = int(row[0].strip())
            value = float(row[3].strip())
        except ValueError:
            errors.append(RowError(line_no, f"non-numeric year/value: {row!r}"))
            continue
        try:
            rec = ClimateRecord(
                year=year,
                country=row[1].strip(),
                iso3=row[2].strip(),
                value=value,
            )
        except ValueError as exc:
            errors.append(RowError(line_no, str(exc)))
            continue
        records.append(rec)
    if not records and not errors:
        warnings.append(f"no {variable_kind} data rows after header")
    return ParseResult(tuple(records), tuple(errors), tuple(warnings))


def parse_fao_csv(data) -> ParseResult:
    """Parse an Area,Item,Year,Unit,Value CSV.

    Units outside {hg/ha, tonnes} and negative values are rejected row by row.
    """
    reader = csv.reader(io.StringIO(_decode(data)))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty file: missing header row") from None
    expected = ("area", "item", "year", "unit", "value")
    got = tuple(h.strip().lower() for h in header[:5])
    if got != expected:
        raise FormatError(f"bad header {header!r}: expected Area,Item,Year,Unit,Value")

    records: list[FaoRecord] = []
    errors: list[RowError] = []
    warnings: list[str] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 5:
            errors.append(RowError(line_no, f"expected 5 fields, got {len(row)}"))
            continue
        unit = row[3].strip()
        if unit not in ("hg/ha", "tonnes"):
            errors.append(RowError(line_no, f"unknown unit {unit!r}"))
            continue
        try:
            year = int(row[2].strip())
            value = float(row[4].strip())
        except ValueError:
            errors.append(RowError(line_no, f"non-numeric year/value: {row!r}"))
            continue
        if value < 0:
            errors.append(RowError(line_no, f"negative value {value}"))
            continue
        records.append(
            FaoRecord(area=row[0].strip(), item=row[1].strip(), year=year,
                      unit=unit, value=value)
        )
    if not records and not errors:
        warnings.append("no data rows after header")
    return ParseResult(tuple(records), tuple(errors), tuple(warnings))


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
        reader = csv.reader(io.StringIO(_decode(data)))
        pairs = []
        for i, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise FormatError(f"alias row {i + 1} needs 2 columns: {row!r}")
            if i == 0 and row[0].strip().lower() == "source_name":
                continue
            pairs.append((row[0], row[1]))
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


def _index_climate(records, report: MergeReport, label: str) -> dict:
    by_key: dict[tuple[str, int], float] = {}
    dups = 0
    for rec in records:
        key = (rec.iso3, rec.year)
        if key in by_key:
            dups += 1
        by_key[key] = rec.value
    if dups:
        report.duplicate_rows[label] = dups
    return by_key


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
    rain_by = _index_climate(rain, report, "rain")
    temp_by = _index_climate(temp, report, "temp")

    unmatched: set[str] = set()
    pest_by: dict[tuple[str, int], float] = {}
    pest_dups = 0
    for rec in pesticides:
        if rec.item != PESTICIDE_ITEM or rec.unit != "tonnes":
            report.ignored_pesticide_items += 1
            continue
        hit = normalize_country(rec.area, aliases)
        if hit is None:
            unmatched.add(rec.area)
            report.unmatched_pesticide_rows += 1
            continue
        key = (hit[1], rec.year)
        if key in pest_by:
            pest_dups += 1
        pest_by[key] = rec.value
    if pest_dups:
        report.duplicate_rows["pesticides"] = pest_dups

    rows: dict[tuple[str, int, str], PanelRow] = {}
    yield_dups = 0
    for rec in yields:
        if rec.unit != "hg/ha":
            report.ignored_yield_units += 1
            continue
        hit = normalize_country(rec.area, aliases)
        if hit is None:
            unmatched.add(rec.area)
            report.unmatched_yield_rows += 1
            continue
        canonical, iso3 = hit
        cy = (iso3, rec.year)
        if cy not in rain_by:
            report.dropped_for_missing["rain"] += 1
            continue
        if cy not in temp_by:
            report.dropped_for_missing["temp"] += 1
            continue
        if cy not in pest_by:
            report.dropped_for_missing["pesticides"] += 1
            continue
        key = (iso3, rec.year, rec.item)
        if key in rows:
            yield_dups += 1
        rows[key] = PanelRow(
            iso3=iso3,
            country=canonical,
            year=rec.year,
            item=rec.item,
            rain_mm=rain_by[cy],
            temp_c=temp_by[cy],
            pesticides_tonnes=pest_by[cy],
            yield_hg_ha=rec.value,
        )
    if yield_dups:
        report.duplicate_rows["yields"] = yield_dups

    report.unmatched_areas = sorted(unmatched)
    report.rows_out = len(rows)
    if not rows:
        raise EmptyJoin(
            "merge produced zero rows: check year overlap and country aliases"
        )
    ordered = tuple(rows[k] for k in sorted(rows))
    years = [r.year for r in ordered]
    report.year_range = (min(years), max(years))
    report.country_count = len({r.iso3 for r in ordered})

    # JSON-shaped, so the provenance of a panel read back from disk compares equal
    provenance = {"merge": dict(asdict(report), year_range=list(report.year_range))}
    if source_digests:
        provenance["source_digests"] = dict(source_digests)
    return PanelTable(rows=ordered, provenance=provenance), report


__all__ = [
    "PESTICIDE_ITEM",
    "RowError",
    "ParseResult",
    "parse_cckp_csv",
    "parse_fao_csv",
    "CountryAliasMap",
    "normalize_country",
    "MergeReport",
    "merge_panel",
]
