"""Seeded input generator for the benchmark.

Writes the four raw CSVs that `yieldcast ingest` and `yieldcast explore`
read, and a feature-row CSV for `yieldcast predict`. The yield signal is the
one in tests/synth.py (each crop has its own rain and temperature optimum,
scaled by a pesticide term and an item-by-country quirk). It is copied here
so that an edit to the test helpers cannot move the benchmark's inputs.

The seed drives the multiplicative yield noise, the FAOSTAT area spellings
and the placement of the injected anomalies. Row counts depend only on the
shape, so every seed gives the same amount of work.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALIASES = Path(__file__).with_name("aliases.csv")

ITEMS = (
    "Cassava",
    "Maize",
    "Plantains and others",
    "Potatoes",
    "Rice, paddy",
    "Sorghum",
    "Soybeans",
    "Sweet potatoes",
    "Wheat",
    "Yams",
)

# per-item (base yield hg/ha, optimal temp C, optimal rain mm)
ITEM_PARAMS = {
    "Cassava": (62000.0, 26.0, 1400.0),
    "Maize": (58000.0, 16.0, 800.0),
    "Plantains and others": (66000.0, 27.0, 1800.0),
    "Potatoes": (72000.0, 10.0, 1000.0),
    "Rice, paddy": (56000.0, 24.0, 1600.0),
    "Sorghum": (48000.0, 22.0, 600.0),
    "Soybeans": (52000.0, 20.0, 900.0),
    "Sweet potatoes": (68000.0, 21.0, 1100.0),
    "Wheat": (50000.0, 12.0, 500.0),
    "Yams": (64000.0, 25.0, 1500.0),
}

FEATURE_HEADER = ("rain_mm", "temp_c", "pesticides_tonnes", *(f"item={it}" for it in ITEMS))

UNMATCHED_AREAS = ("Atlantis", "Freedonia", "Genovia")

# Climate terms grow with the country index, as in tests/synth.py; folding
# the index keeps rain and temperature plausible with all 193 countries.
CLIMATE_PERIOD = 20


@dataclass(frozen=True)
class Shape:
    """How much input one snapshot holds.

    `countries` takes the first ISO3 codes of the alias table. With
    `anomalies` set, each FAOSTAT area uses one of the spellings the alias
    table knows for it, some in upper case, and the files carry unmatched
    areas, duplicate keys, missing temperature series, and rows the merge
    ignores for item or unit, so every MergeReport counter is non-zero.
    """

    countries: int
    climate_years: tuple[int, int]
    pesticide_years: tuple[int, int]
    yield_years: tuple[int, int]
    anomalies: bool = False
    signal: str = "interactive"
    noise: float = 0.10

    def panel_years(self) -> range:
        lo = max(self.climate_years[0], self.pesticide_years[0], self.yield_years[0])
        hi = min(self.climate_years[1], self.pesticide_years[1], self.yield_years[1])
        return range(lo, hi + 1)


def _rain(ci: int, year: int) -> float:
    c = ci % CLIMATE_PERIOD
    base = 350.0 + 160.0 * c
    wave = 0.22 * math.sin(0.61 * year + 1.3 * c) + 0.1 * math.sin(0.13 * year)
    return base * (1.0 + wave)


def _temp(ci: int, year: int) -> float:
    c = ci % CLIMATE_PERIOD
    base = 6.0 + 2.1 * c
    return base + 0.015 * (year - 1950) + 0.8 * math.sin(0.37 * year + 0.5 * c)


def _pesticides(ci: int, year: int) -> float:
    base = 4000.0 + 2600.0 * (ci % 40)
    return base * (1.0 + 0.035 * (year - 1990)) * (1.0 + 0.05 * math.sin(0.9 * year + ci))


def _yield_value(
    item: str, ci: int, rain: float, temp: float, pest: float, noise: float, signal: str
) -> float:
    base, opt_temp, opt_rain = ITEM_PARAMS[item]
    if signal == "linear":
        value = base + 30.0 * rain + 900.0 * temp + 0.4 * pest
    else:
        ii = ITEMS.index(item)
        climate = math.exp(-(((temp - opt_temp) / 5.5) ** 2) - (((rain - opt_rain) / 550.0) ** 2))
        quirk = 1.0 + 0.15 * math.sin(2.7 * ci + 1.9 * ii)
        value = base * (0.30 + 1.4 * climate) * (0.75 + 0.25 * math.tanh(pest / 30000.0)) * quirk
    return max(value * (1.0 + noise), 100.0)


def alias_table() -> list[tuple[str, list[str]]]:
    """(iso3, spellings) in table order; the first spelling is canonical."""
    spellings: dict[str, list[str]] = {}
    with ALIASES.open(newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for name, iso3 in rows:
            spellings.setdefault(iso3, []).append(name)
    return list(spellings.items())


def write_inputs(dirpath: Path, shape: Shape, seed: int) -> tuple[dict[str, Path], int]:
    """Write rain/temp/pesticides/yield CSVs.

    Returns their paths and the number of panel rows the merge must keep.
    """
    dirpath.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    table = alias_table()[: shape.countries]
    if len(table) < shape.countries:
        raise ValueError(f"the alias table has only {len(table)} countries")
    panel_years = shape.panel_years()
    climate_years = range(shape.climate_years[0], shape.climate_years[1] + 1)
    pest_years = range(shape.pesticide_years[0], shape.pesticide_years[1] + 1)
    yield_years = range(shape.yield_years[0], shape.yield_years[1] + 1)

    if shape.anomalies:
        areas = [names[int(rng.integers(len(names)))] for _, names in table]
        areas = [a.upper() if rng.random() < 0.1 else a for a in areas]
        no_temp = {int(ci) for ci in rng.choice(len(table), size=2, replace=False)}
    else:
        areas = [names[0] for _, names in table]
        no_temp = set()

    def writer(name: str, header: list[str], rows: list[list], keyed=None) -> Path:
        if shape.anomalies:  # exact repeats of rows the merge keys; it keeps one of each
            keyed = range(len(rows)) if keyed is None else keyed
            picks = rng.choice(len(keyed), size=max(1, len(keyed) // 200), replace=False)
            rows = rows + [rows[keyed[int(i)]] for i in np.sort(picks)]
        path = dirpath / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        return path

    rain = [[y, names[0], iso3, f"{_rain(ci, y):.5f}"]
            for y in climate_years for ci, (iso3, names) in enumerate(table)]
    temp = [[y, names[0], iso3, f"{_temp(ci, y):.6f}"]
            for y in climate_years for ci, (iso3, names) in enumerate(table)
            if ci not in no_temp]

    pest, pest_keyed = [], []
    for ci, area in enumerate(areas):
        for y in pest_years:
            pest_keyed.append(len(pest))
            pest.append([area, "Pesticides (total)", y, "tonnes", f"{_pesticides(ci, y):.2f}"])
            if shape.anomalies and rng.random() < 0.05:
                pest.append([area, "Herbicides", y, "tonnes", f"{0.3 * _pesticides(ci, y):.2f}"])

    yields, yield_keyed = [], []
    for ci, area in enumerate(areas):
        for item in ITEMS:
            for y in yield_years:
                noise = float(rng.normal(scale=shape.noise))
                value = _yield_value(
                    item, ci, _rain(ci, y), _temp(ci, y),
                    _pesticides(ci, max(y, pest_years[0])), noise, shape.signal,
                )
                if y in panel_years and ci not in no_temp:
                    yield_keyed.append(len(yields))
                yields.append([area, item, y, "hg/ha", f"{value:.1f}"])
                if shape.anomalies and rng.random() < 0.02:
                    yields.append([area, item, y, "tonnes", f"{value * 40.0:.1f}"])

    if shape.anomalies:
        for ai, area in enumerate(UNMATCHED_AREAS):
            for y in panel_years:
                pest.append([area, "Pesticides (total)", y, "tonnes", f"{_pesticides(ai, y):.2f}"])
                yields.append([area, ITEMS[ai], y, "hg/ha", "50000.0"])

    paths = {
        "rain": writer("rain", ["Year", "Country", "ISO3", "Rainfall - (MM)"], rain),
        "temp": writer("temp", ["Year", "Country", "ISO3", "Temperature - (Celsius)"], temp),
        "pesticides": writer("pesticides", ["Area", "Item", "Year", "Unit", "Value"], pest,
                             pest_keyed),
        "yield": writer("yield", ["Area", "Item", "Year", "Unit", "Value"], yields, yield_keyed),
    }
    return paths, len(yield_keyed)


def write_features(path: Path, shape: Shape, seed: int, rows: int) -> None:
    """Feature rows for `predict`: country-years and items drawn from the
    shape's panel, laid out as `build_feature_matrix` lays out the panel."""
    rng = np.random.default_rng([seed, 1])
    years = shape.panel_years()
    out = []
    for _ in range(rows):
        ci = int(rng.integers(shape.countries))
        year = years[int(rng.integers(len(years)))]
        onehot = [0.0] * len(ITEMS)
        onehot[int(rng.integers(len(ITEMS)))] = 1.0
        out.append([repr(_rain(ci, year)), repr(_temp(ci, year)),
                    repr(_pesticides(ci, year)), *onehot])
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FEATURE_HEADER)
        w.writerows(out)
