"""Shared fixtures plus the acceptance-criteria result registry.

Acceptance tests wrap their body in the `criterion` context manager; the
terminal summary then prints one PASS/FAIL line per criterion with its
wall-clock time, so the check outcomes are readable without scrolling
through the pytest log.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import synth
from yieldcast.core import FeatureConfig, build_feature_matrix
from yieldcast.ingest import CountryAliasMap, merge_panel, parse_cckp_csv, parse_fao_csv

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ACCEPTANCE: dict[int, dict] = {}


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    """Track one acceptance criterion: status, elapsed time, failure note."""
    entry = {"name": name, "status": "FAIL", "elapsed": 0.0, "note": ""}
    ACCEPTANCE[number] = entry
    start = time.perf_counter()
    try:
        yield entry
    except BaseException as exc:  # re-raised; recorded for the summary line
        entry["elapsed"] = time.perf_counter() - start
        note = str(exc).split("\n")[0][:120]
        entry["note"] = f"{type(exc).__name__}: {note}"
        raise
    entry["elapsed"] = time.perf_counter() - start
    if entry["elapsed"] > budget_seconds:
        entry["note"] = f"runtime budget {budget_seconds:.0f}s exceeded"
        raise AssertionError(
            f"criterion {number} took {entry['elapsed']:.2f}s, budget {budget_seconds}s"
        )
    entry["status"] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE):
        entry = ACCEPTANCE[number]
        note = f"  # {entry['note']}" if entry["note"] else ""
        terminalreporter.write_line(
            f"ACCEPTANCE {number:02d} {entry['name']}: {entry['status']}"
            f" [{entry['elapsed']:.2f}s]{note}"
        )


def parse_snapshot(paths: dict) -> dict:
    """All four snapshot CSVs parsed into columns keyed by source name."""
    return {
        "rain": parse_cckp_csv(paths["rain"].read_text(encoding="utf-8"), "precipitation").records,
        "temp": parse_cckp_csv(paths["temp"].read_text(encoding="utf-8"), "temperature").records,
        "pesticides": parse_fao_csv(paths["pesticides"].read_text(encoding="utf-8")).records,
        "yield": parse_fao_csv(paths["yield"].read_text(encoding="utf-8")).records,
    }


@pytest.fixture(scope="session")
def small_panel(tmp_path_factory):
    """Merged panel from the compact snapshot (4 countries x 2 items)."""
    paths = synth.small_snapshot(tmp_path_factory.mktemp("small-snap"))
    parsed = parse_snapshot(paths)
    table, report = merge_panel(
        parsed["rain"], parsed["temp"], parsed["pesticides"], parsed["yield"],
        CountryAliasMap.load_default(),
    )
    return table, report


@pytest.fixture(scope="session")
def small_matrix(small_panel):
    table, _ = small_panel
    return build_feature_matrix(table, FeatureConfig())


def tiny_matrix(seed: int = 0, n: int = 40, p: int = 3):
    """Small dense FeatureMatrix with a smooth signal, for model tests."""
    from yieldcast.core import FeatureMatrix

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x @ np.arange(1.0, p + 1.0) + 0.5 + 0.1 * np.sin(3.0 * x[:, 0])
    return FeatureMatrix(
        x=x,
        y=y,
        feature_names=tuple(f"f{j}" for j in range(p)),
        row_keys=tuple(("AAA", 1990 + i, "row") for i in range(n)),
        onehot=(False,) * p,
    )
