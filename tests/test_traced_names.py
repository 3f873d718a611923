"""Every function the benchmark's tracer wraps still exists under its name.

perfbench/tracer.py reports a renamed or deleted function only as "missing"
in a traced run; this test fails on it in the fast suite instead. The tracer
file is parsed, not imported, so nothing under perfbench/ runs.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_tables() -> dict[str, dict[str, tuple[str, ...]]]:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYERS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_functions_exist():
    tables = traced_tables()
    assert set(tables) == {"LAYERS", "COUNTED"}
    missing = [
        f"{layer}.{name}"
        for table in tables.values()
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"yieldcast.{layer}"), name, None))
    ]
    assert missing == []
