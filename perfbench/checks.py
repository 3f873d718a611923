"""Output checks for the benchmark's commands.

Each check returns a list of problems; an empty list means the output is
correct. The checks read only files, so they apply alike to a run made of
subprocesses and to the in-process traced run.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Sequence

EXPLORE_FILES = (
    "annual_rain.csv",
    "annual_temp.csv",
    "annual_pesticides.csv",
    "item_frequency.csv",
    "correlation_matrix.csv",
)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _load(path: Path) -> tuple[Any, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable: {exc}"]


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same(reference: dict[str, str], digests: dict[str, str], what: str) -> list[str]:
    """Byte-identity of two output trees (the determinism contract)."""
    if reference == digests:
        return []
    changed = sorted(k for k in reference.keys() | digests.keys()
                     if reference.get(k) != digests.get(k))
    return [f"{what}: outputs differ from the reference run: {', '.join(changed[:5])}"]


def check_ingest(out: Path, expected_rows: int, all_counters: bool) -> list[str]:
    """The merge kept exactly the rows the generator built.

    With `all_counters`, every MergeReport counter must also be non-zero,
    which shows that each drop path of the merge ran.
    """
    report, problems = _load(out / "merge_report.json")
    if problems:
        return problems
    if not (out / "panel.json").is_file():
        problems.append("panel.json missing")
    if report.get("rows_out") != expected_rows:
        problems.append(f"rows_out {report.get('rows_out')} != generated {expected_rows}")
    if all_counters:
        counters = {
            "unmatched_areas": len(report.get("unmatched_areas") or []),
            "unmatched_yield_rows": report.get("unmatched_yield_rows"),
            "unmatched_pesticide_rows": report.get("unmatched_pesticide_rows"),
            "ignored_pesticide_items": report.get("ignored_pesticide_items"),
            "ignored_yield_units": report.get("ignored_yield_units"),
        }
        for group in ("rows_in", "dropped_for_missing", "duplicate_rows"):
            values = report.get(group) or {}
            expected = ("rain", "temp", "pesticides", "yields")
            if group == "dropped_for_missing":
                expected = ("rain", "temp", "pesticides")
            for key in expected:
                counters[f"{group}.{key}"] = values.get(key)
        zero = sorted(k for k, v in counters.items() if not v)
        if zero:
            problems.append(f"merge counters are zero: {', '.join(zero)}")
    return problems


def check_explore(out: Path, vif: bool) -> list[str]:
    problems = [f"{name} missing or empty" for name in EXPLORE_FILES
                if not (out / name).is_file() or (out / name).stat().st_size == 0]
    if vif:
        try:
            lines = (out / "vif.csv").read_text(encoding="utf-8").splitlines()[1:]
            values = [float(line.rsplit(",", 1)[1]) for line in lines]
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"vif.csv unreadable: {exc}"]
        if len(values) != 3 or not all(math.isfinite(v) and v >= 1.0 - 1e-9 for v in values):
            problems.append(f"vif.csv holds {values}, expected three finite values >= 1")
    return problems


def _check_cv_result(result: Any, label: str, k: int) -> list[str]:
    if not isinstance(result, dict):
        return [f"{label}: missing from report"]
    folds = result.get("per_fold") or []
    problems = []
    if len(folds) != k:
        problems.append(f"{label}: {len(folds)} folds, expected {k}")
    if not all(isinstance(f, dict) and _is_number(f.get("r2")) for f in folds):
        problems.append(f"{label}: a fold has an undefined r2")
    if not _is_number(((result.get("summary") or {}).get("r2") or {}).get("mean")):
        problems.append(f"{label}: mean r2 undefined")
    return problems


def check_cv(out: Path, models: Sequence[str], k: int) -> list[str]:
    """report.json covers exactly `models` with k defined folds each, and
    models/ holds one file per member plus an ensemble whose embedded
    members are the same documents as the member files."""
    report, problems = _load(out / "report.json")
    if problems:
        return problems
    per_model = report.get("per_model") or []
    labels = [r.get("model_label") for r in per_model if isinstance(r, dict)]
    if labels != list(models):
        problems.append(f"report lists models {labels}, expected {list(models)}")
    for label, result in zip(models, per_model):
        problems += _check_cv_result(result, label, k)
    problems += _check_cv_result(report.get("ensemble"), "ensemble", k)

    model_dir = out / "models"
    wanted = {f"{m}.json" for m in models} | {"ensemble.json"}
    present = {p.name for p in model_dir.glob("*")} if model_dir.is_dir() else set()
    if present != wanted:
        problems.append(f"models/ holds {sorted(present)}, expected {sorted(wanted)}")
        return problems
    docs = {}
    for name in models:
        doc, bad = _load(model_dir / f"{name}.json")
        if bad or not isinstance(doc, dict) or doc.get("model_kind") != name:
            problems.append(f"models/{name}.json is not a {name} model document")
        docs[name] = doc
    ensemble, bad = _load(model_dir / "ensemble.json")
    members = ((ensemble or {}).get("payload") or {}).get("members") or []
    if bad or [m.get("name") for m in members] != list(models):
        problems.append("models/ensemble.json does not list the members in order")
    elif any(m.get("model") != docs[m["name"]] for m in members):
        problems.append("models/ensemble.json members differ from the member files")
    return problems


def cv_r2(out: Path) -> tuple[float, float]:
    """(ensemble CV mean r2, lowest per-model CV mean r2) of a checked report."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    means = [r["summary"]["r2"]["mean"] for r in report["per_model"]]
    return report["ensemble"]["summary"]["r2"]["mean"], min(means)


def check_predict(path: Path, rows: int) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        values = [float(v) for v in lines[1:]]
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    problems = []
    if not lines or lines[0] != "prediction":
        problems.append(f"{path.name}: missing header")
    if len(values) != rows:
        problems.append(f"{path.name}: {len(values)} predictions for {rows} rows")
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path.name}: non-finite prediction")
    return problems
