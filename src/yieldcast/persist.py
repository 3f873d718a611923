"""Deterministic JSON persistence for panels, fitted models, and run reports.

Canonical form: sorted keys, two-space indentation, ASCII-escaped strings,
floats at 17 significant digits (exact float64 round-trip, with a ".0"
suffix where %g would print an integer), files ending in a single newline.
Saving what load_model returns reproduces the file byte for byte, and a
reloaded model predicts bit-identically to the original. Non-finite floats
serialize as the strings "NaN"/"Infinity"/"-Infinity"; model payloads never
contain them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from .core import PanelRow, PanelTable, Scaler, fsum_columns
from .errors import FormatError, InvalidConfig, IoError, UnsupportedVersion
from .evaluate import CvResult, KappaResult
from .knn import KnnModel, predict_knn_batch
from .linear import LinearModel, predict_linear
from .trees import (
    Forest,
    ForestConfig,
    GbmModel,
    Internal,
    Leaf,
    TreeConfig,
    TreeNode,
    predict_forest_batch,
    predict_gbm_batch,
    predict_tree_batch,
)

FORMAT_VERSION = 1

MODEL_KINDS = ("ols", "sgd", "cart", "forest", "gbm", "knn", "ensemble")

PANEL_COLUMNS = (
    "iso3",
    "country",
    "year",
    "item",
    "rain_mm",
    "temp_c",
    "pesticides_tonnes",
    "yield_hg_ha",
)


@dataclass(frozen=True)
class EnsembleModel:
    """Fitted members whose predictions are averaged with equal weight."""

    members: tuple[tuple[str, Any], ...]  # (name, fitted model)

    def __post_init__(self):
        if len(self.members) < 2:
            raise InvalidConfig("ensemble needs at least 2 members")


# ---------------------------------------------------------------- canonical form


def _format_float(v: float) -> str:
    if math.isnan(v):
        return '"NaN"'
    if math.isinf(v):
        return '"Infinity"' if v > 0 else '"-Infinity"'
    s = format(v, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _emit(obj: Any, depth: int, parts: list[str]) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise FormatError(f"non-string key {k!r} cannot be serialized")
            parts.append(f"{inner}{json.dumps(k, ensure_ascii=True)}: ")
            _emit(obj[k], depth + 1, parts)
            parts.append(",\n" if i < len(keys) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(items):
            parts.append(inner)
            _emit(item, depth + 1, parts)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Render obj in canonical form (no trailing newline)."""
    parts: list[str] = []
    _emit(obj, 0, parts)
    return "".join(parts)


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(obj: Any, path: str | Path) -> None:
    _write_text(path, canonical_json(obj) + "\n")


def read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _check_version(doc: Any, path: str | Path) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: format_version {version!r} not supported")
    return doc


# ------------------------------------------------------------------- models


def _scaler_to_dict(s: Optional[Scaler]) -> Optional[dict]:
    if s is None:
        return None
    return {
        "means": s.means,
        "stds": s.stds,
        "passthrough": list(s.passthrough),
    }


def _scaler_from_dict(d: Optional[dict]) -> Optional[Scaler]:
    if d is None:
        return None
    return Scaler(
        means=np.asarray(d["means"], dtype=float),
        stds=np.asarray(d["stds"], dtype=float),
        passthrough=tuple(bool(b) for b in d["passthrough"]),
    )


def _tree_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "value": node.value, "n_samples": node.n_samples}
    return {
        "kind": "split",
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(d: dict) -> TreeNode:
    if d["kind"] == "leaf":
        return Leaf(value=float(d["value"]), n_samples=int(d["n_samples"]))
    if d["kind"] == "split":
        return Internal(
            feature_index=int(d["feature_index"]),
            threshold=float(d["threshold"]),
            left=_tree_from_dict(d["left"]),
            right=_tree_from_dict(d["right"]),
        )
    raise FormatError(f"unknown tree node kind {d.get('kind')!r}")


def _tree_config_to_dict(cfg: TreeConfig) -> dict:
    return {
        "max_depth": cfg.max_depth,
        "min_samples_leaf": cfg.min_samples_leaf,
        "min_samples_split": cfg.min_samples_split,
    }


def _tree_config_from_dict(d: dict) -> TreeConfig:
    return TreeConfig(
        max_depth=int(d["max_depth"]),
        min_samples_leaf=int(d["min_samples_leaf"]),
        min_samples_split=None
        if d["min_samples_split"] is None
        else int(d["min_samples_split"]),
    )


def model_kind_of(model: Any) -> str:
    if isinstance(model, LinearModel):
        return "sgd" if "config" in model.metadata else "ols"
    if isinstance(model, (Leaf, Internal)):
        return "cart"
    if isinstance(model, Forest):
        return "forest"
    if isinstance(model, GbmModel):
        return "gbm"
    if isinstance(model, KnnModel):
        return "knn"
    if isinstance(model, EnsembleModel):
        return "ensemble"
    raise InvalidConfig(f"no model kind for {type(model).__name__}")


def _model_to_doc(model: Any, kind: str) -> dict:
    if kind in ("ols", "sgd"):
        payload = {
            "coefficients": model.coefficients,
            "intercept": model.intercept,
            "scaler": _scaler_to_dict(model.scaler),
            "feature_names": list(model.feature_names),
        }
        fit_metadata = dict(model.metadata)
    elif kind == "cart":
        payload = {"tree": _tree_to_dict(model)}
        fit_metadata = {}
    elif kind == "forest":
        payload = {
            "trees": [_tree_to_dict(t) for t in model.trees],
            "config": {
                "n_trees": model.config.n_trees,
                "features_per_split": model.config.features_per_split,
                "bootstrap": model.config.bootstrap,
                "seed": model.config.seed,
                "tree": _tree_config_to_dict(model.config.tree),
            },
        }
        fit_metadata = {}
    elif kind == "gbm":
        payload = {
            "init_value": model.init_value,
            "learning_rate": model.learning_rate,
            "stages": [_tree_to_dict(t) for t in model.stages],
        }
        fit_metadata = {}
    elif kind == "knn":
        payload = {
            "x_train": model.x_train,
            "y_train": model.y_train,
            "k": model.k,
            "scaler": _scaler_to_dict(model.scaler),
            "feature_names": list(model.feature_names),
        }
        fit_metadata = dict(model.metadata)
    elif kind == "ensemble":
        payload = {
            "members": [
                {"name": name, "model": _model_to_doc(m, model_kind_of(m))}
                for name, m in model.members
            ]
        }
        fit_metadata = {}
    else:
        raise InvalidConfig(f"unknown model kind {kind!r}")
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": kind,
        "payload": payload,
        "fit_metadata": fit_metadata,
    }


def _model_from_doc(doc: dict, path: str | Path) -> Any:
    kind = doc.get("model_kind")
    if kind not in MODEL_KINDS:
        raise FormatError(f"{path}: unknown model_kind {kind!r}")
    try:
        payload = doc["payload"]
        if kind in ("ols", "sgd"):
            return LinearModel(
                coefficients=np.asarray(payload["coefficients"], dtype=float),
                intercept=float(payload["intercept"]),
                scaler=_scaler_from_dict(payload["scaler"]),
                feature_names=tuple(payload["feature_names"]),
                metadata=dict(doc.get("fit_metadata", {})),
            )
        if kind == "cart":
            return _tree_from_dict(payload["tree"])
        if kind == "forest":
            cfg = payload["config"]
            return Forest(
                trees=tuple(_tree_from_dict(t) for t in payload["trees"]),
                config=ForestConfig(
                    n_trees=int(cfg["n_trees"]),
                    features_per_split=None
                    if cfg["features_per_split"] is None
                    else int(cfg["features_per_split"]),
                    bootstrap=bool(cfg["bootstrap"]),
                    tree=_tree_config_from_dict(cfg["tree"]),
                    seed=int(cfg["seed"]),
                ),
            )
        if kind == "gbm":
            return GbmModel(
                init_value=float(payload["init_value"]),
                stages=tuple(_tree_from_dict(t) for t in payload["stages"]),
                learning_rate=float(payload["learning_rate"]),
            )
        if kind == "knn":
            return KnnModel(
                x_train=np.asarray(payload["x_train"], dtype=float),
                y_train=np.asarray(payload["y_train"], dtype=float),
                k=int(payload["k"]),
                scaler=_scaler_from_dict(payload["scaler"]),
                feature_names=tuple(payload["feature_names"]),
                metadata=dict(doc.get("fit_metadata", {})),
            )
        return EnsembleModel(
            members=tuple(
                (m["name"], _model_from_doc(m["model"], path))
                for m in payload["members"]
            )
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: corrupted {kind} payload: {exc}") from exc


def save_model(model: Any, path: str | Path, kind: Optional[str] = None) -> None:
    """Write a fitted model in canonical form; kind is inferred by type."""
    kind = kind if kind is not None else model_kind_of(model)
    if kind not in MODEL_KINDS:
        raise InvalidConfig(f"unknown model kind {kind!r}")
    write_json(_model_to_doc(model, kind), path)


def load_model(path: str | Path) -> Any:
    """Read a model written by save_model; validates version and payload."""
    doc = _check_version(read_json(path), path)
    return _model_from_doc(doc, path)


def predict_model(model: Any, x: np.ndarray) -> np.ndarray:
    """Predict with any supported model object (dispatch by type)."""
    if isinstance(model, LinearModel):
        return predict_linear(model, x)
    if isinstance(model, (Leaf, Internal)):
        return predict_tree_batch(model, x)
    if isinstance(model, Forest):
        return predict_forest_batch(model, x)
    if isinstance(model, GbmModel):
        return predict_gbm_batch(model, x)
    if isinstance(model, KnnModel):
        return predict_knn_batch(model, x)
    if isinstance(model, EnsembleModel):
        member = np.stack([predict_model(m, x) for _, m in model.members])
        return fsum_columns(member) / len(model.members)
    raise InvalidConfig(f"cannot predict with {type(model).__name__}")


# -------------------------------------------------------------------- panel


def save_panel(table: PanelTable, path: str | Path) -> None:
    rows = [[getattr(r, c) for c in PANEL_COLUMNS] for r in table.rows]
    write_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": "panel",
            "columns": list(PANEL_COLUMNS),
            "rows": rows,
            "provenance": table.provenance,
        },
        path,
    )


def load_panel(path: str | Path) -> PanelTable:
    doc = _check_version(read_json(path), path)
    if doc.get("kind") != "panel":
        raise FormatError(f"{path}: not a panel file")
    if doc.get("columns") != list(PANEL_COLUMNS):
        raise FormatError(f"{path}: unexpected panel columns {doc.get('columns')!r}")
    try:
        rows = tuple(
            PanelRow(
                iso3=str(v[0]),
                country=str(v[1]),
                year=int(v[2]),
                item=str(v[3]),
                rain_mm=float(v[4]),
                temp_c=float(v[5]),
                pesticides_tonnes=float(v[6]),
                yield_hg_ha=float(v[7]),
            )
            for v in doc["rows"]
        )
        return PanelTable(rows=rows, provenance=doc.get("provenance", {}))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: corrupted panel payload: {exc}") from exc


# ------------------------------------------------------------------- report


@dataclass(frozen=True)
class RunReport:
    """Everything a cross-validation run produced, reproducible from the
    environment section (inputs, seeds, configs) it records."""

    environment: dict
    merge_report: dict
    eda: dict
    per_model: tuple[CvResult, ...]
    ensemble: Optional[CvResult]
    kappa: dict[str, Any]  # KappaResult, or {"undefined": reason}
    holdout: dict
    table: str

    def to_dict(self) -> dict:
        kappa = {
            k: v.to_dict() if isinstance(v, KappaResult) else v
            for k, v in self.kappa.items()
        }
        return {
            "format_version": FORMAT_VERSION,
            "kind": "run_report",
            "environment": self.environment,
            "merge_report": self.merge_report,
            "eda": self.eda,
            "per_model": [r.to_dict() for r in self.per_model],
            "ensemble": None if self.ensemble is None else self.ensemble.to_dict(),
            "kappa": kappa,
            "holdout": self.holdout,
            "table": self.table,
        }


def write_report(report: RunReport, path: str | Path) -> None:
    write_json(report.to_dict(), path)


__all__ = [
    "FORMAT_VERSION",
    "MODEL_KINDS",
    "PANEL_COLUMNS",
    "EnsembleModel",
    "canonical_json",
    "write_json",
    "read_json",
    "model_kind_of",
    "save_model",
    "load_model",
    "predict_model",
    "save_panel",
    "load_panel",
    "RunReport",
    "write_report",
]
