"""Deterministic JSON and CSV persistence for panels, fitted models, reports
and tables.

Canonical form: sorted keys, two-space indentation, ASCII-escaped strings,
floats at 17 significant digits (exact float64 round-trip, with a ".0"
suffix where %g would print an integer), files ending in a single newline.
Saving what load_model returns reproduces the file byte for byte, and a
reloaded model predicts bit-identically to the original. Non-finite floats
serialize as the strings "NaN"/"Infinity"/"-Infinity"; model payloads never
contain them. A dataclass instance serializes as an object of its fields, so
write-only documents (merge and run reports) and every model payload but
cart's and the ensemble's need no hand-written layout; typed readers, which
coerce no JSON type, read the payloads back (_payload_readers). Model
documents are at format_version 2 (trees as node arrays) and load_model also
reads version 1 (nested tree nodes); panels and reports are at version 1.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import IO, Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import PANEL_VALUES, PanelTable, Scaler, fsum_columns
from .errors import FormatError, InvalidConfig, InvalidData, IoError, ShapeError
from .errors import UnsupportedVersion
from .knn import KnnModel, predict_knn_batch
from .linear import LinearModel, predict_linear
from .trees import (
    Forest,
    ForestConfig,
    GbmModel,
    Tree,
    TreeConfig,
    predict_forest_batch,
    predict_gbm_batch,
    predict_tree_batch,
)

FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 2  # trees as node arrays; version 1 model documents are still read

PANEL_COLUMNS = ("iso3", "country", "year", "item", *PANEL_VALUES)
# the JSON types a panel row's cells may hold: no booleans, no numeric strings
_PANEL_CELL_TYPES = ((str,), (str,), (int,), (str,)) + ((int, float),) * len(PANEL_VALUES)


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


# How each plain scalar type renders, looked up by exact type; numpy scalars
# render as their .item()
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: str,
    float: _format_float,
    str: json.encoder.encode_basestring_ascii,  # json.dumps(v, ensure_ascii=True)
}

# Parts a document collects before _emit hands them to the writer as one chunk;
# a slice of a scalar list rendered in one join counts one part per cell
_CHUNK_PARTS = 4096


class _Parts(list):
    """Pending text parts of a document being emitted, and where they go."""

    def __init__(self, write: Callable[[str], Any]):
        super().__init__()
        self.write = write
        self.cells = 0  # scalar-list cells held in the pending parts

    def full(self) -> bool:
        return len(self) + self.cells >= _CHUNK_PARTS

    def flush(self) -> None:
        self.write("".join(self))
        self.clear()
        self.cells = 0


def _emit(obj: Any, depth: int, parts: _Parts) -> None:
    if parts.full():
        parts.flush()
    if isinstance(obj, np.generic):
        obj = obj.item()
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        parts.append(text(obj))
        return
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise FormatError(f"non-string key {k!r} cannot be serialized")
            parts.append(f"{inner}{_SCALAR_TEXT[str](k)}: ")
            _emit(obj[k], depth + 1, parts)
            parts.append(",\n" if i < len(keys) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not items:
            parts.append("[]")
            return
        sep = f",\n{inner}"
        if all(type(item) in _SCALAR_TEXT for item in items):  # plain scalars: joined by slices
            for start in range(0, len(items), _CHUNK_PARTS):
                cells = items[start:start + _CHUNK_PARTS]
                head = f"[\n{inner}" if start == 0 else sep
                parts.append(head + sep.join(_SCALAR_TEXT[type(v)](v) for v in cells))
                parts.cells += len(cells)
                if parts.full():
                    parts.flush()
            parts.append(f"\n{pad}]")
            return
        if {list, tuple}.issuperset(map(type, items)) and all(items):
            _emit_rows(items, depth, parts)
            return
        parts.append("[\n")
        for i, item in enumerate(items):
            parts.append(inner)
            _emit(item, depth + 1, parts)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    elif is_dataclass(obj) and not isinstance(obj, type):
        _emit({f.name: getattr(obj, f.name) for f in fields(obj)}, depth, parts)
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


# Printf specs of row cells. %.17g prints an integral float below 1e17 with
# no point and no exponent, so it takes _format_float's ".0"; %s takes the
# canonical text of strings, bools, None, non-finite floats and mixed columns.
_FLOAT, _INTEGRAL_FLOAT, _TEXT = "%.17g", "%.17g.0", "%s"


class _Memo(dict):
    """fn of each key looked up, computed once."""

    def __init__(self, fn: Callable[[Any], str]):
        super().__init__()
        self.fn = fn

    def __missing__(self, key: Any) -> str:
        value = self[key] = self.fn(key)
        return value


def _column_specs(column: tuple, strings: _Memo) -> Optional[tuple[Any, Sequence]]:
    """(spec, or one spec per cell; the arguments of those specs) that render
    a column of row cells canonically, or None when a cell is no plain scalar."""
    kinds = set(map(type, column))
    if kinds == {float}:
        values = np.array(column)
        integral = (np.trunc(values) == values) & (np.abs(values) < 1e17)
        bad = np.flatnonzero(~np.isfinite(values)).tolist()
        if not (bad or integral.any()):
            return _FLOAT, column
        specs = list(map((_FLOAT, _INTEGRAL_FLOAT).__getitem__, integral.tolist()))
        if bad:
            column = list(column)
            for i in bad:
                specs[i], column[i] = _TEXT, _format_float(column[i])
        return specs, column
    if kinds == {str}:
        return _TEXT, list(map(strings.__getitem__, column))
    if kinds == {int}:
        return "%d", column
    if kinds <= _SCALAR_TEXT.keys():
        return _TEXT, [_SCALAR_TEXT[type(v)](v) for v in column]
    return None


def _rows_text(rows: Sequence, row_sep: str, strings: _Memo, templates: _Memo) -> Optional[str]:
    """The cells of rows of one length, row after row, rendered by one %
    operation; None when a cell is no plain scalar. A row's template is
    templates[its cells' specs], and rows are joined by row_sep."""
    columns = [_column_specs(column, strings) for column in zip(*rows)]
    if None in columns:
        return None
    specs = (repeat(s, len(rows)) if type(s) is str else s for s, _ in columns)
    template = row_sep.join(map(templates.__getitem__, zip(*specs)))
    return template % tuple(chain.from_iterable(zip(*(args for _, args in columns))))


def _emit_rows(rows: Sequence, depth: int, parts: _Parts) -> None:
    """Write a list of non-empty lists and tuples as _emit writes any list,
    a chunk of rows of one length and about _CHUNK_PARTS cells at a time
    (_rows_text). A chunk that _rows_text cannot render, and a row over
    _CHUNK_PARTS cells, are written item by item."""
    pad, inner, cell_pad = ("  " * (depth + i) for i in range(3))
    row_sep = f"\n{inner}],\n{inner}[\n{cell_pad}"
    strings = _Memo(_SCALAR_TEXT[str])
    templates = _Memo(f",\n{cell_pad}".join)  # a row's template, by its cells' specs
    start = 0
    for width, run in groupby(map(len, rows)):
        stop = start + sum(1 for _ in run)
        step = max(1, _CHUNK_PARTS // width)
        for first in range(start, stop, step):
            chunk = rows[first:min(first + step, stop)]
            lead = f",\n{inner}" if first else f"[\n{inner}"
            text = None if width > _CHUNK_PARTS else _rows_text(chunk, row_sep, strings, templates)
            if text is None:
                for i, row in enumerate(chunk):
                    parts.append(lead if i == 0 else f",\n{inner}")
                    _emit(row, depth + 1, parts)
                continue
            parts += (f"{lead}[\n{cell_pad}", text, f"\n{inner}]")
            parts.flush()
        start = stop
    parts.append(f"\n{pad}]")


def _write_canonical(obj: Any, write: Callable[[str], Any]) -> None:
    parts = _Parts(write)
    _emit(obj, 0, parts)
    parts.flush()


def canonical_json(obj: Any) -> str:
    """Render obj in canonical form (no trailing newline)."""
    chunks: list[str] = []
    _write_canonical(obj, chunks.append)
    return "".join(chunks)


def _write_file(path: str | Path, fill: Callable[[IO[str]], Any]) -> None:
    """Write a UTF-8 file through fill. The text goes to a temporary file
    beside the target, which replaces the target only once it is complete,
    so a failed write leaves the old file as it was and no temporary file.
    A target that exists but is no regular file (a device or a pipe) is
    written in place."""
    target = os.path.realpath(path)  # through a link, the file it names is replaced
    in_place = os.path.exists(target) and not os.path.isfile(target)
    head, name = os.path.split(target)
    tmp = target if in_place else os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "w" if in_place else "x", encoding="utf-8") as fh:
            fill(fh)
        if not in_place:
            os.replace(tmp, target)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(tmp)  # still there only when the write failed


def write_json(obj: Any, path: str | Path) -> None:
    """Write obj in canonical form plus a newline, a chunk of parts at a time;
    a document that fails to serialize leaves the old file unchanged."""

    def fill(fh: IO[str]) -> None:
        _write_canonical(obj, fh.write)
        fh.write("\n")

    _write_file(path, fill)


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """A header line, then one line per row; floats at 17 significant digits."""

    def cell(v) -> str:
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    _write_file(path, lambda fh: fh.write(text))


def read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"invalid JSON in {path}: nested too deeply") from exc


def _check_version(doc: Any, path: str | Path, versions=(FORMAT_VERSION,)) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in versions:
        raise UnsupportedVersion(f"{path}: format_version {version!r} not supported")
    return doc


# ------------------------------------------------------------------- models


def _typed(what: str, *types: type, convert: Callable = lambda v: v) -> Callable:
    """A reader of a JSON value whose type is exactly one of types."""

    def read(v: Any) -> Any:
        if type(v) not in types:
            raise ValueError(f"expected {what}, got {reprlib.repr(v)}")
        return convert(v)

    return read


_number = _typed("a number", int, float, convert=float)
_integer = _typed("an integer", int)
_flag = _typed("true or false", bool)
_name = _typed("a string", str)


def _tuple(read: Callable) -> Callable[[Any], tuple]:
    """A reader of a JSON list whose items read reads, as a tuple."""
    return _typed("a list", list, convert=lambda v: tuple(map(read, v)))


def _floats(v: Any) -> np.ndarray:
    """A list of numbers, or of equal-length lists of them, as a float array."""
    rows = type(v) is list and v and all(type(row) is list for row in v)
    return np.array(_tuple(_tuple(_number) if rows else _number)(v), dtype=float)


def _optional(read: Callable) -> Callable:
    """read, or null as None."""
    return lambda v: None if v is None else read(v)


def _record(build: Callable, **readers: Callable) -> Callable:
    """A reader of a JSON object of exactly the keys of readers, built by build."""

    def read(v: Any) -> Any:
        if type(v) is not dict or v.keys() != readers.keys():
            got = sorted(v) if type(v) is dict else reprlib.repr(v)
            raise ValueError(f"expected an object with the keys {sorted(readers)}, got {got}")
        return build(**{key: read_value(v[key]) for key, read_value in readers.items()})

    return read


def _payload_readers(read_tree: Callable, metadata: dict) -> dict:
    """The payload reader of each model kind, for a document whose trees
    read_tree reads and whose linear or k-NN model carries `metadata`. The
    ensemble's returns (name, model document) pairs, for _from_doc to read."""
    scaler = _record(Scaler, means=_floats, stds=_floats, passthrough=_tuple(_flag))
    linear = _record(partial(LinearModel, metadata=metadata), coefficients=_floats,
                     intercept=_number, scaler=_optional(scaler), feature_names=_tuple(_name))
    tree_config = _record(TreeConfig, max_depth=_integer, min_samples_leaf=_integer,
                          min_samples_split=_optional(_integer))
    forest_config = _record(ForestConfig, n_trees=_integer,
                            features_per_split=_optional(_integer), bootstrap=_flag,
                            tree=tree_config, seed=_integer)
    member = _record(lambda name, model: (name, model), name=_name, model=lambda doc: doc)
    return {
        "ols": linear,
        "sgd": linear,
        "cart": _record(lambda tree: tree, tree=read_tree),
        "forest": _record(Forest, trees=_tuple(read_tree), config=forest_config),
        "gbm": _record(GbmModel, init_value=_number, stages=_tuple(read_tree),
                       learning_rate=_number),
        "knn": _record(partial(KnnModel, metadata=metadata), x_train=_floats,
                       y_train=_floats, k=_integer, scaler=scaler, feature_names=_tuple(_name)),
        "ensemble": _record(lambda members: members, members=_tuple(member)),
    }


def _v1_tree(node: Any) -> Tree:
    """A version 1 nested tree ({"kind": "leaf"/"split", ...}) as a Tree,
    its nodes in preorder; iterative, so depth raises no RecursionError."""
    records: list[list] = []
    stack = [(node, None)]  # (node, record whose right child it is)
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            parent[3] = len(records)
        kind = node["kind"]
        if kind == "leaf":
            records.append([-1, 0.0, -1, -1, node["value"], node["n_samples"]])
        elif kind == "split":
            record = [node["feature_index"], node["threshold"], len(records) + 1, -1, 0.0, 0]
            records.append(record)
            stack += [(node["right"], record), (node["left"], None)]
        else:
            raise ValueError(f"unknown tree node kind {kind!r}")
    return Tree.from_records(records)


def _predict_ensemble(e: EnsembleModel, x: np.ndarray) -> np.ndarray:
    member = np.stack([predict_model(m, x) for _, m in e.members])
    return fsum_columns(member) / len(e.members)


def _ensemble_n_features(e: EnsembleModel) -> Optional[int]:
    counts = (KINDS[model_kind_of(m)].n_features(m) for _, m in e.members)
    return next((c for c in counts if c is not None), None)


class ModelKind(NamedTuple):
    """How one kind of fitted model is recognised, applied, and sized: the
    input column count the model records, or None (trees record none)."""

    model_type: type
    predict: Callable[[Any, np.ndarray], np.ndarray]
    n_features: Callable[[Any], Optional[int]]


_LINEAR = ModelKind(LinearModel, lambda m, x: predict_linear(m, x), lambda m: len(m.coefficients))

# The one definition of the model kinds, in file-format order. Predict
# entries look their predictor up by name when called, so wrappers installed
# on this module's globals (perfbench's tracer) see every prediction.
KINDS: dict[str, ModelKind] = {
    "ols": _LINEAR,
    "sgd": _LINEAR,
    "cart": ModelKind(Tree, lambda t, x: predict_tree_batch(t, x), lambda t: None),
    "forest": ModelKind(Forest, lambda f, x: predict_forest_batch(f, x), lambda f: None),
    "gbm": ModelKind(GbmModel, lambda m, x: predict_gbm_batch(m, x), lambda m: None),
    "knn": ModelKind(KnnModel, lambda m, x: predict_knn_batch(m, x),
                     lambda m: m.x_train.shape[1]),
    "ensemble": ModelKind(EnsembleModel, _predict_ensemble, _ensemble_n_features),
}

MODEL_KINDS = tuple(KINDS)


def model_kind_of(model: Any) -> str:
    for kind, entry in KINDS.items():
        if isinstance(model, entry.model_type):
            if entry is _LINEAR:  # ols and sgd share a type; only SGD records a config
                return "sgd" if "config" in model.metadata else "ols"
            return kind
    raise InvalidConfig(f"no model kind for {type(model).__name__}")


def _to_doc(model: Any) -> dict:
    kind = model_kind_of(model)
    if kind == "cart":
        payload: Any = {"tree": model}
    elif kind == "ensemble":
        payload = {"members": [{"name": n, "model": _to_doc(m)} for n, m in model.members]}
    else:  # the model's fields, which _payload_readers declares
        payload = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "metadata"}
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_kind": kind,
        "payload": payload,
        "fit_metadata": dict(getattr(model, "metadata", {})),
    }


def _from_doc(doc: Any, path: str | Path) -> Any:
    if not isinstance(doc, dict):  # an ensemble member's model may be any JSON value
        raise FormatError(
            f"{path}: model document must be an object, got {type(doc).__name__}"
        )
    version = _check_version(doc, path, (1, MODEL_FORMAT_VERSION))["format_version"]
    kind = doc.get("model_kind")
    if kind not in MODEL_KINDS:  # a tuple, so an unhashable kind compares unequal
        raise FormatError(f"{path}: unknown model_kind {kind!r}")
    metadata = doc.get("fit_metadata", {})
    if type(metadata) is not dict:
        raise FormatError(f"{path}: fit_metadata must be an object")
    read_tree = _v1_tree if version == 1 else lambda payload: Tree(**payload)
    try:
        model = _payload_readers(read_tree, dict(metadata))[kind](doc["payload"])
        if kind == "ensemble":  # members read here: two stack frames a nesting level
            model = EnsembleModel(tuple((name, _from_doc(m, path)) for name, m in model))
    except (KeyError, TypeError, ValueError, OverflowError, InvalidConfig, ShapeError) as exc:
        # InvalidConfig, ShapeError: a constructor rejected the stored values
        raise FormatError(f"{path}: corrupted {kind} payload: {exc}") from exc
    return model


def save_model(model: Any, path: str | Path) -> None:
    """Write a fitted model in canonical form; its kind follows from its type."""
    write_json(_to_doc(model), path)


def load_model(path: str | Path) -> Any:
    """Read a model document of version 1 or 2; validates every version and payload."""
    return _from_doc(read_json(path), path)


def predict_model(model: Any, x: np.ndarray) -> np.ndarray:
    """Predict with any supported model object (dispatch by kind) on enough
    columns; a non-finite prediction, an ensemble member's included, raises
    InvalidData with its row."""
    try:
        kind = model_kind_of(model)
    except InvalidConfig:
        raise InvalidConfig(f"cannot predict with {type(model).__name__}") from None
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # out is checked below
            out = KINDS[kind].predict(model, x)
    except IndexError as exc:
        raise ShapeError(f"input has too few columns for this model: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        raise InvalidData(f"{kind} predicts {out[bad[0]]}", row=int(bad[0]))
    return out


# -------------------------------------------------------------------- panel


def save_panel(table: PanelTable, path: str | Path) -> None:
    columns = zip(table.keys, table.country, table.values.tolist())
    rows = [[iso3, country, year, item, *v] for (iso3, year, item), country, v in columns]
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
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise FormatError(f"{path}: provenance must be an object")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise FormatError(f"{path}: rows must be a list")
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == len(PANEL_COLUMNS)
                and all(type(v) in t for v, t in zip(row, _PANEL_CELL_TYPES))):
            raise FormatError(f"{path}: panel row {i} is not iso3, country, year, item "
                              f"as JSON strings and an integer, then numbers: {row!r}")
    try:
        return PanelTable(
            keys=tuple((iso3, year, item) for iso3, _, year, item, *_ in rows),
            country=tuple(row[1] for row in rows),
            values=np.array([row[4:] for row in rows], dtype=float).reshape(
                len(rows), len(PANEL_VALUES)
            ),
            provenance=provenance,
        )
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: corrupted panel payload: {exc}") from exc


# ------------------------------------------------------------------- report


def write_report(report: dict, path: str | Path) -> None:
    """Write the sections of a cross-validation run as a run_report document."""
    write_json({"format_version": FORMAT_VERSION, "kind": "run_report", **report}, path)


__all__ = [
    "FORMAT_VERSION",
    "MODEL_FORMAT_VERSION",
    "MODEL_KINDS",
    "KINDS",
    "ModelKind",
    "PANEL_COLUMNS",
    "EnsembleModel",
    "canonical_json",
    "write_json",
    "write_csv",
    "read_json",
    "model_kind_of",
    "save_model",
    "load_model",
    "predict_model",
    "save_panel",
    "load_panel",
    "write_report",
]
