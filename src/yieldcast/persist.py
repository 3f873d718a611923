"""Deterministic JSON and CSV persistence for panels, fitted models, reports
and tables.

Canonical form: sorted keys, two-space indentation, ASCII-escaped strings,
floats at 17 significant digits (exact float64 round-trip, with a ".0"
suffix where %g would print an integer), files ending in a single newline.
Every model document must record the input columns its model was fit on,
as a nonempty top-level feature_names (an ensemble's, in each member too).
With (model, names) = load_model(f), save_model(model, g, names) writes g
byte for byte equal to a file f that save_model wrote, and a reloaded model
predicts bit-identically to the original. Non-finite floats serialize as
the strings "NaN"/"Infinity"/"-Infinity"; model payloads never contain them.
A dataclass instance serializes as an object of its fields, so write-only
documents (merge and run reports) and every model payload but cart's and
the ensemble's need no hand-written layout; typed readers, which coerce no
JSON type, read the payloads back (_payload_readers). Model documents are
at format_version 2 (trees as node arrays), the one version load_model
reads; panels and reports are at version 1.

write_json hands a document to its file a chunk at a time. A list of
scalars renders a slice per join, and every other value one at a time,
except a panel's rows: save_panel renders those a chunk of rows per %
operation, straight from the table's columns (_emit_panel_rows).
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial
from itertools import chain, product
from pathlib import Path
from typing import IO, Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import PANEL_VALUES, PanelTable, Scaler, float_matrix, fsum_columns
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
MODEL_FORMAT_VERSION = 2  # trees as node arrays, and feature_names required
_REWRITE = "re-run `yieldcast cv` to write the model file again"  # how to mend one not read

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
    elif isinstance(obj, _PanelRows):  # a NamedTuple, so ahead of the list case
        _emit_panel_rows(obj.table, depth, parts)
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


class _PanelRows(NamedTuple):
    """The rows of a panel document: _emit writes them as their list of row
    lists, straight from the table's columns (_emit_panel_rows)."""

    table: PanelTable


def _emit_panel_rows(table: PanelTable, depth: int, parts: _Parts) -> None:
    """Write a panel's rows as _emit writes their list of row lists, a chunk
    of about _CHUNK_PARTS cells at a time, each by one % operation. The
    cells are fixed: iso3, country, year, item, then finite floats, each
    %.17g, or %.17g.0 where %.17g prints no point (_format_float)."""
    if not len(table):
        parts.append("[]")
        return
    pad, inner, cell = ("  " * (depth + i) for i in range(3))
    # a row's template by its floats' integral bits, the first column highest
    templates = [f",\n{cell}".join(("%s", "%s", "%d", "%s", *specs))
                 for specs in product(("%.17g", "%.17g.0"), repeat=len(PANEL_VALUES))]
    bits = 2 ** np.arange(len(PANEL_VALUES))[::-1]
    row_sep = f"\n{inner}],\n{inner}[\n{cell}"
    text = cache(_SCALAR_TEXT[str])
    step = max(1, _CHUNK_PARTS // len(PANEL_COLUMNS))
    for start in range(0, len(table), step):
        stop = min(start + step, len(table))
        values = table.values[start:stop]
        codes = ((np.trunc(values) == values) & (np.abs(values) < 1e17)) @ bits
        iso3, year, item = zip(*table.keys[start:stop])
        cells = zip(map(text, iso3), map(text, table.country[start:stop]), year,
                    map(text, item), *values.T.tolist())
        rows = row_sep.join(map(templates.__getitem__, codes.tolist()))
        lead = f"[\n{inner}" if start == 0 else f",\n{inner}"
        parts += (f"{lead}[\n{cell}", rows % tuple(chain.from_iterable(cells)), f"\n{inner}]")
        parts.flush()
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


_CSV_SPECIAL = frozenset(',"\r\n')  # characters that a CSV field holds only in quotes


def _csv_field(v: str) -> str:
    """v as one RFC 4180 field: in quotes, its own doubled, if it holds _CSV_SPECIAL."""
    return v if _CSV_SPECIAL.isdisjoint(v) else '"' + v.replace('"', '""') + '"'


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """A header line, then one line per row; floats at 17 significant digits,
    strings quoted where RFC 4180 needs it (_csv_field)."""

    def cell(v) -> str:
        return format(v, ".17g") if isinstance(v, float) else _csv_field(str(v))

    lines = [",".join(map(_csv_field, header))]
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


def _check_version(doc: Any, path: str | Path, version=FORMAT_VERSION, mend="") -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    found = doc.get("format_version")
    if type(found) is not int or found != version:
        raise UnsupportedVersion(f"{path}: format_version {found!r} not supported{mend}")
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


def _tree(payload: Any) -> Tree:
    """A tree from its node arrays, which Tree checks."""
    return Tree(**payload)


def _payload_readers(metadata: dict) -> dict:
    """The payload reader of each model kind, for a document whose linear or
    k-NN model carries `metadata`. The ensemble's returns (name, model
    document) pairs, for _from_doc to read."""
    scaler = _record(Scaler, means=_floats, stds=_floats, passthrough=_tuple(_flag))
    linear = _record(partial(LinearModel, metadata=metadata), coefficients=_floats,
                     intercept=_number, scaler=_optional(scaler))
    tree_config = _record(TreeConfig, max_depth=_integer, min_samples_leaf=_integer,
                          min_samples_split=_optional(_integer))
    forest_config = _record(ForestConfig, n_trees=_integer,
                            features_per_split=_optional(_integer), bootstrap=_flag,
                            tree=tree_config, seed=_integer)
    member = _record(lambda name, model: (name, model), name=_name, model=lambda doc: doc)
    return {
        "ols": linear,
        "sgd": linear,
        "cart": _record(lambda tree: tree, tree=_tree),
        "forest": _record(Forest, trees=_tuple(_tree), config=forest_config),
        "gbm": _record(GbmModel, init_value=_number, stages=_tuple(_tree),
                       learning_rate=_number),
        "knn": _record(partial(KnnModel, metadata=metadata), x_train=_floats,
                       y_train=_floats, k=_integer, scaler=scaler),
        "ensemble": _record(lambda members: members, members=_tuple(member)),
    }


def _predict_ensemble(e: EnsembleModel, x: np.ndarray) -> np.ndarray:
    member = np.stack([predict_model(m, x) for _, m in e.members])
    return fsum_columns(member) / len(e.members)


class ModelKind(NamedTuple):
    """How one kind of fitted model is recognised and applied."""

    model_type: type
    predict: Callable[[Any, np.ndarray], np.ndarray]


_LINEAR = ModelKind(LinearModel, lambda m, x: predict_linear(m, x))

# The one definition of the model kinds, in file-format order. Predict
# entries look their predictor up by name when called, so wrappers installed
# on this module's globals (perfbench's tracer) see every prediction.
KINDS: dict[str, ModelKind] = {
    "ols": _LINEAR,
    "sgd": _LINEAR,
    "cart": ModelKind(Tree, lambda t, x: predict_tree_batch(t, x)),
    "forest": ModelKind(Forest, lambda f, x: predict_forest_batch(f, x)),
    "gbm": ModelKind(GbmModel, lambda m, x: predict_gbm_batch(m, x)),
    "knn": ModelKind(KnnModel, lambda m, x: predict_knn_batch(m, x)),
    "ensemble": ModelKind(EnsembleModel, _predict_ensemble),
}

MODEL_KINDS = tuple(KINDS)


def model_kind_of(model: Any) -> str:
    for kind, entry in KINDS.items():
        if isinstance(model, entry.model_type):
            if entry is _LINEAR:  # ols and sgd share a type; only SGD records a config
                return "sgd" if "config" in model.metadata else "ols"
            return kind
    raise InvalidConfig(f"no model kind for {type(model).__name__}")


def _to_doc(model: Any, feature_names: tuple[str, ...]) -> dict:
    kind = model_kind_of(model)
    if kind == "cart":
        payload: Any = {"tree": model}
    elif kind == "ensemble":
        payload = {"members": [{"name": n, "model": _to_doc(m, feature_names)}
                               for n, m in model.members]}
    else:  # the model's fields, which _payload_readers declares
        payload = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "metadata"}
    return {
        "feature_names": feature_names,
        "format_version": MODEL_FORMAT_VERSION,
        "model_kind": kind,
        "payload": payload,
        "fit_metadata": dict(getattr(model, "metadata", {})),
    }


def _from_doc(doc: Any, path: str | Path) -> tuple[Any, tuple[str, ...]]:
    if not isinstance(doc, dict):  # an ensemble member's model may be any JSON value
        raise FormatError(
            f"{path}: model document must be an object, got {type(doc).__name__}"
        )
    _check_version(doc, path, MODEL_FORMAT_VERSION, mend=f": {_REWRITE}")
    kind = doc.get("model_kind")
    if kind not in MODEL_KINDS:  # a tuple, so an unhashable kind compares unequal
        raise FormatError(f"{path}: unknown model_kind {kind!r}")
    metadata = doc.get("fit_metadata", {})
    if type(metadata) is not dict:
        raise FormatError(f"{path}: fit_metadata must be an object")
    try:
        names = _tuple(_name)(doc.get("feature_names", []))
    except ValueError as exc:
        raise FormatError(f"{path}: feature_names: {exc}") from exc
    if not names:
        raise FormatError(f"{path}: the {kind} model records no feature_names: {_REWRITE}")
    try:
        model = _payload_readers(dict(metadata))[kind](doc.get("payload"))
        if kind == "ensemble":  # members read here: two stack frames a nesting level
            members = tuple((name, *_from_doc(m, path)) for name, m in model)
            for name, _, member_names in members:
                if member_names != names:
                    raise ValueError(f"member {name!r} records other feature_names than "
                                     f"the ensemble's: {list(member_names)}")
            model = EnsembleModel(tuple((name, m) for name, m, _ in members))
        if kind == "forest" and (model.config.features_per_split or 0) > len(names):
            raise ValueError(f"features_per_split {model.config.features_per_split} is "
                             f"above the {len(names)} feature names")
    except (KeyError, TypeError, ValueError, OverflowError, InvalidConfig, ShapeError) as exc:
        # InvalidConfig, ShapeError: a constructor rejected the stored values
        raise FormatError(f"{path}: corrupted {kind} payload: {exc}") from exc
    return model, names


def save_model(model: Any, path: str | Path, feature_names: Sequence[str]) -> None:
    """Write a fitted model in canonical form, with the (required) names of
    the input columns it was fit on; its kind follows from its type."""
    if not feature_names:
        raise InvalidConfig(f"{path}: a model file needs the names of its input columns")
    write_json(_to_doc(model, tuple(feature_names)), path)


def load_model(path: str | Path) -> tuple[Any, tuple[str, ...]]:
    """(model, the names of its input columns) from a version 2 model
    document; validates every version, payload and name list. A document
    that records no names, and an ensemble member whose names differ from
    the ensemble's, raise FormatError naming the file."""
    return _from_doc(read_json(path), path)


def predict_model(model: Any, x: np.ndarray) -> np.ndarray:
    """Predict with any supported model object (dispatch by kind) on the
    rows of a 2-d matrix with enough columns: the one check of the rows a
    model predicts. A non-finite cell, and a non-finite prediction, an
    ensemble member's included, raise InvalidData with its row."""
    try:
        kind = model_kind_of(model)
    except InvalidConfig:
        raise InvalidConfig(f"cannot predict with {type(model).__name__}") from None
    x = float_matrix(x)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        raise InvalidData("non-finite cell", row=int(bad[0]))
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
    """Write the panel document. Its rows are rendered a chunk of rows at a
    time straight from the table's columns (_PanelRows), with the bytes of
    its list of row lists rendered value by value."""

    write_json(
        {
            "format_version": FORMAT_VERSION,
            "kind": "panel",
            "columns": list(PANEL_COLUMNS),
            "rows": _PanelRows(table),
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
