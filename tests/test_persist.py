"""Canonical JSON rendering and save/load round-trips for every artifact."""
from __future__ import annotations

import copy
import functools
import json
import math
import os
import stat
import tempfile
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from tree_oracles import gbm_nodes, nodes
from yieldcast import persist
from yieldcast.cli import main
from yieldcast.core import PANEL_VALUES, PanelTable
from yieldcast.errors import (
    FormatError,
    InvalidConfig,
    InvalidData,
    IoError,
    ShapeError,
    UnsupportedVersion,
    YieldcastError,
)
from yieldcast.evaluate import (
    METRIC_NAMES,
    KappaResult,
    ModelSpec,
    cross_validate,
    make_folds,
)
from yieldcast.ingest import csv_rows
from yieldcast.knn import fit_knn
from yieldcast.linear import LinearModel, SgdConfig, fit_ols, fit_sgd
from yieldcast.persist import (
    EnsembleModel,
    canonical_json,
    load_model,
    load_panel,
    model_kind_of,
    predict_model,
    read_json,
    save_model,
    save_panel,
    write_csv,
    write_json,
    write_report,
)
from yieldcast.trees import (
    ForestConfig,
    GbmConfig,
    Tree,
    TreeConfig,
    fit_cart,
    fit_forest,
    fit_gbm,
)


class TestCanonicalForm:
    def test_float_rendering(self):
        assert canonical_json(1.0) == "1.0"
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1e30) == "1e+30"
        assert canonical_json(-2.5) == "-2.5"

    def test_nonfinite_floats_become_strings(self):
        assert canonical_json(float("nan")) == '"NaN"'
        assert canonical_json(float("inf")) == '"Infinity"'
        assert canonical_json(float("-inf")) == '"-Infinity"'

    def test_object_layout_sorted_keys(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == (
            '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}'
        )

    def test_empty_containers_and_scalars(self):
        assert canonical_json({}) == "{}"
        assert canonical_json([]) == "[]"
        assert canonical_json(None) == "null"
        assert canonical_json(True) == "true"
        assert canonical_json(7) == "7"

    def test_non_ascii_escaped(self):
        assert canonical_json("é") == '"\\u00e9"'

    def test_scalar_lists(self):
        # plain scalars render in one join; numpy scalars and nested lists
        # take the per-item path, and both read the same
        assert canonical_json([float("nan"), float("inf"), -float("inf"), 0.1]) == (
            '[\n  "NaN",\n  "Infinity",\n  "-Infinity",\n  0.10000000000000001\n]'
        )
        assert canonical_json([True, 1, 1.0, None, False, 0]) == (
            "[\n  true,\n  1,\n  1.0,\n  null,\n  false,\n  0\n]"
        )
        assert canonical_json(["é", "日本", 'a"b\\c\n']) == (
            '[\n  "\\u00e9",\n  "\\u65e5\\u672c",\n  "a\\"b\\\\c\\n"\n]'
        )
        assert canonical_json([[], [[]], {"k": []}]) == (
            '[\n  [],\n  [\n    []\n  ],\n  {\n    "k": []\n  }\n]'
        )
        nested = {"a": [[1, "x"], [np.float64(2.5), np.int64(3), np.bool_(True)]]}
        assert canonical_json(nested) == (
            '{\n  "a": [\n    [\n      1,\n      "x"\n    ],\n'
            '    [\n      2.5,\n      3,\n      true\n    ]\n  ]\n}'
        )
        row = ["é", 2, 0.5, True, None, float("nan")]
        assert canonical_json((row, np.array(row[1:3]))) == canonical_json(
            [[np.str_("é"), np.int64(2), np.float64(0.5), np.bool_(True), None,
              np.float64("nan")], [np.float64(2.0), np.float64(0.5)]]
        )

    def test_numpy_scalars_and_arrays(self):
        assert canonical_json(np.float64(0.5)) == "0.5"
        assert canonical_json(np.int64(3)) == "3"
        assert canonical_json(np.bool_(True)) == "true"
        assert canonical_json(np.array([1.0, 2.0])) == "[\n  1.0,\n  2.0\n]"

    def test_unserializable_values_rejected(self):
        with pytest.raises(FormatError):
            canonical_json({1: "x"})
        with pytest.raises(FormatError):
            canonical_json({"a": {2, 3}})

    def test_dataclass_instances_emit_their_fields(self):
        @dataclass(frozen=True)
        class Inner:
            edges: tuple

        @dataclass
        class Outer:
            name: str
            inner: Inner
            values: np.ndarray

        outer = Outer(name="x", inner=Inner(edges=(1.0, 2)), values=np.array([0.5]))
        assert canonical_json(outer) == canonical_json(
            {"name": "x", "inner": {"edges": [1.0, 2]}, "values": [0.5]}
        )
        with pytest.raises(FormatError):
            canonical_json(Outer)  # the class itself is not a document

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)
    @example(9007199254740992.0)
    @example(-0.0)
    def test_finite_floats_round_trip_exactly(self, v):
        parsed = json.loads(canonical_json(v))
        assert isinstance(parsed, float)
        assert parsed == v and math.copysign(1, parsed) == math.copysign(1, v)


def reference_json(obj, depth=0) -> str:
    """The canonical form rendered one value at a time: the reference for
    persist's renderers of whole chunks."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or type(obj) is bool:
        return {None: "null", True: "true", False: "false"}[obj]
    if type(obj) is int:
        return str(obj)
    if type(obj) is float:
        if math.isnan(obj):
            return '"NaN"'
        if math.isinf(obj):
            return '"Infinity"' if obj > 0 else '"-Infinity"'
        text = format(obj, ".17g")
        return text if any(c in text for c in ".eE") else text + ".0"
    if type(obj) is str:
        return json.dumps(obj, ensure_ascii=True)
    pad, inner = "  " * depth, "  " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {reference_json(obj[k], depth + 1)}"
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    items = [inner + reference_json(v, depth + 1) for v in obj]
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _integral_floats(low: int, high: int):
    return st.integers(low, high).map(float) | st.integers(-high, -low).map(float)


STRINGS = st.one_of(
    st.text(alphabet=st.sampled_from('%"\\ab\n\x00é日\ud800'), max_size=6),
    st.text(max_size=4),
)
ROW_CELLS = st.one_of(
    st.floats(),  # subnormals, -0.0, inf and nan included
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e16, 1e17, -1e17,
                     1e17 - 16, 2.0 ** 53, 9007199254740993.0, 0.1, 1e300,
                     float("inf"), float("-inf"), float("nan")]),
    _integral_floats(10**16 - 1000, 10**16 + 1000),
    _integral_floats(10**17 - 1000, 10**17 + 1000),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    STRINGS,
    st.sampled_from([np.float64(1.0), np.float64(0.5), np.int64(3), np.bool_(False),
                     np.str_("x")]),  # not plain scalars: the row takes the item path
)


@st.composite
def scalar_rows(draw):
    """A list of lists and tuples of scalars: runs of one width and one
    column type (as panel rows are), and rows of mixed widths and types."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 5))
        column = [draw(st.sampled_from([ROW_CELLS, st.floats(), STRINGS, st.integers(),
                                        _integral_floats(0, 10**18)]))
                  for _ in range(width)]
        for _ in range(draw(st.integers(0, 12))):
            row = [draw(column[j]) for j in range(width)]
            rows.append(tuple(row) if draw(st.booleans()) else row)
        rows += draw(st.lists(st.lists(ROW_CELLS, min_size=1, max_size=5), max_size=3))
    return rows


ROW_DOCUMENTS = st.recursive(
    scalar_rows() | ROW_CELLS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="ab%é", max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(doc=ROW_DOCUMENTS, chunk_parts=st.sampled_from([1, 3, 8, 4096]))
@example(doc={"rows": [["AFG", "Afghan", 2003, "Maize", 1.5, -0.0, 1e16, 99999999999999984.0],
                       ("AFG", "Afghan", 2004, "Maize", 2.0, 3e-310, 1e17, float("nan"))]},
         chunk_parts=4096)
def test_rows_render_as_one_value_at_a_time(doc, chunk_parts):
    expected = reference_json(doc)
    with mock.patch.object(persist, "_CHUNK_PARTS", chunk_parts):
        assert canonical_json(doc) == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            write_json(doc, path)
            assert path.read_bytes() == (expected + "\n").encode("ascii")


class TestReadWrite:
    def test_file_ends_with_single_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"a": 1}, path)
        text = path.read_text()
        assert text == canonical_json({"a": 1}) + "\n"
        assert read_json(path) == {"a": 1}

    def test_large_document_is_written_in_chunks(self, tmp_path):
        doc = {"rows": [[i + j / 64 for j in range(50)] for i in range(2000)]}
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            write_json(doc, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert text == canonical_json(doc) + "\n"
        # One chunk at a time; rendering the whole document first needs more
        # than its length.
        assert peak < len(text) / 4

    def test_long_scalar_list_is_written_in_chunks(self, tmp_path):
        doc = {"flat": [i + 1 / 64 for i in range(200_000)]}
        path = tmp_path / "flat.json"
        tracemalloc.start()
        try:
            write_json(doc, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert text == canonical_json(doc) + "\n"
        assert peak < len(text) / 4

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_json(tmp_path / "absent.json")

    def test_directory_target_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            write_json({"a": 1}, tmp_path)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"a": 1}, path)
        old = path.read_bytes()
        # enough rows that chunks reach the file before the bad value
        doc = {"a": [[i, i / 3] for i in range(20_000)], "b": object()}
        with pytest.raises(FormatError, match="cannot serialize object"):
            write_json(doc, path)
        with pytest.raises(UnicodeEncodeError):
            write_csv(["name"], [["ok"], ["\ud800"]], path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_nothing_behind(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        for write in (lambda p: write_json({"a": 1}, p), lambda p: write_csv(["a"], [[1]], p)):
            for path in (target, tmp_path / "missing" / "doc.json"):
                with pytest.raises(IoError, match="cannot write"):
                    write(path)
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_write_through_a_link_replaces_the_linked_file(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        write_json({"a": 1}, link)
        assert link.is_symlink() and real.read_text() == canonical_json({"a": 1}) + "\n"

    def test_pipe_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        write_csv(["a"], [[1]], fifo)
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [b"a\n1\n"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode) and list(tmp_path.iterdir()) == [fifo]

    def test_invalid_json_is_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_json(path)
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(FormatError, match="broken.json"):
            read_json(path)

    def test_csv_cells_and_line_ends(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [["a", 3, 0.1], [np.str_("b"), np.int64(4), np.float64(2.0)]]
        write_csv(["name", "n", "x"], rows, path)
        assert path.read_bytes() == b"name,n,x\na,3,0.10000000000000001\nb,4,2\n"
        write_csv(["prediction"], [], path)
        assert path.read_bytes() == b"prediction\n"
        with pytest.raises(IoError):
            write_csv(["a"], [[1]], tmp_path)

    def test_csv_fields_are_quoted_as_rfc_4180(self, tmp_path):
        # a cell holding a comma, a quote or a line break reads back whole
        path = tmp_path / "table.csv"
        header = ["item=Rice, paddy", 'say "a"', "x"]
        rows = [["Rice, paddy", 'a "b", c', 0.5], ["two\nlines", "\r", 3]]
        write_csv(header, rows, path)
        assert path.read_bytes().startswith(b'"item=Rice, paddy","say ""a""",x\n"Rice, paddy",')
        assert [cells for _, cells in csv_rows(path.read_bytes())] == [
            header, ["Rice, paddy", 'a "b", c', "0.5"], ["two\nlines", "\r", "3"]]


# committed model files and their feature rows (see data/models/README.md)
MODELS_DIR = Path(__file__).parent / "data" / "models"
TREE_KINDS = ("cart", "forest", "gbm", "ensemble")
NAMES = ["a", "b", "c"]  # the input columns of fitted_models


@pytest.fixture(scope="module")
def fitted_models():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(30, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 3.0 + 0.1 * rng.normal(size=30)
    tree_cfg = TreeConfig(max_depth=4, min_samples_leaf=2)
    ols = fit_ols(x, y)
    cart = fit_cart(x, y, tree_cfg)
    models = {
        "ols": ols,
        "sgd": fit_sgd(x, y, SgdConfig(epochs=150, seed=1)),
        "cart": cart,
        "forest": fit_forest(x, y, ForestConfig(n_trees=3, tree=tree_cfg, seed=2)),
        "gbm": fit_gbm(x, y, GbmConfig(n_stages=3, tree=tree_cfg)),
        "knn": fit_knn(x, y, k=3),
        "ensemble": EnsembleModel(members=(("ols", ols), ("cart", cart))),
    }
    return models, x


class TestModelRoundTrip:
    @pytest.mark.parametrize(
        "kind", ["ols", "sgd", "cart", "forest", "gbm", "knn", "ensemble"]
    )
    def test_save_load_predict_and_byte_fixpoint(self, kind, fitted_models, tmp_path):
        models, x = fitted_models
        model = models[kind]
        assert model_kind_of(model) == kind

        first = tmp_path / f"{kind}.json"
        save_model(model, first, NAMES)
        loaded, names = load_model(first)
        assert names == tuple(NAMES)
        members = read_json(first)["payload"].get("members", [])
        assert [m["model"]["feature_names"] for m in members] == [NAMES] * len(members)
        np.testing.assert_array_equal(predict_model(loaded, x),
                                      predict_model(model, x))

        second = tmp_path / f"{kind}-resaved.json"
        save_model(loaded, second, names)
        assert first.read_bytes() == second.read_bytes()

    def test_tree_structure_survives_round_trip(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "cart.json"
        save_model(models["cart"], path, NAMES)
        assert nodes(load_model(path)[0]) == nodes(models["cart"])
        path = tmp_path / "forest.json"
        save_model(models["forest"], path, NAMES)
        reloaded, _ = load_model(path)
        assert list(map(nodes, reloaded.trees)) == list(map(nodes, models["forest"].trees))
        assert reloaded.config == models["forest"].config
        path = tmp_path / "gbm.json"
        save_model(models["gbm"], path, NAMES)
        assert gbm_nodes(load_model(path)[0]) == gbm_nodes(models["gbm"])

    def test_linear_parameters_survive_round_trip(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "sgd.json"
        save_model(models["sgd"], path, NAMES)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.coefficients,
                                      models["sgd"].coefficients)
        assert loaded.intercept == models["sgd"].intercept
        np.testing.assert_array_equal(loaded.scaler.means,
                                      models["sgd"].scaler.means)
        assert loaded.metadata["config"] == models["sgd"].metadata["config"]

    def test_sgd_file_without_average_from_loads(self, fitted_models, tmp_path):
        # files written before SgdConfig.average_from existed lack the key
        models, x = fitted_models
        path = tmp_path / "sgd.json"
        save_model(models["sgd"], path, NAMES)
        doc = read_json(path)
        del doc["fit_metadata"]["config"]["average_from"]
        write_json(doc, path)
        loaded, _ = load_model(path)
        assert model_kind_of(loaded) == "sgd"
        np.testing.assert_array_equal(predict_model(loaded, x),
                                      predict_model(models["sgd"], x))

    def test_version_gate(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "m.json"
        save_model(models["ols"], path, NAMES)
        doc = read_json(path)
        assert doc["format_version"] == 2
        for version in (1, 3, 0, "2", 2.0, True):
            doc["format_version"] = version
            write_json(doc, path)
            with pytest.raises(UnsupportedVersion):
                load_model(path)
        del doc["format_version"]
        write_json(doc, path)
        with pytest.raises(UnsupportedVersion):
            load_model(path)
        # every member of an ensemble carries its own version
        save_model(models["ensemble"], path, NAMES)
        doc = read_json(path)
        doc["payload"]["members"][1]["model"]["format_version"] = 3
        write_json(doc, path)
        with pytest.raises(UnsupportedVersion):
            load_model(path)

    def test_corrupted_payloads(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "m.json"
        save_model(models["cart"], path, NAMES)
        doc = read_json(path)

        bad = dict(doc, model_kind="perceptron")
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_model(path)

        bad = {k: v for k, v in doc.items() if k != "payload"}
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_model(path)

        bad = json.loads(json.dumps(doc))
        bad["payload"]["tree"]["kind"] = "leaf"  # a key a version 2 tree lacks
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_model(path)

        bad = json.loads(json.dumps(doc))
        del bad["payload"]["tree"]["n_samples"]
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_model(path)

        write_json([1, 2], path)
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("member_model", [[1], 5, None], ids=["list", "int", "null"])
    def test_non_object_ensemble_member(self, member_model, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "ensemble.json"
        save_model(models["ensemble"], path, NAMES)
        doc = read_json(path)
        doc["payload"]["members"][0]["model"] = member_model
        write_json(doc, path)
        with pytest.raises(FormatError, match="model document must be an object"):
            load_model(path)

    def test_one_member_ensemble_file(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "ensemble.json"
        save_model(models["ensemble"], path, NAMES)
        doc = read_json(path)
        del doc["payload"]["members"][1:]
        write_json(doc, path)
        with pytest.raises(FormatError, match="at least 2 members") as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    def test_deeply_nested_ensemble_loads(self, fitted_models, tmp_path):
        # ensembles nest, so reading a level must cost few stack frames: 150
        # levels (600 levels of JSON) load and predict
        models, x = fitted_models
        path = tmp_path / "cart.json"
        save_model(models["cart"], path, NAMES)
        leaf = doc = read_json(path)
        for _ in range(150):
            doc = dict(leaf, model_kind="ensemble", payload={
                "members": [{"name": "inner", "model": doc}, {"name": "cart", "model": leaf}]})
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(predict_model(load_model(path)[0], x),
                                      predict_model(models["cart"], x))

    def test_ensemble_prediction_is_exact_member_mean(self, fitted_models):
        models, x = fitted_models
        ens = models["ensemble"]
        member = np.stack([predict_model(m, x) for _, m in ens.members])
        expected = np.array(
            [math.fsum(member[:, i]) for i in range(x.shape[0])]
        ) / len(ens.members)
        np.testing.assert_array_equal(predict_model(ens, x), expected)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_prediction_names_its_row(self):
        # 1e308 is a finite input. The members predict inf and -inf for it,
        # whose fsum would raise a ValueError rather than InvalidData.
        up = LinearModel(coefficients=np.array([2.0]), intercept=0.0)
        down = LinearModel(coefficients=np.array([-2.0]), intercept=0.0)
        x = np.array([[1.0], [1e308], [-1e308]])
        for model in (up, EnsembleModel(members=(("up", up), ("down", down)))):
            with pytest.raises(InvalidData, match="ols predicts inf") as err:
                predict_model(model, x)
            assert err.value.row == 1

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["ols", "sgd", "cart", "forest", "gbm", "knn", "ensemble"])
    def test_non_finite_cell_names_its_row(self, fitted_models, kind, cell):
        # a tree sends NaN right at every split, so it would predict a
        # finite value for such a row
        models, x = fitted_models
        bad = x[:5].copy()
        bad[3, 1] = cell
        with pytest.raises(InvalidData, match="non-finite cell") as err:
            predict_model(models[kind], bad)
        assert err.value.row == 3
        with pytest.raises(ShapeError, match="must be 2-d"):
            predict_model(models[kind], x[0])

    def test_ensemble_needs_two_members(self, fitted_models):
        models, _ = fitted_models
        with pytest.raises(InvalidConfig):
            EnsembleModel(members=(("ols", models["ols"]),))

    def test_unknown_objects_rejected(self):
        with pytest.raises(InvalidConfig):
            model_kind_of(object())
        with pytest.raises(InvalidConfig):
            predict_model(object(), np.ones((2, 2)))
        with pytest.raises(InvalidConfig):
            save_model(object(), "unused.json", NAMES)

    def test_names_are_required_on_save(self, fitted_models, tmp_path):
        models, _ = fitted_models
        path = tmp_path / "ols.json"
        for names in ([], ()):
            with pytest.raises(InvalidConfig, match="names of its input columns"):
                save_model(models["ols"], path, names)
        assert not path.exists()

    def test_deep_tree_loads_and_predicts(self, tmp_path):
        # a chain of splits, each sending x <= i left to a leaf
        depth = 800
        records = []
        for i in range(depth):
            records += [[0, i + 0.5, 2 * i + 1, 2 * i + 2, 0.0, 0], [-1, 0.0, -1, -1, float(i), 1]]
        tree = Tree.from_records(records + [[-1, 0.0, -1, -1, float(depth), 1]])
        path = tmp_path / "deep.json"
        save_model(tree, path, ["x"])
        tree, names = load_model(path)
        assert len(tree.feature) == 2 * depth + 1 and names == ("x",)
        x = np.array([[-1.0], [3.0], [depth - 0.5], [depth + 7.0]])
        assert predict_model(tree, x).tolist() == [0.0, 3.0, depth - 1.0, float(depth)]


def predict_file(model_path, out):
    """`yieldcast predict` of the committed feature rows; returns the output."""
    rc = main(["predict", "--model", str(model_path), "--input",
               str(MODELS_DIR / "features.csv"), "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


class TestVersion1Files:
    """The tree files first written at format_version 1, converted once to
    version 2 with their feature names (data/models/README.md): each still
    predicts the bytes that its version 1 file predicted."""

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_loads_predicts_and_resaves_as_version_2(self, kind, tmp_path):
        path = MODELS_DIR / f"{kind}.json"
        expected = (MODELS_DIR / f"{kind}.predictions.csv").read_bytes()
        assert predict_file(path, tmp_path / "committed.csv") == expected

        model, names = load_model(path)
        header = (MODELS_DIR / "features.csv").read_text().splitlines()[0].split(",")
        assert names == tuple(header)
        resaved = tmp_path / f"{kind}.json"
        save_model(model, resaved, names)
        assert resaved.read_bytes() == path.read_bytes()
        doc = read_json(resaved)
        members = doc["payload"]["members"] if kind == "ensemble" else []
        assert [doc["format_version"]] + [m["model"]["format_version"] for m in members] \
            == [2] * (1 + len(members))


@functools.cache
def tree_documents() -> dict:
    """The committed tree documents, by kind."""
    return {kind: read_json(MODELS_DIR / f"{kind}.json") for kind in TREE_KINDS}


def records_names(doc) -> bool:
    """Whether a model document and each of its ensemble members record a
    nonempty feature_names."""
    members = doc["payload"].get("members", []) if doc["model_kind"] == "ensemble" else []
    return bool(doc.get("feature_names")) and all(records_names(m["model"]) for m in members)


def child_arrays(doc):
    """Every `left`/`right` node array of the version 2 trees in doc."""
    if isinstance(doc, dict):
        if "feature" in doc:
            return [doc["left"], doc["right"]]
        return [a for v in doc.values() for a in child_arrays(v)]
    if isinstance(doc, list):
        return [a for v in doc for a in child_arrays(v)]
    return []


def json_lists(doc):
    """Every nonempty list in a JSON document."""
    if isinstance(doc, dict):
        return [a for v in doc.values() for a in json_lists(v)]
    if isinstance(doc, list):
        return [doc] * bool(doc) + [a for v in doc for a in json_lists(v)]
    return []


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4,
)


def fuzz(data, doc, mutation):
    """Apply one mutation to doc in place."""
    if mutation == "shorten an array":
        data.draw(st.sampled_from(json_lists(doc))).pop()
        return
    if mutation == "point a child back":
        array = data.draw(st.sampled_from(child_arrays(doc)))
        i = data.draw(st.integers(0, len(array) - 1))
        array[i] = data.draw(st.integers(0, i))
        return
    # walk down from the top, stopping at each level with even odds
    container = doc
    while True:
        key = data.draw(st.sampled_from(sorted(container) if isinstance(container, dict)
                                        else range(len(container))))
        child = container[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        container = child
    if mutation == "delete a key":
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)


# where each mutation applies
APPLIES = {"delete a key": bool, "replace a value": bool, "shorten an array": json_lists,
           "point a child back": child_arrays}


@settings(max_examples=300)
@given(data=st.data())
def test_fuzzed_tree_documents_fail_cleanly_or_predict_finite(tmp_path_factory, data):
    docs = tree_documents()
    mutation = data.draw(st.sampled_from(list(APPLIES)))
    names = [name for name, doc in docs.items() if APPLIES[mutation](doc)]
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(names))])
    fuzz(data, doc, mutation)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))  # non-finite floats as NaN/Infinity literals
    x = np.loadtxt(MODELS_DIR / "features.csv", delimiter=",", skiprows=1)
    try:
        model, _ = load_model(path)
    except YieldcastError:
        return
    assert mutation != "point a child back"
    assert records_names(doc)  # a document without feature_names never loads
    try:
        predictions = predict_model(model, x)
    except ShapeError:  # a tree splits on a column x lacks
        return
    assert np.isfinite(predictions).all()


PANEL_NAMES = st.text(alphabet=st.sampled_from('"\\,% aé日\ud800'), min_size=1, max_size=5)
PANEL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e16, 1e17, 1e17 - 16, 2.0**53, 99999999999999984.0]),
    _integral_floats(10**16 - 1000, 10**16 + 1000),
    _integral_floats(10**17 - 1000, 10**17 + 1000),
)


@st.composite
def panel_tables(draw):
    """A PanelTable whose names hold JSON escapes, % and non-ASCII text, and
    whose values hold -0.0 and integral floats near 1e16 and 1e17."""
    keys = sorted(draw(st.lists(
        st.tuples(st.sampled_from(["AFG", "KEN"]), st.integers(1901, 2100), PANEL_NAMES),
        unique=True, max_size=30)))
    country = tuple(draw(PANEL_NAMES) for _ in keys)
    values = np.array([[draw(PANEL_CELLS) for _ in PANEL_VALUES] for _ in keys])
    values = values.reshape(len(keys), len(PANEL_VALUES))
    values[:, 2:] = np.abs(values[:, 2:])  # pesticides and yield are not negative
    provenance = draw(st.dictionaries(PANEL_NAMES, PANEL_NAMES, max_size=2))
    return PanelTable(keys=tuple(keys), country=country, values=values, provenance=provenance)


def row_list_document(table: PanelTable) -> dict:
    """The panel document with its rows as a list of row lists."""
    columns = zip(table.keys, table.country, table.values.tolist())
    return {
        "format_version": 1,
        "kind": "panel",
        "columns": list(persist.PANEL_COLUMNS),
        "rows": [[iso3, country, year, item, *v] for (iso3, year, item), country, v in columns],
        "provenance": table.provenance,
    }


@settings(max_examples=200)
@given(table=panel_tables(), chunk_parts=st.sampled_from([1, 3, 8, 20, 4096]))
def test_panel_is_written_as_its_row_list_document(table, chunk_parts):
    doc = row_list_document(table)
    with mock.patch.object(persist, "_CHUNK_PARTS", chunk_parts):
        expected = canonical_json(doc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.json"
            save_panel(table, path)
            assert path.read_bytes() == (expected + "\n").encode("ascii")
    assert expected == reference_json(doc)


class TestPanelRoundTrip:
    def test_rows_and_provenance_survive(self, small_panel, tmp_path):
        table, _ = small_panel
        path = tmp_path / "panel.json"
        save_panel(table, path)
        loaded = load_panel(path)
        assert loaded.keys == table.keys and loaded.country == table.country
        assert loaded.values.tobytes() == table.values.tobytes()
        assert loaded.provenance == table.provenance
        resaved = tmp_path / "panel2.json"
        save_panel(loaded, resaved)
        assert path.read_bytes() == resaved.read_bytes()

    def test_corrupted_panels(self, small_panel, tmp_path):
        table, _ = small_panel
        path = tmp_path / "panel.json"
        save_panel(table, path)
        doc = read_json(path)

        bad = dict(doc, kind="table")
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_panel(path)

        bad = dict(doc, columns=list(reversed(doc["columns"])))
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_panel(path)

        bad = json.loads(json.dumps(doc))
        bad["rows"][0][2] = "not-a-year"
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_panel(path)

        bad = json.loads(json.dumps(doc))
        bad["rows"][0] = bad["rows"][0][:3]
        write_json(bad, path)
        with pytest.raises(FormatError):
            load_panel(path)

        bad = dict(doc, provenance=[])
        write_json(bad, path)
        with pytest.raises(FormatError, match="provenance"):
            load_panel(path)


class TestRunReport:
    def test_report_serializes_mixed_kappa(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        from yieldcast.core import FeatureMatrix

        m = FeatureMatrix(
            x=x, y=y, feature_names=("a", "b"),
            row_keys=tuple(("AAA", 1950 + i, "Maize") for i in range(20)),
            onehot=(False, False),
        )
        spec = ModelSpec(name="mean",
                         fit=lambda x, y: float(np.mean(y)),
                         predict=lambda mod, x: np.full(len(x), mod))
        cv = cross_validate(spec, m, make_folds(20, k=2))
        report = {
            "environment": {"seed": 0, "k": 2},
            "merge_report": {"rows_out": 20},
            "eda": {"items": []},
            "per_model": [cv],
            "ensemble": None,
            "kappa": {
                "mean": KappaResult(kappa=0.5, band="moderate agreement",
                                    bin_edges=(1.0,)),
                "broken": {"undefined": "all rows fall in a single bin"},
            },
            "holdout": {},
            "table": "header\nrow",
        }
        path = tmp_path / "report.json"
        write_report(report, path)
        doc = read_json(path)
        assert doc["kind"] == "run_report"
        assert doc["format_version"] == 1
        assert doc["kappa"]["mean"] == {
            "kappa": 0.5, "band": "moderate agreement", "bin_edges": [1.0],
        }
        assert doc["kappa"]["broken"] == {"undefined": "all rows fall in a single bin"}
        assert doc["per_model"][0]["model_label"] == "mean"
        assert doc["ensemble"] is None


FOLD_KEYS = {"r2", "mae", "mse", "rmse", "max_err", "mape_percent", "mape_excluded_rows"}
MERGE_KEYS = {
    "rows_in", "rows_out", "unmatched_areas", "unmatched_yield_rows",
    "unmatched_pesticide_rows", "dropped_for_missing", "duplicate_rows",
    "ignored_pesticide_items", "ignored_yield_units", "year_range", "country_count",
}


def test_written_document_layouts(tmp_path):
    """Report sections are written from dataclass fields: pin their key sets."""
    paths = synth.small_snapshot(tmp_path / "snap")
    inputs = [arg for k in ("rain", "temp", "pesticides", "yield")
              for arg in (f"--{k}", str(paths[k]))]
    assert main(["ingest", *inputs, "--out", str(tmp_path)]) == 0
    assert set(read_json(tmp_path / "merge_report.json")) == MERGE_KEYS
    assert main(["cv", "--out", str(tmp_path), "--models", "ols,cart", "--k", "2"]) == 0

    doc = read_json(tmp_path / "report.json")
    assert set(doc) == {
        "format_version", "kind", "environment", "merge_report", "eda",
        "per_model", "ensemble", "kappa", "holdout", "table",
    }
    assert set(doc["merge_report"]) == MERGE_KEYS
    for result in [*doc["per_model"], doc["ensemble"]]:
        assert set(result) == {"model_label", "per_fold", "summary"}
        for fold in result["per_fold"]:
            assert set(fold) == FOLD_KEYS
        assert set(result["summary"]) == set(METRIC_NAMES)
        for entry in result["summary"].values():
            assert set(entry) == {"mean", "std", "n_defined"}
    assert set(doc["kappa"]) == set(doc["holdout"]["metrics"]) == {"ols", "cart", "ensemble"}
    for entry in doc["kappa"].values():
        assert set(entry) == {"kappa", "band", "bin_edges"}
    for entry in doc["holdout"]["metrics"].values():
        assert set(entry) == FOLD_KEYS
    assert set(doc["environment"]["feature_config"]) == {"encode_item", "encode_country"}
    assert set(doc["eda"]["correlation"]) == {"names", "matrix"}


def test_written_documents_are_in_canonical_form(tmp_path):
    """Every JSON file ingest and a six-model cv write, k-NN x_train included,
    is what the value-by-value reference renders from its contents."""
    paths = synth.small_snapshot(tmp_path / "snap")
    inputs = [arg for k in ("rain", "temp", "pesticides", "yield")
              for arg in (f"--{k}", str(paths[k]))]
    assert main(["ingest", *inputs, "--out", str(tmp_path)]) == 0
    assert main(["cv", "--out", str(tmp_path), "--k", "2"]) == 0
    written = list(tmp_path.rglob("*.json"))
    assert sorted(p.name for p in written) == sorted(
        ["panel.json", "merge_report.json", "report.json",
         *(f"{kind}.json" for kind in persist.MODEL_KINDS)])
    for path in written:
        text = path.read_text(encoding="ascii")
        assert text == reference_json(json.loads(text)) + "\n", path.name
