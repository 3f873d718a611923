"""End-to-end CLI behaviour: subcommands, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import synth
from tree_oracles import Internal, Leaf, flat
from yieldcast import cli, ingest, persist
from yieldcast.cli import main
from yieldcast.evaluate import METRIC_NAMES
from yieldcast.trees import Forest, ForestConfig, GbmModel


@pytest.fixture(scope="module")
def snap(tmp_path_factory):
    return synth.small_snapshot(tmp_path_factory.mktemp("snap"))


def input_flags(paths):
    return [
        "--rain", str(paths["rain"]),
        "--temp", str(paths["temp"]),
        "--pesticides", str(paths["pesticides"]),
        "--yield", str(paths["yield"]),
    ]


@pytest.fixture(scope="module")
def panel_dir(snap, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingested")
    assert main(["ingest", *input_flags(snap), "--out", str(out)]) == 0
    return out


class TestIngest:
    def test_writes_panel_and_report(self, snap, tmp_path, capsys):
        rc = main(["ingest", *input_flags(snap), "--out", str(tmp_path)])
        assert rc == 0
        table = persist.load_panel(tmp_path / "panel.json")
        assert len(table.keys) == len(table.country) == len(table.values) == 96
        assert table.year_range() == (1999, 2010)
        report = persist.read_json(tmp_path / "merge_report.json")
        assert report["rows_out"] == 96
        out = capsys.readouterr().out
        assert "rows out: 96" in out and "years: 1999-2010" in out

    def test_snapshot_outputs_are_pinned(self, tmp_path):
        # sha256 of what ingest writes for this snapshot: how the panel is
        # held in memory must not change a byte of either file
        paths = synth.write_snapshot(tmp_path / "snap")
        assert main(["ingest", *input_flags(paths), "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("panel.json", "merge_report.json")
        }
        assert digests == {
            "panel.json": "2aa1914199165dfe7acaf03fff949cbefa36c6b6214ca172bbd3c498a09d49cb",
            "merge_report.json":
                "5709b311a2cc8ba2f82eee94669594c6d04e6ceb2bf014a1f0f291862ea255a6",
        }

    def test_missing_input_file(self, snap, tmp_path):
        flags = input_flags(snap)
        flags[1] = str(tmp_path / "absent.csv")
        assert main(["ingest", *flags, "--out", str(tmp_path)]) == 1

    def test_malformed_header(self, snap, tmp_path):
        bad = tmp_path / "bad_rain.csv"
        bad.write_text("Annee,Pays,ISO3,Pluie\n2000,Kenya,KEN,1.0\n")
        flags = input_flags(snap)
        flags[1] = str(bad)
        assert main(["ingest", *flags, "--out", str(tmp_path)]) == 1

    def test_disjoint_years_empty_join(self, tmp_path):
        paths = synth.small_snapshot(tmp_path / "snap", yield_years=(1961, 1980))
        assert main(["ingest", *input_flags(paths), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["ingest", "explore"])
    def test_non_finite_raw_value_is_a_skipped_row(self, snap, tmp_path, capsys, command):
        # The last rain row (2010) is inside the panel's years, so its value
        # would reach a panel row if the parser let it through.
        lines = snap["rain"].read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        rain = tmp_path / "rain.csv"
        rain.write_text("\n".join(lines) + "\n")
        flags = input_flags(snap)
        flags[1] = str(rain)
        assert main([command, *flags, "--out", str(tmp_path / "out")]) == 0
        assert "warning [rain]: skipped 1 malformed rows" in capsys.readouterr().err
        if command == "explore":
            assert "nan" not in (tmp_path / "out" / "annual_rain.csv").read_text()

    @pytest.mark.parametrize("command", ["ingest", "explore"])
    def test_empty_input_names_its_path(self, snap, tmp_path, capsys, command):
        empty = tmp_path / "temp.csv"
        empty.write_text("")
        flags = input_flags(snap)
        flags[3] = str(empty)
        assert main([command, *flags, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {empty}: empty file: missing header row\n"


class TestExplore:
    def test_writes_descriptive_outputs(self, snap, tmp_path, capsys):
        rc = main(["explore", *input_flags(snap), "--out", str(tmp_path)])
        assert rc == 0
        for name in ("annual_rain", "annual_temp", "annual_pesticides",
                     "item_frequency", "correlation_matrix"):
            assert (tmp_path / f"{name}.csv").exists()
        assert not (tmp_path / "vif.csv").exists()
        assert (tmp_path / "annual_rain.csv").read_text().startswith("year,rain_mm\n")
        header = (tmp_path / "correlation_matrix.csv").read_text().splitlines()[0]
        assert header == "feature,rain_mm,temp_c,pesticides_tonnes,yield_hg_ha"
        assert "explored 96 merged rows" in capsys.readouterr().out

    def test_vif_flag_adds_output(self, snap, tmp_path):
        rc = main(["explore", *input_flags(snap), "--out", str(tmp_path), "--vif"])
        assert rc == 0
        lines = (tmp_path / "vif.csv").read_text().splitlines()
        assert lines[0] == "feature,vif"
        assert [row.split(",")[0] for row in lines[1:]] == [
            "rain_mm", "temp_c", "pesticides_tonnes",
        ]

    def test_vif_needs_more_rows_than_predictors(self, tmp_path):
        paths = synth.write_snapshot(
            tmp_path / "snap",
            countries=synth.COUNTRIES[:1],
            items=synth.ITEMS[:1],
            climate_years=(1999, 2000),
            pesticide_years=(1999, 2000),
            yield_years=(1999, 2000),
        )
        rc = main(["explore", *input_flags(paths), "--out", str(tmp_path), "--vif"])
        assert rc == 2


class TestCv:
    def test_two_model_run_with_ensemble(self, panel_dir, tmp_path, capsys):
        rc = main([
            "cv", "--panel", str(panel_dir / "panel.json"), "--out", str(tmp_path),
            "--models", "ols,cart", "--k", "5",
        ])
        assert rc == 0
        doc = persist.read_json(tmp_path / "report.json")
        assert doc["environment"]["k"] == 5
        assert doc["environment"]["models"] == ["ols", "cart"]
        assert [r["model_label"] for r in doc["per_model"]] == ["ols", "cart"]
        assert doc["ensemble"]["model_label"] == "ensemble(ols+cart)"
        assert len(doc["ensemble"]["per_fold"]) == 5
        assert set(doc["kappa"]) == {"ols", "cart", "ensemble"}
        assert doc["holdout"]["n_train"] + doc["holdout"]["n_test"] == 96
        for name in ("ols", "cart", "ensemble"):
            assert (tmp_path / "models" / f"{name}.json").exists()
        out = capsys.readouterr().out
        for metric in METRIC_NAMES:
            assert metric in out
        assert "ensemble(ols+cart): mean ± sample std over 5 folds" in out

    def test_single_model_skips_ensemble(self, panel_dir, tmp_path, capsys):
        rc = main([
            "cv", "--panel", str(panel_dir / "panel.json"), "--out", str(tmp_path),
            "--models", "cart", "--k", "3",
        ])
        assert rc == 0
        doc = persist.read_json(tmp_path / "report.json")
        assert doc["ensemble"] is None
        assert not (tmp_path / "models" / "ensemble.json").exists()
        assert (tmp_path / "models" / "cart.json").exists()
        assert "ensemble(" not in capsys.readouterr().out

    def test_missing_panel(self, tmp_path):
        rc = main(["cv", "--panel", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path), "--models", "ols"])
        assert rc == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "1"],
            ["--models", "perceptron"],
            ["--models", "ols,ols"],
            ["--test-fraction", "0.0"],
            ["--test-fraction", "1.0"],
        ],
    )
    def test_invalid_settings(self, panel_dir, tmp_path, flags):
        rc = main(["cv", "--panel", str(panel_dir / "panel.json"),
                   "--out", str(tmp_path), *flags])
        assert rc == 2

    def test_config_file_with_flag_precedence(self, panel_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"k": 4, "seed": 9, "models": "ols"}))
        rc = main(["cv", "--panel", str(panel_dir / "panel.json"),
                   "--out", str(tmp_path), "--config", str(config), "--k", "3"])
        assert rc == 0
        env = persist.read_json(tmp_path / "report.json")["environment"]
        assert env["k"] == 3 and env["seed"] == 9 and env["models"] == ["ols"]

    def test_config_file_errors(self, panel_dir, tmp_path, capsys):
        base = ["cv", "--panel", str(panel_dir / "panel.json"), "--out", str(tmp_path)]
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"folds": 4}))
        assert main([*base, "--config", str(unknown)]) == 2
        nondict = tmp_path / "list.json"
        nondict.write_text("[1, 2]")
        assert main([*base, "--config", str(nondict)]) == 2
        assert main([*base, "--config", str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()
        for key, value in (("panel", 5), ("out", None)):
            paths = tmp_path / "paths.json"
            paths.write_text(json.dumps({key: value}))
            assert main(["cv", "--config", str(paths)]) == 2
            assert f"error: {key} must be a path string" in capsys.readouterr().err

    def test_item_encoding_toggle(self, panel_dir, tmp_path):
        rc = main(["cv", "--panel", str(panel_dir / "panel.json"),
                   "--out", str(tmp_path), "--models", "ols", "--no-encode-item"])
        assert rc == 0
        doc = persist.read_json(tmp_path / "models" / "ols.json")
        assert doc["payload"]["feature_names"] == [
            "rain_mm", "temp_c", "pesticides_tonnes",
        ]

    @pytest.mark.parametrize(
        "setting", [{"encode_item": "false"}, {"encode_country": 1}]
    )
    def test_config_booleans_must_be_json_booleans(
        self, panel_dir, tmp_path, capsys, setting
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"models": "ols", **setting}))
        rc = main(["cv", "--panel", str(panel_dir / "panel.json"),
                   "--out", str(tmp_path), "--config", str(config)])
        assert rc == 2
        assert f"{next(iter(setting))} must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    # Each edit of row 0 would keep the keys sorted if the cell were coerced
    # (1999.5 to 1999, 7 to "7", "1e3" to 1000.0), so only the cell types can
    # reject it.
    @pytest.mark.parametrize(
        "column, edit",
        [
            (2, lambda year: year + 0.5),
            (2, str),
            (2, lambda year: True),
            (0, lambda iso3: 7),
            (1, lambda country: None),
            (3, lambda item: 5),
            (4, lambda rain: True),
            (4, lambda rain: "1e3"),
        ],
        ids=["fractional-year", "string-year", "boolean-year", "numeric-iso3",
             "null-country", "numeric-item", "boolean-rain", "string-rain"],
    )
    def test_panel_cells_are_typed(self, panel_dir, tmp_path, capsys, column, edit):
        doc = persist.read_json(panel_dir / "panel.json")
        doc["rows"][0][column] = edit(doc["rows"][0][column])
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["cv", "--panel", str(panel), "--out", str(out),
                   "--models", "ols", "--k", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {panel}: panel row 0 is not" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_fold_predictions_fail_the_fold(self, panel_dir, tmp_path, capsys):
        # a finite but huge rain cell: SGD predicts inf for it and k-NN cannot
        # rank it, and each is a failed fold, not a metric error or a score
        doc = persist.read_json(panel_dir / "panel.json")
        doc["rows"][3][4] = 1e308
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        rc = main(["cv", "--panel", str(panel), "--out", str(tmp_path / "out"),
                   "--models", "sgd,knn", "--k", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fold(s) failed" in err and "Traceback" not in err
        assert "sgd: sgd predicts inf" in err
        assert "knn: knn query is too far out to rank" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_ols_solution_fails_the_fold(self, panel_dir, tmp_path, capsys):
        # the same huge rain cell gives lstsq a non-finite solution: a failed
        # fold with only the error lines on stderr
        doc = persist.read_json(panel_dir / "panel.json")
        doc["rows"][3][4] = 1e308
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        rc = main(["cv", "--panel", str(panel), "--out", str(tmp_path / "out"),
                   "--models", "ols", "--k", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fold(s) failed" in err and "Traceback" not in err
        assert "ols: OLS solution is not finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_column_too_large_to_standardize_fails_the_fold(self, panel_dir, tmp_path, capsys):
        # with the huge rain cell among fold 0's training rows, the rain
        # column's std passes the float range: no warning, and a failed fold
        # instead of a rain column standardized to zero
        doc = persist.read_json(panel_dir / "panel.json")
        doc["rows"][3][4] = 1e308
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        rc = main(["cv", "--panel", str(panel), "--out", str(tmp_path / "out"),
                   "--models", "sgd,knn", "--k", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fold 0: sgd: column 0 is too large to standardize" in err
        assert "fold 0: knn: column 0 is too large to standardize" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_reruns_are_byte_identical(self, panel_dir, tmp_path, capsys):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            rc = main(["cv", "--panel", str(panel_dir / "panel.json"),
                       "--out", str(out), "--models", "ols,cart", "--k", "4"])
            assert rc == 0
            outs.append((out, capsys.readouterr().out))
        (out1, stdout1), (out2, stdout2) = outs
        assert stdout1 == stdout2
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        names = sorted(p.name for p in (out1 / "models").iterdir())
        assert names == sorted(p.name for p in (out2 / "models").iterdir())
        for name in names:
            assert (out1 / "models" / name).read_bytes() == (
                out2 / "models" / name
            ).read_bytes()


@pytest.fixture(scope="module")
def ols_model_path(panel_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cv-plain")
    rc = main(["cv", "--panel", str(panel_dir / "panel.json"), "--out", str(out),
               "--models", "ols", "--no-encode-item"])
    assert rc == 0
    return out / "models" / "ols.json"


@pytest.fixture(scope="module")
def plain_models(panel_dir, tmp_path_factory):
    """ols, sgd, knn and ensemble model files on the three numeric columns."""
    out = tmp_path_factory.mktemp("cv-plain-models")
    rc = main(["cv", "--panel", str(panel_dir / "panel.json"), "--out", str(out),
               "--models", "ols,sgd,knn", "--k", "2", "--no-encode-item"])
    assert rc == 0
    return out / "models"


def write_feature_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestPredict:
    HEADER = ["rain_mm", "temp_c", "pesticides_tonnes"]
    ROWS = [[1200.0, 22.5, 30000.0], [800.0, 18.0, 5000.0]]

    def test_round_trip_exact_values(self, ols_model_path, tmp_path, capsys):
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, self.HEADER, self.ROWS)
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(ols_model_path),
                   "--input", str(inp), "--out", str(out)])
        assert rc == 0
        assert "wrote 2 predictions" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "prediction"
        model = persist.load_model(ols_model_path)
        expected = persist.predict_model(model, np.array(self.ROWS))
        assert [float(v) for v in lines[1:]] == expected.tolist()

    def test_wrong_column_count(self, ols_model_path, tmp_path, capsys):
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, self.HEADER[:2], [r[:2] for r in self.ROWS])
        # The ensemble's count comes from its first member that records one.
        cart = flat(Internal(feature_index=0, threshold=0.5,
                             left=Leaf(1.0, 1), right=Leaf(2.0, 1)))
        ensemble_path = tmp_path / "ensemble.json"
        persist.save_model(
            persist.EnsembleModel(
                members=(("cart", cart), ("ols", persist.load_model(ols_model_path)))
            ),
            ensemble_path,
        )
        for model_path in (ols_model_path, ensemble_path):
            rc = main(["predict", "--model", str(model_path),
                       "--input", str(inp), "--out", str(tmp_path / "p.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "model expects 3 feature columns, input has 2" in err

    def test_header_mismatch(self, ols_model_path, tmp_path):
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, ["a", "b", "c"], self.ROWS)
        rc = main(["predict", "--model", str(ols_model_path),
                   "--input", str(inp), "--out", str(tmp_path / "p.csv")])
        assert rc == 2

    def test_missing_model(self, tmp_path):
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, self.HEADER, self.ROWS)
        rc = main(["predict", "--model", str(tmp_path / "absent.json"),
                   "--input", str(inp), "--out", str(tmp_path / "p.csv")])
        assert rc == 1

    def test_non_numeric_cell(self, ols_model_path, tmp_path, capsys):
        inp = tmp_path / "rows.csv"
        # The second input has a blank line 2; errors name the file's own line.
        for text, line in (("\n1.0,hot,3.0\n", 2), ("\n\n1.0,hot,3.0\n", 3)):
            inp.write_text("rain_mm,temp_c,pesticides_tonnes" + text)
            rc = main(["predict", "--model", str(ols_model_path),
                       "--input", str(inp), "--out", str(tmp_path / "p.csv")])
            assert rc == 1
            assert f"{inp}:{line}: non-numeric cell" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, ols_model_path, tmp_path, capsys, cell):
        inp = tmp_path / "rows.csv"
        out = tmp_path / "p.csv"
        for blank, line in (("", 3), ("\n", 4)):
            inp.write_text(
                f"rain_mm,temp_c,pesticides_tonnes\n1.0,2.0,3.0\n{blank}1.0,{cell},3.0\n"
            )
            rc = main(["predict", "--model", str(ols_model_path),
                       "--input", str(inp), "--out", str(out)])
            assert rc == 2
            assert f"{inp}:{line}: non-finite cell" in capsys.readouterr().err
            assert not out.exists()

    def test_reader_memory_stays_near_the_array(self, tmp_path):
        # parsed cells go straight into one float buffer; the csv rows' own
        # decoded text is not the reader's to save, so it is measured apart
        rows = np.random.default_rng(8).normal(size=(5000, 13)) * 1000.0
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, [f"f{j}" for j in range(13)], rows.tolist())
        data = inp.read_bytes()
        import numpy.ma  # noqa: F401  (imported lazily by NumPy; not the reader's)

        def peak(read):
            tracemalloc.start()
            try:
                return read(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, rows_peak = peak(lambda: sum(1 for _ in ingest.csv_rows(data)))
        (header, x, lines), reader_peak = peak(lambda: cli._read_feature_csv(inp))
        assert header == [f"f{j}" for j in range(13)]
        np.testing.assert_array_equal(x, rows)
        assert list(lines) == list(range(2, 5002))
        assert reader_peak - rows_peak < 3 * x.nbytes, (reader_peak - rows_peak) / x.nbytes

    def test_malformed_ensemble_file(self, ols_model_path, tmp_path, capsys):
        ols = persist.load_model(ols_model_path)
        model_path = tmp_path / "ensemble.json"
        persist.save_model(persist.EnsembleModel(members=(("a", ols), ("b", ols))),
                           model_path)
        doc = persist.read_json(model_path)
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, self.HEADER, self.ROWS)
        non_object = json.loads(json.dumps(doc))
        non_object["payload"]["members"][0]["model"] = [1]
        one_member = json.loads(json.dumps(doc))
        del one_member["payload"]["members"][1:]
        for bad in (non_object, one_member):
            persist.write_json(bad, model_path)
            rc = main(["predict", "--model", str(model_path),
                       "--input", str(inp), "--out", str(tmp_path / "p.csv")])
            assert rc == 1
            err = capsys.readouterr().err
            assert str(model_path) in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["input", "model"])
    def test_undecodable_byte(self, ols_model_path, tmp_path, capsys, bad):
        paths = {"input": tmp_path / "rows.csv", "model": tmp_path / "ols.json"}
        write_feature_csv(paths["input"], self.HEADER, self.ROWS)
        paths["model"].write_bytes(ols_model_path.read_bytes())
        paths[bad].write_bytes(paths[bad].read_bytes().replace(b"rain_mm", b"rain\xffmm"))
        rc = main(["predict", "--model", str(paths["model"]),
                   "--input", str(paths["input"]), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths[bad]) in err
        assert "Traceback" not in err

    def test_byte_order_mark_input(self, ols_model_path, tmp_path):
        plain = tmp_path / "plain.csv"
        write_feature_csv(plain, self.HEADER, self.ROWS)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for inp in (plain, bom):
            rc = main(["predict", "--model", str(ols_model_path),
                       "--input", str(inp), "--out", str(tmp_path / f"{inp.stem}.out")])
            assert rc == 0
        assert (tmp_path / "bom.out").read_bytes() == (tmp_path / "plain.out").read_bytes()

    def test_tree_feature_index_out_of_range(self, tmp_path, capsys):
        tree = flat(Internal(feature_index=3, threshold=0.5,
                             left=Leaf(1.0, 1), right=Leaf(2.0, 1)))
        leaf = flat(Leaf(0.0, 1))
        forest = Forest(trees=(leaf, tree), config=ForestConfig(n_trees=2))
        models = {
            "cart": tree,
            "forest": forest,
            "gbm": GbmModel(init_value=0.0, stages=(leaf, tree), learning_rate=0.1),
            "ensemble": persist.EnsembleModel(members=(("cart", leaf),
                                                       ("forest", forest))),
        }
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, ["x"], [[1.0], [2.0]])
        for kind, model in models.items():
            model_path = tmp_path / f"{kind}.json"
            persist.save_model(model, model_path)
            out = tmp_path / f"{kind}.csv"
            rc = main(["predict", "--model", str(model_path),
                       "--input", str(inp), "--out", str(out)])
            assert rc == 2, kind
            err = capsys.readouterr().err
            assert "too few columns" in err and "Traceback" not in err, kind
            assert not out.exists(), kind

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["ols", "sgd", "knn", "ensemble"])
    def test_huge_cell_is_refused(self, plain_models, tmp_path, capsys, kind):
        # 1e308 is a finite cell, but ols, sgd and the ensemble predict an
        # infinity from it, and knn finds every distance inf
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, self.HEADER, [self.ROWS[0], [1e308, 18.0, 5000.0]])
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(plain_models / f"{kind}.json"),
                   "--input", str(inp), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {inp}:3: " in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gbm_prediction_is_refused(self, tmp_path, capsys):
        # a finite init value and stage sum whose total passes the float range
        model = GbmModel(init_value=1.7e308, stages=(flat(Leaf(1.7e308, 1)),),
                         learning_rate=1.0)
        model_path = tmp_path / "gbm.json"
        persist.save_model(model, model_path)
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, ["x"], [[1.0], [2.0]])
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model_path), "--input", str(inp),
                   "--out", str(out)])
        assert rc == 2
        assert f"error: {inp}:2: gbm predicts inf" in capsys.readouterr().err
        assert not out.exists()

    def test_member_sum_past_float_range(self, tmp_path, capsys):
        # each tree predicts a finite 1.7e308, but two of them sum past the
        # float range before the mean divides them
        big = flat(Leaf(1.7e308, 1))
        models = {
            "forest": Forest(trees=(big, big), config=ForestConfig(n_trees=2)),
            "gbm": GbmModel(init_value=0.0, stages=(big, big), learning_rate=1.0),
        }
        inp = tmp_path / "rows.csv"
        write_feature_csv(inp, ["x"], [[1.0], [2.0]])
        for kind, model in models.items():
            model_path = tmp_path / f"{kind}.json"
            persist.save_model(model, model_path)
            out = tmp_path / f"{kind}.csv"
            rc = main(["predict", "--model", str(model_path),
                       "--input", str(inp), "--out", str(out)])
            assert rc == 2, kind
            err = capsys.readouterr().err
            assert "sum past the float range" in err and "Traceback" not in err, kind
            assert not out.exists(), kind


V1_DIR = Path(__file__).parent / "data" / "v1"


def set_v1(field, value, at_leaf=False):
    """An edit of a version 1 cart document: `field` of its root, or of its
    leftmost leaf, becomes `value`."""
    def edit(doc):
        node = doc["payload"]["tree"]
        while at_leaf and node["kind"] == "split":
            node = node["left"]
        node[field] = value
    return edit


def set_v2(field, value, at_leaf=False):
    """An edit of a version 2 cart document: `field` at its root, or at its
    first leaf, becomes `value`."""
    def edit(doc):
        tree = doc["payload"]["tree"]
        tree[field][tree["feature"].index(-1) if at_leaf else 0] = value
    return edit


MALFORMED_TREES = {
    "v1 split feature -1": set_v1("feature_index", -1),
    "v1 fractional feature": set_v1("feature_index", 1.7),
    "v1 boolean feature": set_v1("feature_index", True),
    "v1 NaN threshold": set_v1("threshold", "NaN"),
    "v1 infinite leaf value": set_v1("value", "Infinity", at_leaf=True),
    "v1 negative n_samples": set_v1("n_samples", -3, at_leaf=True),
    "v2 split feature -1": set_v2("feature", -1),
    "v2 fractional feature": set_v2("feature", 1.7),
    "v2 boolean feature": set_v2("feature", True),
    "v2 NaN threshold": set_v2("threshold", "NaN"),
    "v2 infinite leaf value": set_v2("value", "Infinity", at_leaf=True),
    "v2 negative n_samples": set_v2("n_samples", -3, at_leaf=True),
    "v2 feature below -1": set_v2("feature", -2, at_leaf=True),
    "v2 child before its parent": set_v2("left", 0),
    "v2 leaf with a child": set_v2("right", 1, at_leaf=True),
    "v2 short array": lambda doc: doc["payload"]["tree"]["value"].pop(),
}


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_malformed_tree_exits_1(case, tmp_path, capsys):
    model_path = tmp_path / "cart.json"
    persist.save_model(persist.load_model(V1_DIR / "cart.json"), model_path)
    doc = persist.read_json(V1_DIR / "cart.json" if case.startswith("v1") else model_path)
    MALFORMED_TREES[case](doc)
    model_path.write_text(json.dumps(doc))
    out = tmp_path / "predictions.csv"
    rc = main(["predict", "--model", str(model_path), "--input", str(V1_DIR / "features.csv"),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and f"error: {model_path}: corrupted cart payload" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("reader", ["predict --model", "cv --config", "cv --panel"])
def test_deeply_nested_json_is_a_format_error(panel_dir, tmp_path, capsys, reader):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    inp = tmp_path / "rows.csv"
    write_feature_csv(inp, TestPredict.HEADER, TestPredict.ROWS)
    argv = {
        "predict --model": ["predict", "--model", str(deep), "--input", str(inp),
                            "--out", str(tmp_path / "p.csv")],
        "cv --config": ["cv", "--panel", str(panel_dir / "panel.json"),
                        "--out", str(tmp_path), "--config", str(deep)],
        "cv --panel": ["cv", "--panel", str(deep), "--out", str(tmp_path)],
    }[reader]
    assert main(argv) == 1
    assert f"error: invalid JSON in {deep}: nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["ingest", "explore", "aliases", "predict"])
def test_oversized_field_names_file_and_line(snap, ols_model_path, tmp_path, capsys, target):
    big = tmp_path / "big.csv"
    header = {
        "aliases": "source_name,iso3",
        "predict": ",".join(TestPredict.HEADER),
    }.get(target, snap["temp"].read_text().splitlines()[0])
    big.write_text(f"{header}\n2000,Kenya,{'9' * 131_073}\n")
    out = tmp_path / "out"
    flags = input_flags(snap)
    if target in ("ingest", "explore"):
        flags[3] = str(big)
        argv = [target, *flags, "--out", str(out)]
    elif target == "aliases":
        argv = ["ingest", *flags, "--aliases", str(big), "--out", str(out)]
    else:
        argv = ["predict", "--model", str(ols_model_path), "--input", str(big),
                "--out", str(out / "p.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {big}: line 2: field larger than field limit (131072)\n"


@pytest.fixture(scope="module")
def numeric_models(panel_dir, tmp_path_factory):
    """sgd, knn, gbm, forest and ensemble model files on the three numeric columns."""
    out = tmp_path_factory.mktemp("cv-numeric-models")
    rc = main(["cv", "--panel", str(panel_dir / "panel.json"), "--out", str(out),
               "--models", "sgd,knn,gbm,forest", "--k", "2", "--no-encode-item"])
    assert rc == 0
    return out / "models"


def set_payload(*path, value):
    """An edit of a model document: the payload value at path (keys and list
    indices) becomes value."""
    def edit(doc):
        *head, last = path
        node = doc["payload"]
        for key in head:
            node = node[key]
        node[last] = value
    return edit


# (model kind, edit) of hand-edited model files that must not predict
MALFORMED_MODELS = {
    "knn fractional k": ("knn", set_payload("k", value=5.7)),
    "knn boolean k": ("knn", set_payload("k", value=True)),
    "knn negative k": ("knn", set_payload("k", value=-1)),
    "knn zero k": ("knn", set_payload("k", value=0)),
    "knn k above the training rows": ("knn", set_payload("k", value=1_000_000)),
    "knn string target": ("knn", set_payload("y_train", 0, value="12.5")),
    "knn boolean target": ("knn", set_payload("y_train", 0, value=True)),
    "knn NaN target": ("knn", set_payload("y_train", 0, value=float("nan"))),
    "knn infinite x_train": ("knn", set_payload("x_train", 0, 0, value=float("inf"))),
    "knn infinite scaler std": ("knn", set_payload("scaler", "stds", 0, value="Infinity")),
    "knn null scaler": ("knn", set_payload("scaler", value=None)),
    "knn 1-d x_train": ("knn", lambda doc: doc["payload"].update(
        x_train=doc["payload"]["x_train"][0])),
    "knn extra payload key": ("knn", set_payload("weights", value=None)),
    "knn list fit_metadata": ("knn", lambda doc: doc.update(fit_metadata=[])),
    "sgd infinite scaler std": ("sgd", set_payload("scaler", "stds", 0, value="Infinity")),
    "sgd short scaler passthrough": ("sgd", set_payload("scaler", "passthrough",
                                                        value=[False])),
    "sgd short scaler means": ("sgd", set_payload("scaler", "means", value=[0.0])),
    "sgd string intercept": ("sgd", set_payload("intercept", value="12.5")),
    "sgd boolean intercept": ("sgd", set_payload("intercept", value=True)),
    "sgd boolean coefficient": ("sgd", set_payload("coefficients", 0, value=True)),
    "sgd string coefficient": ("sgd", set_payload("coefficients", 0, value="1.0")),
    "gbm string init_value": ("gbm", set_payload("init_value", value="5e4")),
    "gbm string learning_rate": ("gbm", set_payload("learning_rate", value="0.1")),
    "gbm boolean learning_rate": ("gbm", set_payload("learning_rate", value=True)),
    "gbm no stages": ("gbm", set_payload("stages", value=[])),
    "forest string seed": ("forest", set_payload("config", "seed", value="x")),
    "forest integer bootstrap": ("forest", set_payload("config", "bootstrap", value=2)),
    "forest no trees": ("forest", set_payload("trees", value=[])),
    "forest extra payload key": ("forest", set_payload("weights", value=None)),
    "ensemble numeric member name": ("ensemble", set_payload("members", 0, "name", value=5)),
}


@pytest.mark.parametrize("case", list(MALFORMED_MODELS))
def test_malformed_model_exits_1(numeric_models, case, tmp_path, capsys):
    kind, edit = MALFORMED_MODELS[case]
    doc = persist.read_json(numeric_models / f"{kind}.json")
    edit(doc)
    model_path = tmp_path / f"{kind}.json"
    model_path.write_text(json.dumps(doc))
    inp = tmp_path / "rows.csv"
    write_feature_csv(inp, TestPredict.HEADER, TestPredict.ROWS)
    out = tmp_path / "predictions.csv"
    rc = main(["predict", "--model", str(model_path), "--input", str(inp), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith(f"error: {model_path}: "), err
    assert "Traceback" not in err and not out.exists()


def test_model_kind_names_agree():
    assert set(persist.MODEL_KINDS) == set(cli.MODEL_ORDER) | {"ensemble"}


class TestParser:
    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cv", "--k", "abc"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cv", "--help"])
        assert excinfo.value.code == 0
        assert "(default:" in capsys.readouterr().out
