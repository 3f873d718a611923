"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""
from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

TINY_PROXY = gen.Shape(3, (2000, 2010), (2008, 2012), (2005, 2012))
TINY_WIDE = gen.Shape(12, (2000, 2012), (2005, 2014), (2002, 2014), anomalies=True)


def tiny(workload: run.Workload) -> run.Workload:
    inputs = TINY_WIDE if workload.inputs.anomalies else replace(
        TINY_PROXY, signal=workload.inputs.signal)
    return replace(workload, inputs=inputs, feature_rows=40,
                   model_inputs=TINY_PROXY if workload.model_inputs else None)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny timed run of each workload; the work directories are kept."""
    results = {}
    for name, workload in run.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        results[name] = (work, run.measure(ROOT, work, tiny(workload), seed=3, seconds=0,
                                           trace=False))
    return results


@pytest.mark.parametrize("shape", [TINY_PROXY, TINY_WIDE])
def test_generator_is_deterministic_per_seed(tmp_path, shape):
    def files(seed, where):
        paths, expected = gen.write_inputs(tmp_path / where, shape, seed)
        gen.write_features(tmp_path / where / "features.csv", shape, seed, 25)
        return {p.name: p.read_bytes() for p in (tmp_path / where).iterdir()}, expected

    first, rows = files(5, "a")
    again, rows_again = files(5, "b")
    other, rows_other = files(6, "c")
    assert first == again
    assert first["yield.csv"] != other["yield.csv"]
    assert first["features.csv"] != other["features.csv"]
    assert rows == rows_again == rows_other > 0


def test_wide_snapshot_uses_every_country_of_the_alias_table():
    assert len(gen.alias_table()) == run.WIDE.countries


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_of_each_workload_passes(smoke, name):
    _, result = smoke[name]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 4
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_traced_run_matches_untraced_and_reports_layers(tmp_path):
    workload = tiny(run.WORKLOADS["cv-nonlinear"])
    result = run.measure(ROOT, tmp_path / "work", workload, seed=3, seconds=0, trace=True)
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert 0 < metrics["trace.layer_share"] < 1
    assert metrics["cli.self_s"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["evaluate.fits"] == len(workload.models) * workload.k
    assert metrics["trees.best_split_calls"] > 0
    assert 0 < metrics["trees.split_found_ratio"] <= 1
    assert metrics["linear.fit_sgd_s"] == 0
    spans = json.loads((tmp_path / "spans-cv-nonlinear.json").read_text())
    assert {"name", "start", "end", "parent", "run"} <= set(spans[0])


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_check_flags_a_missing_model(smoke, tmp_path):
    work, _ = smoke["cv-nonlinear"]
    out = _copy(work / "pass0" / "cv", tmp_path / "cv")
    workload = run.WORKLOADS["cv-nonlinear"]
    assert checks.check_cv(out, workload.models, workload.k) == []
    (out / "models" / "knn.json").unlink()
    assert checks.check_cv(out, workload.models, workload.k)


def test_check_flags_an_undefined_r2(smoke, tmp_path):
    work, _ = smoke["cv-linear"]
    out = _copy(work / "pass0" / "cv", tmp_path / "cv")
    report = json.loads((out / "report.json").read_text())
    report["per_model"][1]["per_fold"][0]["r2"] = "NaN"
    (out / "report.json").write_text(json.dumps(report))
    assert any("undefined r2" in p for p in checks.check_cv(out, ("ols", "sgd"), 2))


def test_check_flags_a_changed_report_byte(smoke, tmp_path):
    work, _ = smoke["cv-linear"]
    out = _copy(work / "pass0", tmp_path / "pass")
    reference = checks.digest_tree(out)
    report = out / "cv" / "report.json"
    data = bytearray(report.read_bytes())
    data[len(data) // 2] ^= 1
    report.write_bytes(bytes(data))
    assert checks.check_same(reference, checks.digest_tree(out), "pass")


def test_check_flags_wrong_row_counts_and_bad_predictions(smoke, tmp_path):
    work, _ = smoke["ingest-predict"]
    ingest = work / "pass0" / "ingest"
    rows = json.loads((ingest / "merge_report.json").read_text())["rows_out"]
    assert checks.check_ingest(ingest, rows, True) == []
    assert checks.check_ingest(ingest, rows + 1, True)
    predictions = work / "pass0" / "predict-ensemble.csv"
    assert checks.check_predict(predictions, 40) == []
    lines = predictions.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_predict(bad, 40)
    bad.write_text("\n".join(lines[:-1] + ["nan"]) + "\n")
    assert checks.check_predict(bad, 40)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_a_directory_without_the_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "cv-linear", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--blas-threads", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
