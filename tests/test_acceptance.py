"""Acceptance gate: one test per shipping criterion, reported line by line.

Each test wraps its body in the `criterion` context manager from conftest,
which enforces the runtime budget and prints a PASS/FAIL summary line. The
checks compare the implementation against independent oracles (brute-force
scans, exhaustive split enumeration, central differences) rather than
against its own outputs.
"""
from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synth
from conftest import criterion
from tree_oracles import Internal, Leaf, nodes
from yieldcast.cli import MODEL_ORDER, model_specs
from yieldcast.core import apply_scaler
from yieldcast.errors import UndefinedKappa
from yieldcast.evaluate import (
    METRIC_NAMES,
    ModelSpec,
    cohen_kappa,
    cross_validate,
    ensemble_cv,
    make_folds,
    metrics_bundle,
    r2,
)
from yieldcast.explore import vif
from yieldcast.knn import fit_knn, predict_knn, predict_knn_batch
from yieldcast.linear import (
    SgdConfig,
    effective_parameters,
    fit_ols,
    fit_sgd,
    mse_gradient,
)
from yieldcast.persist import predict_model, read_json
from yieldcast.trees import (
    ForestConfig,
    GbmConfig,
    TreeConfig,
    fit_cart,
    fit_forest,
    fit_gbm,
    predict_forest_batch,
    predict_tree_batch,
)

# --------------------------------------------------------------------------
# full pipeline run shared by the last two criteria; the first requester
# (criterion 13) pays the wall-clock cost inside its budget


@pytest.fixture(scope="session")
def pipeline_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    data_dir = os.environ.get("YIELDCAST_DATA_DIR")
    if data_dir:
        paths = {name: Path(data_dir) / f"{name}.csv"
                 for name in ("rain", "temp", "pesticides", "yield")}
        missing = [str(p) for p in paths.values() if not p.exists()]
        if missing:
            raise FileNotFoundError(f"YIELDCAST_DATA_DIR lacks {missing}")
        source = "user snapshot"
    else:
        paths = synth.write_snapshot(base / "snapshot")
        source = "synthetic proxy"

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "yieldcast.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    ingest_dir = base / "ingested"
    run([
        "ingest",
        "--rain", str(paths["rain"]),
        "--temp", str(paths["temp"]),
        "--pesticides", str(paths["pesticides"]),
        "--yield", str(paths["yield"]),
        "--out", str(ingest_dir),
    ])

    stdouts = []
    outs = []
    for name in ("run-a", "run-b"):
        out = base / name
        stdouts.append(run(["cv", "--panel", str(ingest_dir / "panel.json"),
                            "--out", str(out)]))
        outs.append(out)

    return {
        "source": source,
        "outs": outs,
        "stdouts": stdouts,
        "report": read_json(outs[0] / "report.json"),
    }


# -------------------------------------------------------------------- checks


def test_criterion_01_metric_oracle_equivalence():
    with criterion(1, "metric-oracle-equivalence", 1.0):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            y = rng.normal(100.0, 20.0, size=n)
            yhat = y + rng.normal(0.0, 10.0, size=n)
            report = metrics_bundle(y, yhat)
            err = y - yhat
            expect = {
                "mae": float(np.mean(np.abs(err))),
                "mse": float(np.mean(err**2)),
                "max_err": float(np.max(np.abs(err))),
                "r2": 1.0 - float(np.sum(err**2))
                / float(np.sum((y - np.mean(y)) ** 2)),
            }
            expect["rmse"] = math.sqrt(expect["mse"])
            keep = np.abs(y) >= 1e-9
            expect["mape_percent"] = 100.0 * float(
                np.mean(np.abs(err[keep] / y[keep]))
            )
            for name in METRIC_NAMES:
                got = getattr(report, name)
                assert math.isclose(got, expect[name], rel_tol=1e-12, abs_tol=1e-12), (
                    name, got, expect[name],
                )


def test_criterion_02_ols_exactness():
    with criterion(2, "ols-exactness", 1.0):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(1, 6))
            x = rng.normal(scale=rng.uniform(0.5, 3.0), size=(100, p))
            beta = rng.normal(scale=2.0, size=p)
            b = float(rng.normal(scale=5.0))
            y = x @ beta + b
            m = fit_ols(x, y)
            assert float(np.max(np.abs(m.coefficients - beta))) <= 1e-8
            assert abs(m.intercept - b) <= 1e-8
            residual = y - (x @ m.coefficients + m.intercept)
            a = np.column_stack([x, np.ones(100)])
            ortho = float(np.max(np.abs(a.T @ residual))) / float(np.linalg.norm(y))
            assert ortho <= 1e-8


def test_criterion_03_gradient_check():
    with criterion(3, "gradient-check", 1.0):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        h = 1e-6

        def loss(beta, b, l2):
            return float(np.mean((x @ beta + b - y) ** 2) + l2 * np.sum(beta**2))

        for _ in range(100):
            beta = rng.normal(size=4)
            b = float(rng.normal())
            l2 = float(rng.uniform(0.0, 1.0))
            grad_beta, grad_b = mse_gradient(beta, b, x, y, l2=l2)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                numeric = (loss(beta + e, b, l2) - loss(beta - e, b, l2)) / (2 * h)
                assert abs(grad_beta[j] - numeric) / max(1.0, abs(numeric)) < 1e-6
            numeric_b = (loss(beta, b + h, l2) - loss(beta, b - h, l2)) / (2 * h)
            assert abs(grad_b - numeric_b) / max(1.0, abs(numeric_b)) < 1e-6


def test_criterion_04_sgd_convergence():
    with criterion(4, "sgd-convergence", 10.0):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(120, 3))
        y = x @ np.array([1.5, -2.0, 0.5]) + 0.75
        sgd = fit_sgd(x, y)  # default config
        ols = fit_ols(x, y)
        c_sgd, b_sgd = effective_parameters(sgd)
        c_ols, b_ols = effective_parameters(ols)
        gap = max(float(np.max(np.abs(c_sgd - c_ols))), abs(b_sgd - b_ols))
        assert gap <= 1e-2, f"parameter gap {gap:.2e}"
        # non-increasing between 100-epoch checkpoints within 1%, plus an
        # absolute allowance for the stochastic floor the L2 term leaves on
        # an otherwise noiseless target
        floor = 1e-7 * float(np.var(y))
        checkpoints = sgd.metadata["loss_checkpoints"]
        assert len(checkpoints) == 10
        for (_, prev), (_, nxt) in zip(checkpoints, checkpoints[1:]):
            assert nxt <= prev * 1.01 + floor, (prev, nxt)


def oracle_split(x_col, y, min_leaf):
    n = len(y)
    if n < 2 * min_leaf or np.all(y == y[0]):
        return None
    order = np.argsort(x_col, kind="stable")
    xs, ys = x_col[order], y[order]
    best = None
    for i in range(1, n):
        if not (xs[i - 1] < xs[i] and i >= min_leaf and n - i >= min_leaf):
            continue
        left_n, right_n = i, n - i
        gap = ys[:i].sum() / left_n - ys[i:].sum() / right_n
        reduction = (left_n * right_n / n) * gap * gap
        if reduction > 0.0 and (best is None or reduction > best[1]):
            best = ((xs[i - 1] + xs[i]) / 2.0, reduction)
    return best


def oracle_grow(x, y, idx, depth, cfg):
    node_y = y[idx]
    n = len(idx)
    if depth >= cfg.max_depth or n < cfg.split_threshold:
        return Leaf(value=float(node_y.mean()), n_samples=n)
    best = None
    for f in range(x.shape[1]):
        found = oracle_split(x[idx, f], node_y, cfg.min_samples_leaf)
        if found is None:
            continue
        threshold, reduction = found
        if best is None or reduction > best[0]:
            best = (reduction, f, threshold)
    if best is None:
        return Leaf(value=float(node_y.mean()), n_samples=n)
    _, f, threshold = best
    go_left = x[idx, f] <= threshold
    return Internal(
        feature_index=f,
        threshold=threshold,
        left=oracle_grow(x, y, idx[go_left], depth + 1, cfg),
        right=oracle_grow(x, y, idx[~go_left], depth + 1, cfg),
    )


def test_criterion_05_cart_brute_force_equivalence():
    with criterion(5, "cart-brute-force-equivalence", 10.0):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(10, 31))
            p = int(rng.integers(1, 4))
            # integer-valued data keeps split arithmetic exactly comparable
            x = rng.integers(0, 8, size=(n, p)).astype(float)
            y = rng.integers(0, 21, size=n).astype(float)
            cfg = TreeConfig(
                max_depth=int(rng.integers(1, 3)),
                min_samples_leaf=int(rng.integers(1, 4)),
            )
            got = nodes(fit_cart(x, y, cfg))
            want = oracle_grow(x, y, np.arange(n), 0, cfg)
            assert got == want, f"trial {trial}: trees differ"


def test_criterion_06_gbm_monotonic_training_loss():
    with criterion(6, "gbm-monotonic-training-loss", 30.0):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=(200, 3))
            y = np.sin(x[:, 0]) * 3.0 + x[:, 1] ** 2 + rng.normal(scale=0.5, size=200)
            model = fit_gbm(x, y, GbmConfig())
            stage_preds = np.stack([predict_tree_batch(t, x) for t in model.stages])
            cumulative = model.init_value + model.learning_rate * np.cumsum(
                stage_preds, axis=0
            )
            losses = [float(np.mean((y - model.init_value) ** 2))]
            losses += [
                float(np.mean((y - cumulative[t]) ** 2))
                for t in range(len(model.stages))
            ]
            for prev, nxt in zip(losses, losses[1:]):
                assert nxt <= prev * (1 + 1e-12), (prev, nxt)


def friedman(rng, n):
    x = rng.uniform(size=(n, 5))
    y = (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 10.0 * x[:, 3]
        + 5.0 * x[:, 4]
        + rng.normal(scale=1.0, size=n)
    )
    return x, y


def test_criterion_07_forest_beats_single_tree():
    with criterion(7, "forest-beats-single-tree", 60.0):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x, y = friedman(rng, 500)
            xtr, ytr, xte, yte = x[:350], y[:350], x[350:], y[350:]
            tree = fit_cart(xtr, ytr, TreeConfig())
            forest = fit_forest(xtr, ytr, ForestConfig(seed=seed))
            mse_tree = float(np.mean((yte - predict_tree_batch(tree, xte)) ** 2))
            mse_forest = float(np.mean((yte - predict_forest_batch(forest, xte)) ** 2))
            wins += mse_forest < mse_tree
        assert wins >= 8, f"forest won only {wins}/10"

        # degenerate forest (one tree, no bagging, all features) must be the
        # plain CART, prediction for prediction
        rng = np.random.default_rng(100)
        x, y = friedman(rng, 500)
        xtr, ytr, xte = x[:350], y[:350], x[350:]
        tcfg = TreeConfig(max_depth=32)
        degenerate = fit_forest(
            xtr, ytr,
            ForestConfig(n_trees=1, bootstrap=False, features_per_split=5, tree=tcfg),
        )
        np.testing.assert_array_equal(
            predict_forest_batch(degenerate, xte),
            predict_tree_batch(fit_cart(xtr, ytr, tcfg), xte),
        )


def test_criterion_08_knn_linear_scan_oracle():
    with criterion(8, "knn-linear-scan-oracle", 5.0):
        rng = np.random.default_rng(8)
        scales = np.array([1.0, 100.0, 0.01, 10.0])
        x = rng.normal(size=(300, 4)) * scales
        y = rng.normal(size=300)
        model = fit_knn(x, y, k=5)
        queries = rng.normal(size=(1000, 4)) * scales
        for q in queries:
            scaled = apply_scaler(model.scaler, q.reshape(1, -1))[0]
            diff = model.x_train - scaled
            dist = np.sqrt(np.sum(diff * diff, axis=1))
            idx = np.argsort(dist, kind="stable")[:5]
            assert predict_knn(model, q) == math.fsum(y[idx]) / 5

        nearest = fit_knn(x, y, k=1)
        assert r2(y, predict_knn_batch(nearest, x)) == 1.0

        everything = fit_knn(x, y, k=300)
        global_mean = math.fsum(y) / 300
        for q in queries[:50]:
            assert predict_knn(everything, q) == global_mean


def test_criterion_09_cv_fold_integrity():
    with criterion(9, "cv-fold-integrity", 5.0):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(30, 201))
            k = int(rng.integers(2, 11))
            plan = make_folds(n, k=k, seed=int(rng.integers(0, 100)))
            sizes = np.bincount(plan.assignments, minlength=k)
            assert sizes.sum() == n and len(sizes) == k
            assert sizes.max() - sizes.min() <= 1
            seen = np.concatenate([plan.test_indices(f) for f in range(k)])
            assert sorted(seen.tolist()) == list(range(n))
            for f in range(k):
                assert len(np.intersect1d(plan.test_indices(f),
                                          plan.train_indices(f))) == 0

        from conftest import tiny_matrix

        m = tiny_matrix(seed=1, n=60)
        spec = ModelSpec("ols", fit=fit_ols, predict=predict_model)
        first = cross_validate(spec, m, make_folds(60, k=5, seed=3))
        second = cross_validate(spec, m, make_folds(60, k=5, seed=3))
        assert first == second


def test_criterion_10_ensemble_averaging_identity(small_matrix):
    with criterion(10, "ensemble-averaging-identity", 30.0):
        m = small_matrix
        plan = make_folds(m.n, k=10, seed=0)
        specs = model_specs(("ols", "cart", "knn"), m.onehot, 0)
        log: list = []
        _, result = ensemble_cv(specs, m, plan, member_log=log)
        assert len(log) == plan.k
        for fold, entry in enumerate(log):
            stacked = np.stack(list(entry["members"].values()))
            recomputed = np.array(
                [math.fsum(stacked[:, i]) for i in range(stacked.shape[1])]
            ) / len(specs)
            np.testing.assert_array_equal(entry["ensemble"], recomputed)
            expected = metrics_bundle(m.y[entry["test_indices"]],
                                      entry["ensemble"])
            assert result.per_fold[fold] == expected

        cart_specs = model_specs(("cart",), m.onehot, 0)
        _, doubled = ensemble_cv([cart_specs[0], cart_specs[0]], m, plan)
        single = cross_validate(cart_specs[0], m, plan)
        assert doubled.per_fold == single.per_fold


def test_criterion_11_kappa_agreement():
    with criterion(11, "kappa-agreement", 5.0):
        rng = np.random.default_rng(11)
        y = rng.normal(size=200)
        self_result = cohen_kappa(y, y, n_bins=5)
        assert self_result.kappa == 1.0
        assert self_result.band == "perfect agreement"

        independent = cohen_kappa(rng.normal(size=10000),
                                  rng.normal(size=10000), n_bins=5)
        assert abs(independent.kappa) < 0.05

        partial = cohen_kappa(np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0]),
                              np.array([0.0, 0.0, 10.0, 10.0, 10.0, 0.0]),
                              n_bins=2)
        assert math.isclose(partial.kappa, 1.0 / 3.0, rel_tol=1e-12)
        assert partial.band == "fair agreement"

        chance = cohen_kappa(np.array([0.0, 0.0, 10.0, 10.0]),
                             np.array([0.0, 10.0, 0.0, 10.0]), n_bins=2)
        assert chance.kappa == 0.0
        assert chance.band == "agreement equivalent to chance"

        with pytest.raises(UndefinedKappa):
            cohen_kappa(np.full(10, 2.0), np.full(10, 2.0))


def test_criterion_12_vif_collinearity():
    with criterion(12, "vif-collinearity", 1.0):
        hadamard = np.array(
            [
                [1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1],
                [-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1],
            ],
            dtype=float,
        )
        orthogonal = vif(hadamard, ["a", "b", "c"])
        for name, value in orthogonal.items():
            assert abs(value - 1.0) <= 1e-9, (name, value)

        a = np.arange(8.0)
        b = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        duplicated = vif(np.column_stack([a, b, a]), ["a", "b", "a2"])
        assert math.isinf(duplicated["a"]) and math.isinf(duplicated["a2"])
        assert not math.isinf(duplicated["b"])


def test_criterion_13_directional_reproduction(request):
    with criterion(13, "directional-reproduction", 600.0) as entry:
        run = request.getfixturevalue("pipeline_run")
        entry["note"] = f"data: {run['source']}"
        report = run["report"]

        mean_r2 = {
            r["model_label"]: r["summary"]["r2"]["mean"]
            for r in report["per_model"]
        }
        assert set(mean_r2) == set(MODEL_ORDER)
        assert all(v is not None for v in mean_r2.values())
        assert mean_r2["forest"] > mean_r2["gbm"] > mean_r2["ols"], mean_r2
        tree_floor = min(mean_r2["cart"], mean_r2["forest"])
        linear_ceiling = max(mean_r2["ols"], mean_r2["sgd"])
        assert tree_floor - linear_ceiling >= 0.1, mean_r2

        lo, hi = report["eda"]["year_range"]
        assert 1990 <= lo <= hi <= 2016, (lo, hi)

        stdout = run["stdouts"][0]
        for metric in METRIC_NAMES:
            assert metric in stdout
        for name in MODEL_ORDER:
            assert re.search(rf"^{name}\s", stdout, re.M), name
        assert "±" in stdout
        label = "ensemble(" + "+".join(MODEL_ORDER) + ")"
        assert f"{label}: mean ± sample std over 10 folds" in stdout
        assert report["ensemble"]["model_label"] == label

        kappa_entry = report["kappa"]["forest"]
        assert "kappa" in kappa_entry and -1.0 <= kappa_entry["kappa"] <= 1.0


def test_criterion_14_run_determinism(request):
    with criterion(14, "run-determinism", 600.0):
        run = request.getfixturevalue("pipeline_run")
        out_a, out_b = run["outs"]
        assert run["stdouts"][0] == run["stdouts"][1]
        assert (out_a / "report.json").read_bytes() == (
            out_b / "report.json"
        ).read_bytes()
        names_a = sorted(p.name for p in (out_a / "models").iterdir())
        names_b = sorted(p.name for p in (out_b / "models").iterdir())
        assert names_a == names_b == sorted(
            [f"{name}.json" for name in MODEL_ORDER] + ["ensemble.json"]
        )
        for name in names_a:
            assert (out_a / "models" / name).read_bytes() == (
                out_b / "models" / name
            ).read_bytes(), name
