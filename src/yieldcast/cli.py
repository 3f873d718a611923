"""Command-line pipeline: ingest -> explore -> cv -> predict.

Each subcommand is a separate batch stage with on-disk intermediates, so
stages can be rerun independently. Exit codes: 0 success, 1 for IO or file
format problems, 2 for domain errors (empty join, failed folds, bad
shapes). All outputs are deterministic given flags and input bytes; reports
never embed paths or timestamps.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import evaluate, explore, ingest, persist
from .core import (
    NUMERIC_FEATURES,
    PANEL_VALUES,
    FeatureConfig,
    build_feature_matrix,
    train_test_split,
)
from .errors import (
    FormatError,
    InsufficientRows,
    InvalidConfig,
    InvalidData,
    IoError,
    ShapeError,
    UndefinedKappa,
    UnsupportedVersion,
    YieldcastError,
)
from .knn import fit_knn
from .linear import SgdConfig, fit_ols, fit_sgd
from .trees import ForestConfig, GbmConfig, TreeConfig, fit_cart, fit_forest, fit_gbm

KNN_K = 5

# name -> fit(x, y, mask, seed), in report order. Each entry looks its
# fit_* function up by name when called, so wrappers installed on this
# module's globals (perfbench's tracer) see every fit. Scaled models receive
# the one-hot mask so indicator columns pass through standardization untouched.
MODEL_FITS = {
    "ols": lambda x, y, mask, seed: fit_ols(x, y),
    "sgd": lambda x, y, mask, seed: fit_sgd(
        x, y, SgdConfig(epochs=200, seed=seed), passthrough=mask
    ),
    "cart": lambda x, y, mask, seed: fit_cart(x, y, TreeConfig()),
    "gbm": lambda x, y, mask, seed: fit_gbm(x, y, GbmConfig()),
    "knn": lambda x, y, mask, seed: fit_knn(x, y, k=KNN_K, passthrough=mask),
    "forest": lambda x, y, mask, seed: fit_forest(x, y, ForestConfig(seed=seed)),
}

MODEL_ORDER = tuple(MODEL_FITS)


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _parse(path: str | Path, data: bytes, parse, *args):
    """parse(data, *args), naming path in any FormatError it raises."""
    try:
        return parse(data, *args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _load_aliases(path: Optional[str]) -> ingest.CountryAliasMap:
    if path is None:
        return ingest.CountryAliasMap.load_default()
    return _parse(path, _read_bytes(path), ingest.CountryAliasMap.from_csv)


def _parse_inputs(args, digest=None) -> tuple[dict, dict]:
    """Read and parse the four CSVs; returns (parsed, digest of each input's
    bytes, or no digests when digest is None)."""
    paths = {"rain": args.rain, "temp": args.temp,
             "pesticides": args.pesticides, "yield": args.yield_path}
    raw = {k: _read_bytes(path) for k, path in paths.items()}
    digests = {k: digest(v) for k, v in raw.items()} if digest else {}
    parsed = {
        "rain": _parse(paths["rain"], raw["rain"], ingest.parse_cckp_csv, "precipitation"),
        "temp": _parse(paths["temp"], raw["temp"], ingest.parse_cckp_csv, "temperature"),
        "pesticides": _parse(paths["pesticides"], raw["pesticides"], ingest.parse_fao_csv),
        "yield": _parse(paths["yield"], raw["yield"], ingest.parse_fao_csv),
    }
    for name, result in parsed.items():
        for w in result.warnings:
            print(f"warning [{name}]: {w}", file=sys.stderr)
        if result.row_errors:
            print(
                f"warning [{name}]: skipped {len(result.row_errors)} malformed rows",
                file=sys.stderr,
            )
    return parsed, digests


def _merge(parsed: dict, aliases: ingest.CountryAliasMap, digests: Optional[dict] = None):
    """Join the four parsed inputs; returns (panel table, merge report)."""
    return ingest.merge_panel(
        parsed["rain"].records,
        parsed["temp"].records,
        parsed["pesticides"].records,
        parsed["yield"].records,
        aliases,
        source_digests=digests,
    )


def _out_dir(path: str | Path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return out


# ------------------------------------------------------------------ ingest


def cmd_ingest(args) -> int:
    import hashlib  # only ingest records digests; loaded ahead of the inputs it hashes

    parsed, digests = _parse_inputs(args, lambda data: hashlib.sha256(data).hexdigest())
    aliases = _load_aliases(args.aliases)
    table, report = _merge(parsed, aliases, digests)
    out = _out_dir(args.out)
    persist.save_panel(table, out / "panel.json")
    persist.write_json(report, out / "merge_report.json")
    print(report.summary())
    return 0


# ----------------------------------------------------------------- explore


def cmd_explore(args) -> int:
    """Compute every output first, then write them, so a run that fails
    leaves the old outputs as they were."""
    parsed, _ = _parse_inputs(args)
    aliases = _load_aliases(args.aliases)

    series = {
        "annual_rain.csv": explore.annual_mean(parsed["rain"].records, "rain_mm"),
        "annual_temp.csv": explore.annual_mean(parsed["temp"].records, "temp_c"),
        "annual_pesticides.csv": explore.annual_mean(
            ingest.pesticide_totals(parsed["pesticides"].records), "pesticides_tonnes"),
    }
    freq = explore.item_frequency(parsed["yield"].records)
    table, _ = _merge(parsed, aliases)
    corr = explore.pearson_corr_matrix(table.values, PANEL_VALUES)
    if args.vif:
        vif_values = explore.vif(table.values[:, : len(NUMERIC_FEATURES)], NUMERIC_FEATURES)

    out = _out_dir(args.out)
    for name, annual in series.items():
        explore.emit_plot_data(annual, out / name)
    persist.write_csv(["item", "count"], freq, out / "item_frequency.csv")
    persist.write_csv(
        ["feature", *corr.names],
        [[name, *corr.matrix[i]] for i, name in enumerate(corr.names)],
        out / "correlation_matrix.csv",
    )
    if args.vif:
        persist.write_csv(
            ["feature", "vif"],
            [[name, vif_values[name]] for name in NUMERIC_FEATURES],
            out / "vif.csv",
        )

    print(f"explored {len(table)} merged rows covering {table.year_range()}")
    return 0


# ---------------------------------------------------------------------- cv


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one cross-validation run."""

    panel: Path
    out: Path
    k: int = 10
    seed: int = 0
    models: tuple[str, ...] = MODEL_ORDER
    encode_item: bool = True
    encode_country: bool = False
    test_fraction: float = 0.2

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 2:
            raise InvalidConfig(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.models:
            raise InvalidConfig("at least one model must be selected")
        unknown = [name for name in self.models if name not in MODEL_ORDER]
        if unknown:
            raise InvalidConfig(
                f"unknown models {unknown}; choose from {list(MODEL_ORDER)}"
            )
        if len(set(self.models)) != len(self.models):
            raise InvalidConfig("duplicate model names selected")
        for name in ("encode_item", "encode_country"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidConfig(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        if not isinstance(self.test_fraction, float) or not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfig(
                f"test_fraction must be a float in (0, 1), got {self.test_fraction!r}"
            )
        if not self.panel.exists():
            raise IoError(f"panel file {self.panel} does not exist")


def _parse_models(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(p.strip() for p in value.split(",") if p.strip())
    if isinstance(value, (list, tuple)):
        return tuple(str(p) for p in value)
    raise InvalidConfig(f"models must be a comma-separated string, got {value!r}")


def _run_config(args) -> RunConfig:
    """Config-file settings overridden by explicit flags; RunConfig fills the rest."""
    keys = {f.name for f in fields(RunConfig)}
    settings: dict[str, Any] = {}
    if args.config is not None:
        doc = persist.read_json(args.config)
        if not isinstance(doc, dict):
            raise InvalidConfig(f"config file {args.config} must hold a JSON object")
        unknown = set(doc) - keys
        if unknown:
            raise InvalidConfig(f"unknown config keys {sorted(unknown)}")
        settings.update(doc)
    settings.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})

    for key in ("out", "panel"):
        if not isinstance(settings.get(key, ""), str):
            raise InvalidConfig(f"{key} must be a path string, got {settings[key]!r}")
    settings["out"] = Path(settings.get("out", "."))
    settings["panel"] = Path(settings.get("panel", settings["out"] / "panel.json"))
    if "models" in settings:
        settings["models"] = _parse_models(settings["models"])
    return RunConfig(**settings)


def model_specs(
    names: Sequence[str], onehot: Sequence[bool], seed: int
) -> list[evaluate.ModelSpec]:
    """ModelSpec per selected name, in the given order; all share predict_model."""
    context = {"mask": tuple(onehot), "seed": seed}
    return [
        evaluate.ModelSpec(
            name, fit=partial(MODEL_FITS[name], **context), predict=persist.predict_model
        )
        for name in names
    ]


def _fmt_mean_std(summary: evaluate.MetricSummary) -> str:
    if summary.mean is None:
        return "n/a"
    if summary.std is None:
        return f"{summary.mean:.4g}"
    return f"{summary.mean:.4g} ± {summary.std:.4g}"


def render_cv_table(results: Sequence[evaluate.CvResult]) -> str:
    """Plain-text table: one row per model, mean +/- std per metric."""
    header = ["model", *evaluate.METRIC_NAMES]
    rows = [
        [r.model_label, *(_fmt_mean_std(r.summary[m]) for m in evaluate.METRIC_NAMES)]
        for r in results
    ]
    widths = [
        max(len(header[j]), *(len(row[j]) for row in rows)) if rows else len(header[j])
        for j in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_ensemble_block(result: evaluate.CvResult, k: int) -> str:
    lines = [f"{result.model_label}: mean ± sample std over {k} folds"]
    for metric in evaluate.METRIC_NAMES:
        lines.append(f"  {metric}: {_fmt_mean_std(result.summary[metric])}")
    return "\n".join(lines)


def _kappa_entry(y_true: np.ndarray, y_pred: np.ndarray) -> evaluate.KappaResult | dict:
    try:
        return evaluate.cohen_kappa(y_true, y_pred)
    except (UndefinedKappa, InsufficientRows) as exc:
        return {"undefined": str(exc)}


def cmd_cv(args) -> int:
    cfg = _run_config(args)
    table = persist.load_panel(cfg.panel)
    feature_cfg = FeatureConfig(
        encode_item=cfg.encode_item, encode_country=cfg.encode_country
    )
    m = build_feature_matrix(table, feature_cfg)
    plan = evaluate.make_folds(m.n, cfg.k, cfg.seed)
    specs = model_specs(cfg.models, m.onehot, cfg.seed)

    per_model, ensemble_result = evaluate.ensemble_cv(specs, m, plan)

    train, test = train_test_split(m, cfg.test_fraction, cfg.seed)
    fitted: dict[str, Any] = {spec.name: spec.fit(train.x, train.y) for spec in specs}
    if len(specs) >= 2:
        fitted["ensemble"] = persist.EnsembleModel(members=tuple(fitted.items()))
    holdout_metrics: dict[str, evaluate.MetricsReport] = {}
    kappa: dict[str, Any] = {}
    for name, model in fitted.items():
        yhat = persist.predict_model(model, test.x)
        holdout_metrics[name] = evaluate.metrics_bundle(test.y, yhat)
        kappa[name] = _kappa_entry(test.y, yhat)

    eda: dict[str, Any] = {
        "item_counts": sorted(Counter(item for _, _, item in table.keys).items()),
        "n_rows": len(table),
        "year_range": list(table.year_range()),
    }
    try:
        eda["correlation"] = explore.pearson_corr_matrix(table.values, PANEL_VALUES)
    except YieldcastError as exc:
        eda["correlation"] = {"undefined": str(exc)}

    table_text = render_cv_table(
        per_model + ([ensemble_result] if ensemble_result else [])
    )
    report = {
        "environment": {
            "k": cfg.k,
            "seed": cfg.seed,
            "models": list(cfg.models),
            "test_fraction": cfg.test_fraction,
            "feature_config": feature_cfg,
            "knn_k": KNN_K,
        },
        "merge_report": table.provenance.get("merge", {}),
        "eda": eda,
        "per_model": per_model,
        "ensemble": ensemble_result,
        "kappa": kappa,
        "holdout": {
            "test_fraction": cfg.test_fraction,
            "n_train": train.n,
            "n_test": test.n,
            "metrics": holdout_metrics,
        },
        "table": table_text,
    }

    out = _out_dir(cfg.out)
    models_dir = out / "models"
    # Every file is written into a temporary directory first and moved into
    # place only once all are complete, so a run that fails leaves the old
    # outputs as they were, and no mix of old and new files.
    try:
        models_dir.mkdir(exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".cv-", dir=out))
    except OSError as exc:
        raise IoError(f"cannot write into {out}: {exc}") from exc
    try:
        persist.write_report(report, staging / "report.json")
        for name, model in fitted.items():
            persist.save_model(model, staging / f"{name}.json", m.feature_names)
        for name in fitted:
            os.replace(staging / f"{name}.json", models_dir / f"{name}.json")
        os.replace(staging / "report.json", out / "report.json")
    except OSError as exc:
        raise IoError(f"cannot write into {out}: {exc}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    print(table_text)
    if ensemble_result is not None:
        print()
        print(render_ensemble_block(ensemble_result, cfg.k))
    return 0


# ----------------------------------------------------------------- predict


def _named_rows(path: str | Path, rows):
    """The rows of `rows`, naming path in any FormatError reading them raises."""
    try:
        yield from rows
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_feature_csv(path: str | Path) -> tuple[list[str], np.ndarray, array]:
    """(header, rows as floats, the line number of each row); predict_model
    checks the cells."""
    rows = _named_rows(path, ingest.csv_rows(_read_bytes(path)))
    _, header = next(rows, (None, None))
    if header is None:
        raise FormatError(f"{path}: empty input")
    header = [c.strip() for c in header]
    lines, data = array("l"), array("d")  # no Python int or float per row or cell is kept
    for i, row in rows:
        if len(row) != len(header):
            raise FormatError(f"{path}:{i}: expected {len(header)} cells, got {len(row)}")
        try:
            data.extend(map(float, row))
        except ValueError as exc:
            raise FormatError(f"{path}:{i}: non-numeric cell: {exc}") from exc
        lines.append(i)
    if not lines:
        raise FormatError(f"{path}: no data rows")
    return header, np.frombuffer(data).reshape(len(lines), len(header)), lines


def cmd_predict(args) -> int:
    model, names = persist.load_model(args.model)
    header, x, lines = _read_feature_csv(args.input)
    if header != list(names):
        raise ShapeError(
            f"{args.input}: model expects {len(names)} feature columns, input has "
            f"{len(header)}: the header must be the model's feature names {list(names)}"
        )
    try:
        preds = persist.predict_model(model, x)
    except InvalidData as exc:
        where = args.input if exc.row is None else f"{args.input}:{lines[exc.row]}"
        raise InvalidData(f"{where}: {exc}") from exc
    except ShapeError as exc:  # the header is the names, so the file is at fault
        raise FormatError(f"{args.model}: the model does not fit its feature names "
                          f"{list(names)}: {exc}") from exc

    persist.write_csv(["prediction"], [[float(v)] for v in preds], args.out)
    print(f"wrote {len(preds)} predictions")
    return 0


# ------------------------------------------------------------------ parser


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rain", required=True, help="CCKP precipitation CSV")
    p.add_argument("--temp", required=True, help="CCKP temperature CSV")
    p.add_argument("--pesticides", required=True, help="FAOSTAT pesticides CSV")
    p.add_argument(
        "--yield", dest="yield_path", required=True, help="FAOSTAT crop yield CSV"
    )
    p.add_argument(
        "--aliases",
        default=None,
        help="country alias CSV (source_name,iso3); default: packaged table",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yieldcast",
        description="Crop yield modeling pipeline: ingest, explore, cross-validate, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="merge the four input CSVs into a panel table"
    )
    _add_input_flags(p_ingest)
    p_ingest.add_argument(
        "--out", default=".", help="output directory (default: current directory)"
    )
    p_ingest.set_defaults(func=cmd_ingest)

    p_explore = sub.add_parser(
        "explore", help="write descriptive statistics for the inputs"
    )
    _add_input_flags(p_explore)
    p_explore.add_argument(
        "--out", default=".", help="output directory (default: current directory)"
    )
    p_explore.add_argument(
        "--vif",
        action="store_true",
        help="also write variance inflation factors (default: off)",
    )
    p_explore.set_defaults(func=cmd_explore)

    p_cv = sub.add_parser(
        "cv", help="cross-validate the models and write the run report"
    )
    p_cv.add_argument(
        "--panel", default=None, help="panel JSON from ingest (default: <out>/panel.json)"
    )
    p_cv.add_argument(
        "--out", default=None, help="output directory (default: current directory)"
    )
    p_cv.add_argument("--k", type=int, default=None, help="fold count (default: 10)")
    p_cv.add_argument("--seed", type=int, default=None, help="RNG seed (default: 0)")
    p_cv.add_argument(
        "--models",
        default=None,
        help=f"comma-separated subset of {','.join(MODEL_ORDER)} (default: all)",
    )
    p_cv.add_argument(
        "--encode-item",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="one-hot encode the crop item (default: on)",
    )
    p_cv.add_argument(
        "--encode-country",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="one-hot encode the country (default: off)",
    )
    p_cv.add_argument(
        "--test-fraction",
        type=float,
        default=None,
        help="holdout fraction for the saved models and kappa (default: 0.2)",
    )
    p_cv.add_argument(
        "--config",
        default=None,
        help="JSON file with defaults for these flags; explicit flags win",
    )
    p_cv.set_defaults(func=cmd_cv)

    p_predict = sub.add_parser(
        "predict", help="apply a saved model to new feature rows"
    )
    p_predict.add_argument("--model", required=True, help="model JSON from cv")
    p_predict.add_argument(
        "--input", required=True, help="CSV of feature rows (header + numbers)"
    )
    p_predict.add_argument(
        "--out", default="predictions.csv", help="output CSV (default: predictions.csv)"
    )
    p_predict.set_defaults(func=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IoError, FormatError, UnsupportedVersion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except YieldcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
