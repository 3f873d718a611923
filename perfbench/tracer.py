"""In-process pass over a workload's commands, with optional layer spans.

Run as a child process by run.py:

    python3 perfbench/tracer.py --root . --plan plan.json --out result.json [--trace]

The plan lists `yieldcast` argument vectors; each one runs through
`yieldcast.cli.main(argv)` in this process. With `--trace`, wrappers
installed from this file replace the public functions listed in LAYERS in
every `yieldcast` module namespace that binds them (cli imports the fit
functions by name, trees reaches fit_cart and best_split through its
globals, persist binds the batch predictors). Each call then records a span:
name, start, end, parent and run id. Functions in COUNTED record only a call
count, a summed time and how many calls returned a result, because they run
hundreds of thousands of times. Spans stay in memory and are written to the
result file when the pass ends; `layer_metrics` turns them into per-layer
numbers.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

LAYERS = {
    "ingest": ("parse_cckp_csv", "parse_fao_csv", "merge_panel"),
    "core": ("build_feature_matrix", "train_test_split"),
    "explore": ("annual_mean", "emit_plot_data", "item_frequency", "pearson_corr_matrix", "vif"),
    "linear": ("fit_ols", "fit_sgd", "predict_linear"),
    "trees": (
        "fit_cart", "fit_forest", "fit_gbm",
        "predict_tree_batch", "predict_forest_batch", "predict_gbm_batch",
    ),
    "knn": ("fit_knn", "predict_knn_batch"),
    "evaluate": (
        "make_folds", "cross_validate", "ensemble_cv",
        "metrics_bundle", "summarize_folds", "cohen_kappa",
    ),
    "persist": (
        "canonical_json", "write_json", "read_json", "save_panel", "load_panel",
        "save_model", "load_model", "predict_model", "write_report",
    ),
    "cli": ("main", "cmd_ingest", "cmd_explore", "cmd_cv", "cmd_predict"),
}
COUNTED = {"trees": ("best_split",)}

MODEL_FITS = ("linear.fit_ols", "linear.fit_sgd", "trees.fit_cart", "trees.fit_gbm",
              "trees.fit_forest", "knn.fit_knn")
FOLD_RUNNERS = ("evaluate.cross_validate", "evaluate.ensemble_cv")
TREE_PREDICTS = ("trees.predict_tree_batch", "trees.predict_forest_batch",
                 "trees.predict_gbm_batch")


def _sgd_row_updates(args, kwargs, result, orig) -> float:
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["cfg"].epochs * len(bound.arguments["x"])


# span name -> (counter, value taken from the call's arguments and result)
OBSERVERS: dict[str, tuple[str, Callable]] = {
    "ingest.parse_cckp_csv": ("ingest.parse_rows",
                              lambda a, k, r, f: len(r.records) + len(r.row_errors)),
    "ingest.parse_fao_csv": ("ingest.parse_rows",
                             lambda a, k, r, f: len(r.records) + len(r.row_errors)),
    "ingest.merge_panel": ("ingest.merge_rows_out", lambda a, k, r, f: r[1].rows_out),
    "linear.fit_sgd": ("linear.sgd_row_updates", _sgd_row_updates),
    "knn.predict_knn_batch": ("knn.query_rows", lambda a, k, r, f: len(r)),
    "persist.write_json": ("persist.bytes_written", lambda a, k, r, f: os.path.getsize(a[1])),
}


class Tracer:
    """Span recorder for one pass; `run` is the id of the current command."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[float]] = {}  # name -> [calls, seconds, found]
        self.counters: dict[str, float] = {}
        self.trees: list[Any] = []  # fit_cart results, sized after the pass
        self.run = ""

    def span(self, name: str, fn: Callable) -> Callable:
        observer = OBSERVERS.get(name)
        keep = name == "trees.fit_cart"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self.stack[-1] if self.stack else None,
                   "run": self.run, "start": 0.0, "end": 0.0, "counted_s": 0.0}
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                self.stack.pop()
            if observer is not None:
                key, value = observer
                self.counters[key] = self.counters.get(key, 0) + value(args, kwargs, result, fn)
            if keep:
                self.trees.append(result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        entry = self.counts.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += result is not None
            if self.stack:
                self.spans[self.stack[-1]]["counted_s"] += elapsed
            return result

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function wherever a yieldcast module binds it.

    Returns the names that the package no longer defines.
    """
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name == "yieldcast" or name.startswith("yieldcast.")]
    missing = []
    for table, make in ((LAYERS, tracer.span), (COUNTED, tracer.count)):
        for layer, names in table.items():
            module = sys.modules.get(f"yieldcast.{layer}")
            for name in names:
                orig = getattr(module, name, None)
                if orig is None:
                    missing.append(f"{layer}.{name}")
                    continue
                wrapped = make(f"{layer}.{name}", orig)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            ns[key] = wrapped
    return missing


def _tree_nodes(tree: Any) -> int:
    stack, nodes = [tree], 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(getattr(node, side) for side in ("left", "right") if hasattr(node, side))
    return nodes


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer numbers from one traced pass (see README.md for each)."""
    spans = result["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    child = [s["counted_s"] for s in spans]
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    self_s = [d - c for d, c in zip(dur, child)]
    above: list[frozenset] = []  # names of each span's ancestors; parents come first
    for s in spans:
        p = s["parent"]
        above.append(frozenset() if p is None else above[p] | {spans[p]["name"]})

    def total(names, outside=frozenset()) -> float:
        """Time in the outermost spans of `names`, skipping those under `outside`."""
        return sum(dur[i] for i, s in enumerate(spans) if s["name"] in names
                   and not above[i] & (names | outside))

    def own(names) -> float:
        return sum(self_s[i] for i, s in enumerate(spans) if s["name"] in names)

    counters = result["counters"]
    calls, split_s, found = result["counts"].get("trees.best_split", [0, 0.0, 0])
    wall = sum(c["seconds"] for c in result["commands"])
    layers = {layer: own({f"{layer}.{n}" for n in names}) for layer, names in LAYERS.items()}
    for layer, names in COUNTED.items():  # count-only calls are their own layer's time
        layers[layer] += sum(result["counts"].get(f"{layer}.{n}", [0, 0.0])[1] for n in names)
    out = {
        "ingest.parse_s": total({"ingest.parse_cckp_csv", "ingest.parse_fao_csv"}),
        "ingest.parse_rows": counters.get("ingest.parse_rows", 0),
        "ingest.merge_s": total({"ingest.merge_panel"}),
        "ingest.merge_rows_out": counters.get("ingest.merge_rows_out", 0),
        "core.feature_matrix_s": total({"core.build_feature_matrix"}),
        "linear.fit_sgd_s": total({"linear.fit_sgd"}),
        "linear.sgd_row_updates": counters.get("linear.sgd_row_updates", 0),
        "linear.fit_ols_s": total({"linear.fit_ols"}),
        "trees.fit_forest_s": total({"trees.fit_forest"}),
        "trees.fit_gbm_s": total({"trees.fit_gbm"}),
        "trees.fit_cart_s": total({"trees.fit_cart"}),
        "trees.grow_self_s": own({"trees.fit_cart"}),
        "trees.best_split_calls": calls,
        "trees.best_split_s": split_s,
        "trees.split_found_ratio": found / calls if calls else 0.0,
        "trees.nodes": result["tree_nodes"],
        "trees.predict_s": total(set(TREE_PREDICTS), outside=set(MODEL_FITS)),
        "knn.predict_s": total({"knn.predict_knn_batch"}),
        "knn.query_rows": counters.get("knn.query_rows", 0),
        "evaluate.fold_runner_self_s": own(set(FOLD_RUNNERS)),
        "evaluate.fits": sum(1 for s in spans if s["name"] in MODEL_FITS
                             and s["parent"] is not None
                             and spans[s["parent"]]["name"] in FOLD_RUNNERS),
        "evaluate.metrics_s": total({"evaluate.metrics_bundle", "evaluate.summarize_folds",
                                     "evaluate.cohen_kappa"}),
        "persist.canonical_json_s": total({"persist.canonical_json"}),
        "persist.bytes_written": counters.get("persist.bytes_written", 0),
        "persist.load_panel_s": total({"persist.load_panel"}),
        "persist.load_model_s": total({"persist.load_model"}),
        "cli.import_s": result["import_s"],
    }
    out.update({f"{layer}.self_s": value for layer, value in layers.items()})
    out["trace.wall_s"] = wall
    # the layer self times sum to `wall` by construction, since cli.main is
    # wrapped; what can move is how much of it lands outside cli's own code
    out["trace.layer_share"] = (sum(layers.values()) - layers["cli"]) / wall if wall else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--plan", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from yieldcast import cli
    import_s = time.perf_counter() - start
    src = (args.root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: yieldcast was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    missing = install(tracer) if tracer else []
    commands = []
    for i, (label, cmd) in enumerate(json.loads(args.plan.read_text())):
        if tracer:
            tracer.run = f"{i}:{label}"
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(cmd)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - t0
        commands.append({"label": label, "returncode": code, "seconds": seconds})

    result = {"import_s": import_s, "commands": commands, "missing": missing,
              "spans": [], "counts": {}, "counters": {}, "tree_nodes": 0}
    if tracer:
        result.update(spans=tracer.spans, counts=tracer.counts, counters=tracer.counters,
                      tree_nodes=sum(_tree_nodes(t) for t in tracer.trees))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
