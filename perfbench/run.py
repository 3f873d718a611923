"""yieldcast benchmark: three workloads of `yieldcast` CLI commands.

    python3 perfbench/run.py --blas-threads 1 --workload cv-linear --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each command runs as its own
subprocess (`python3 -m yieldcast.cli` with `src/` on PYTHONPATH), one at a
time, and is timed from spawn to exit; its maximum RSS comes from
os.wait4. Every output is checked. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced in-process pass
with `--trace 1`. README.md explains the workloads and each metric.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

# set-up runs at least 3 times, and up to 9 times while it has taken under 4 s
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 9, 4.0

# 10 countries x 3 panel years (2014-2016) x 10 items = 300 panel rows, 13 features.
# Half the noise of tests/synth.py halves the seed-to-seed spread of the
# ensemble's CV R², the accuracy guard. The raw series cover only the panel
# years, so the merge drops no row for its year.
PROXY = gen.Shape(10, (2014, 2016), (2014, 2016), (2014, 2016), noise=0.05)
# the same with an additive signal and 2 panel years: 200 rows
LINEAR_PROXY = gen.Shape(10, (2015, 2016), (2015, 2016), (2015, 2016), signal="linear",
                         noise=0.05)
# all 193 ISO3 codes of the alias table x 14 panel years (2003-2016) x 10 items,
# less the two countries whose temperature series is missing: 26,740 panel rows
# from about 57k CSV rows, as raw CCKP and FAOSTAT series span more years
# than the panel.
WIDE = gen.Shape(193, (1991, 2016), (2003, 2018), (1998, 2019), anomalies=True)
TREE_MODELS = ("gbm", "knn", "forest")


@dataclass(frozen=True)
class Workload:
    """One workload: the snapshot its commands read and the models it uses.

    Without `model_inputs`, set-up runs ingest and explore on `inputs`, and
    each pass runs `cv --models <models>` on that panel and then predict
    with the ensemble this cv wrote. With `model_inputs`, set-up runs ingest
    and cv on `model_inputs` to make model files, and each pass runs ingest,
    explore --vif, and predict with each of `predict_with`, all on `inputs`.
    """

    name: str
    inputs: gen.Shape
    feature_rows: int
    models: tuple[str, ...]
    k: int = 2
    model_inputs: Optional[gen.Shape] = None
    predict_with: tuple[str, ...] = ("ensemble",)


WORKLOADS = {
    w.name: w
    for w in (
        # predict scores as many rows as the panel holds
        Workload("cv-linear", LINEAR_PROXY, 200, ("ols", "sgd")),
        Workload("cv-nonlinear", PROXY, 300, TREE_MODELS),
        Workload("ingest-predict", WIDE, 20000, TREE_MODELS, model_inputs=PROXY,
                 predict_with=("forest", "ensemble")),
    )
}

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "ingest_s": "s", "explore_s": "s", "predict_s": "s",
    "peak_rss_mb": "MB", "cv_r2_ensemble": "r2", "cv_r2_min": "r2",
}
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.parse_rows": "count", "ingest.merge_s": "s",
    "ingest.merge_rows_out": "count", "core.feature_matrix_s": "s",
    "linear.fit_sgd_s": "s", "linear.sgd_row_updates": "count", "linear.fit_ols_s": "s",
    "trees.fit_forest_s": "s", "trees.fit_gbm_s": "s", "trees.fit_cart_s": "s",
    "trees.grow_self_s": "s", "trees.best_split_calls": "count", "trees.best_split_s": "s",
    "trees.split_found_ratio": "ratio", "trees.nodes": "count", "trees.predict_s": "s",
    "knn.predict_s": "s", "knn.query_rows": "count",
    "evaluate.fold_runner_self_s": "s", "evaluate.fits": "count", "evaluate.metrics_s": "s",
    "persist.canonical_json_s": "s", "persist.bytes_written": "bytes",
    "persist.load_panel_s": "s", "persist.load_model_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio",
    "trace.layer_share": "ratio",
}


@dataclass
class Step:
    """One command of a pass and the check of what it wrote."""

    label: str
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass
class Inputs:
    """What `gen.py` wrote for one run: raw CSVs, the panel rows the merge
    must keep, the feature rows for predict, and the set-up's raw CSVs."""

    raw: dict[str, Path]
    rows: int
    features: Path
    model_raw: Optional[dict[str, Path]]
    model_rows: int


@dataclass
class Outcome:
    label: str
    seconds: float
    rss_mb: float
    problems: list[str]


class Bench:
    """Runs one workload in a work directory and tallies operations."""

    def __init__(self, root: Path, work: Path, workload: Workload, seed: int, blas_threads: int):
        self.root, self.work, self.wl, self.seed = root.resolve(), work, workload, seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- commands

    def spawn(self, step: Step) -> Outcome:
        """Run one command as its own process; wall time and max RSS from wait4."""
        log = self.logs / f"{step.label}.log"
        with log.open("w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "yieldcast.cli", *step.argv],
                                    env=self.env, cwd=self.work, stdout=fh, stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-400:]
            problems.append(f"{step.label} exited {proc.returncode}: {tail}")
        return Outcome(step.label, seconds, usage.ru_maxrss / 1024.0, problems)

    def tally(self, step: Step, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if not outcome.problems:
            outcome.problems = step.check()
        if outcome.problems:
            self.failed += 1
            self.problems += outcome.problems
        return outcome

    def record(self, problems: list[str]) -> None:
        """Count one operation that is not a command, such as a comparison."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def compare(self, reference: dict[str, str], out: Path, what: str) -> None:
        """Byte-identity with a reference tree counts as one operation."""
        self.record(checks.check_same(reference, checks.digest_tree(out), what))

    def run_steps(self, steps: list[Step]) -> list[Outcome]:
        return [self.tally(step, self.spawn(step)) for step in steps]

    def in_process(self, steps: list[Step], out: Path, trace: bool) -> Optional[dict]:
        """The same commands through cli.main in one child process."""
        plan, result = out / "plan.json", out / "result.json"
        plan.write_text(json.dumps([[s.label, s.argv] for s in steps]))
        cmd = [sys.executable, str(HERE / "tracer.py"), "--root", str(self.root),
               "--plan", str(plan), "--out", str(result)] + (["--trace"] if trace else [])
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            self.record([f"in-process pass failed: {proc.stderr[-800:]}"])
            return None
        doc = json.loads(result.read_text())
        plan.unlink()
        result.unlink()
        for step, cmd_result in zip(steps, doc["commands"]):
            problems = [] if cmd_result["returncode"] == 0 else [
                f"{step.label} returned {cmd_result['returncode']} in process"]
            self.tally(step, Outcome(step.label, cmd_result["seconds"], 0.0, problems))
        return doc

    # ---------------------------------------------------------------- passes

    def write_inputs(self, where: Path) -> Inputs:
        """Generate the workload's inputs from the seed (not part of set-up time)."""
        wl = self.wl
        raw, rows = gen.write_inputs(where / "raw", wl.inputs, self.seed)
        features = where / "features.csv"
        gen.write_features(features, wl.inputs, self.seed, wl.feature_rows)
        model_raw, model_rows = None, 0
        if wl.model_inputs is not None:
            model_raw, model_rows = gen.write_inputs(where / "model_raw", wl.model_inputs,
                                                     self.seed)
        return Inputs(raw, rows, features, model_raw, model_rows)

    def io_flags(self, raw: dict[str, Path]) -> list[str]:
        return ["--rain", str(raw["rain"]), "--temp", str(raw["temp"]),
                "--pesticides", str(raw["pesticides"]), "--yield", str(raw["yield"])]

    def ingest_step(self, raw: dict[str, Path], rows: int, out: Path,
                    all_counters: bool) -> Step:
        return Step("ingest", ["ingest", *self.io_flags(raw), "--out", str(out)],
                    lambda: checks.check_ingest(out, rows, all_counters))

    def explore_step(self, raw: dict[str, Path], out: Path, vif: bool) -> Step:
        return Step("explore", ["explore", *self.io_flags(raw), "--out", str(out)]
                    + (["--vif"] if vif else []),
                    lambda: checks.check_explore(out, vif))

    def cv_step(self, panel: Path, out: Path) -> Step:
        models, k = self.wl.models, self.wl.k
        return Step("cv", ["cv", "--panel", str(panel), "--out", str(out), "--k", str(k),
                           "--models", ",".join(models)],
                    lambda: checks.check_cv(out, models, k))

    def predict_step(self, model: Path, features: Path, out: Path) -> Step:
        rows = self.wl.feature_rows
        return Step("predict", ["predict", "--model", str(model), "--input", str(features),
                                "--out", str(out)],
                    lambda: checks.check_predict(out, rows))

    def setup_steps(self, out: Path, data: Inputs) -> list[Step]:
        """The commands that prepare what the passes read, written under `out`."""
        wl, panel = self.wl, out / "panel"
        if wl.model_inputs is None:
            return [self.ingest_step(data.raw, data.rows, panel, wl.inputs.anomalies),
                    self.explore_step(data.raw, out / "explore", vif=False)]
        return [self.ingest_step(data.model_raw, data.model_rows, panel, False),
                self.cv_step(panel / "panel.json", out / "cv")]

    def pass_steps(self, out: Path, data: Inputs, setup: Path) -> list[Step]:
        """One pass's commands; `setup` is the output directory of set-up."""
        wl = self.wl
        if wl.model_inputs is None:
            cv_out = out / "cv"
            return [self.cv_step(setup / "panel" / "panel.json", cv_out),
                    *(self.predict_step(cv_out / "models" / f"{name}.json", data.features,
                                        out / f"predict-{name}.csv")
                      for name in wl.predict_with)]
        return [self.ingest_step(data.raw, data.rows, out / "ingest", wl.inputs.anomalies),
                self.explore_step(data.raw, out / "explore", vif=True),
                *(self.predict_step(setup / "cv" / "models" / f"{name}.json", data.features,
                                    out / f"predict-{name}.csv")
                  for name in wl.predict_with)]


def _seconds(outcomes: list[Outcome], label: Optional[str] = None) -> float:
    """Summed time of the commands, or of those with `label`."""
    return sum(o.seconds for o in outcomes if label in (None, o.label))


def measure(root: Path, work: Path, wl: Workload, seed: int, seconds: float,
            trace: bool, blas_threads: int = 1) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    bench = Bench(root, work, wl, seed, blas_threads)
    data = bench.write_inputs(work / "inputs")
    setup = work / "setup0"
    setups: list[list[Outcome]] = []
    setup_reference: dict[str, str] = {}
    while not setups or not trace and (
            len(setups) < SETUP_MIN_REPEATS
            or len(setups) < SETUP_MAX_REPEATS
            and sum(_seconds(s) for s in setups) < SETUP_MIN_S):
        out = work / f"setup{len(setups)}"
        setups.append(bench.run_steps(bench.setup_steps(out, data)))
        if out == setup:
            setup_reference.update(checks.digest_tree(out))
        else:
            bench.compare(setup_reference, out, out.name)
            shutil.rmtree(out)
    r2_source = setup / "cv" if wl.model_inputs is not None else work / "pass0" / "cv"

    passes: list[list[Outcome]] = []
    reference: dict[str, str] = {}

    def one_pass(i: int) -> None:
        out = work / f"pass{i}"
        passes.append(bench.run_steps(bench.pass_steps(out, data, setup)))
        if i == 0:
            reference.update(checks.digest_tree(out))
        else:
            bench.compare(reference, out, f"pass {i}")
            shutil.rmtree(out)

    metrics: dict[str, float] = {}
    if trace:
        one_pass(0)
        start, pairs = time.perf_counter(), []
        while True:
            pair = {}
            # alternate which pass of a pair runs first, so that a drift in
            # machine speed does not always favour the same one
            order = ("untraced", "traced") if len(pairs) % 2 == 0 else ("traced", "untraced")
            for mode in order:
                out = work / mode
                out.mkdir()
                steps = bench.pass_steps(out, data, setup)
                pair[mode] = bench.in_process(steps, out, trace=mode == "traced")
                bench.compare(reference, out, f"{mode} in-process pass")
                shutil.rmtree(out)
            if not (pair["untraced"] and pair["traced"]):
                break
            pairs.append(pair)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(pairs) > seconds:
                break
        if pairs:
            missing = pairs[0]["traced"]["missing"]
            bench.record([f"functions to trace are gone: {', '.join(missing)}"] if missing else [])
            traced = [tracer.layer_metrics(p["traced"]) for p in pairs]
            for p, m in zip(pairs, traced):
                m["trace.untraced_wall_s"] = sum(c["seconds"] for c in p["untraced"]["commands"])
                m["trace.overhead_ratio"] = m["trace.wall_s"] / m["trace.untraced_wall_s"]
            metrics = {name: statistics.median([m[name] for m in traced]) for name in traced[0]}
            spans = work.parent / f"spans-{wl.name}.json"
            spans.write_text(json.dumps(pairs[-1]["traced"]["spans"]))
        units = PER_LAYER
        print(f"traced pairs={len(pairs)}")
    else:
        start = time.perf_counter()
        while True:
            one_pass(len(passes))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break

        # Pass and command times are means: the box's slow spells drift over
        # minutes, and in 10-seed sweeps the mean's run-to-run spread was
        # about a fifth below the median's (README.md, "Noise on a shared box").
        def command_s(label: str) -> float:
            """Mean time of a command: over the passes if they run it, else over the set-ups."""
            runs = passes if any(o.label == label for o in passes[0]) else setups
            return statistics.mean([_seconds(r, label) for r in runs])

        metrics = {
            "setup_s": statistics.median([_seconds(s) for s in setups]),
            "wall_s": statistics.mean([_seconds(p) for p in passes]),
            "ingest_s": command_s("ingest"),
            "explore_s": command_s("explore"),
            "predict_s": command_s("predict"),
            "peak_rss_mb": statistics.median([max(o.rss_mb for o in p) for p in passes]),
        }
        try:
            metrics["cv_r2_ensemble"], metrics["cv_r2_min"] = checks.cv_r2(r2_source)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bench.record([f"no cv r2: {exc}"])
        units = END_TO_END
        print("setups=" + ",".join(f"{_seconds(s):.3f}" for s in setups)
              + f" passes={len(passes)} pass_walls="
              + ",".join(f"{_seconds(p):.3f}" for p in passes))

    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"error_rate={bench.failed / bench.attempted:.4f} "
          f"({bench.failed} of {bench.attempted} operations)")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="yieldcast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, required=True,
                        help="BLAS/OpenMP threads in every child process")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "yieldcast" / "cli.py").is_file():
        print(f"error: {root} holds no yieldcast source tree (src/yieldcast)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(root, work, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.blas_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
