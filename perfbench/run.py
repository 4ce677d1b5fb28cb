"""Benchmark of `roomwave benchmark` on two pinned workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Each repetition is a fresh interpreter
(perfbench/worker.py) that runs `roomwave.cli.main(["benchmark", CONFIG,
OUT, "--set", "seed=I"])` with the BLAS thread count fixed through
ROOMWAVE_NUM_THREADS. The instance seed I is drawn from a pool of
POOL_SIZE seeds, each with a committed reference; --seed N fixes the order
in which a run draws them, and no instance repeats within a run until the
pool is used up. Repetitions continue until S seconds have passed (at least
MIN_REPS; S defaults to run_seconds in BENCHMARK.json); the metrics are
medians over them, so a run's figures cover several instances, not one.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions of the same instance and reports the per-layer metrics
of perfbench/tracer.py from the traced repetition with the median traced
wall time, plus `trace.overhead_s`. Repetitions of one instance must write
byte-identical aggregate CSVs, traced or not, and every instance's must
match its committed reference in perfbench/reference/ within TOLERANCE_DB.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1
when the outputs are not correct and 2, with no result, when the benchmark
cannot run. The full result (environment, samples, figures that are printed
but not bounded) is written to .perfbench_runs/WORKLOAD-SEED-traceT.json and,
with --trace 1, the spans of the reported traced repetition to
.perfbench_runs/WORKLOAD-SEED-trace1.spans.jsonl.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("boundary_fit", "lasso_cv")
DEFAULT_SEED = 20240901
POOL_SIZE = 32            # instance seeds 0 .. POOL_SIZE-1
BLAS_THREADS = 1
MIN_REPS = 3
SETUP_ONLY_SAMPLES = 4    # extra set-up-only interpreters per run
REP_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0      # no repetition starts after this much of a run
TOLERANCE_DB = 0.05       # per-cell |nmse_db - reference| allowed
TIMED_METHODS = ("proposed", "lasso", "tikhonov")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


def workload_config(name: str) -> Path:
    return BENCH / "workloads" / f"{name}.yaml"


def instance_order(seed: int) -> list:
    """The pool's instance seeds in the order a run with `seed` uses them."""
    return random.Random(seed).sample(range(POOL_SIZE), POOL_SIZE)


# -- one repetition --------------------------------------------------------

def run_worker(root: Path, workload: str, seed: int, mode: str,
               out_dir: Path, timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh interpreter (mode plain, trace or
    setup); returns its result with the CSV outputs attached."""
    out_dir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["ROOMWAVE_NUM_THREADS"] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    command = [sys.executable, str(BENCH / "worker.py"),
               str(workload_config(workload)), str(seed), str(out_dir), mode]
    try:
        proc = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not (out_dir / "result.json").is_file():
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads((out_dir / "result.json").read_text())
    result["aggregate"] = {p.name: p.read_text()
                           for p in sorted(out_dir.glob("*_aggregate.csv"))}
    result["runs"] = [row for p in sorted(out_dir.glob("*_runs.csv"))
                      for row in csv.DictReader(io.StringIO(p.read_text()))]
    if (out_dir / "spans.jsonl").is_file():
        result["spans"] = (out_dir / "spans.jsonl").read_text()
    return result


def method_seconds(runs: list) -> dict:
    """Mean seconds per distinct reconstruction: of every method ("all")
    and of each timed method the workload runs.

    The boundary-count sweep records one baseline fit under every count, so
    identical (sweep, method, run, seconds, nmse) rows count once."""
    distinct = {(r["sweep"], r["method"], r["run"], r["seconds"],
                 r["nmse_linear"]) for r in runs}
    out = {"all": statistics.fmean(float(key[3]) for key in distinct)}
    for method in TIMED_METHODS:
        seconds = [float(key[3]) for key in distinct if key[1] == method]
        if seconds:
            out[method] = statistics.fmean(seconds)
    return out


def failed_cells(runs: list) -> int:
    return sum(math.isnan(float(r["nmse_linear"])) for r in runs)


# -- correctness -----------------------------------------------------------

def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _key(row) -> tuple:
    return row["sweep"], row["method"], row["value"], row["runs"]


def reference_problems(workload: str, seed: int, aggregate: dict) -> list:
    """Differences between an aggregate-CSV set and the committed reference.

    The cell layout (sweep, method, value, runs) does not depend on the seed
    and is checked against the default-seed reference. The NMSE values are
    checked only when a reference exists for this seed."""
    path = BENCH / "reference" / f"{workload}.json"
    seeds = json.loads(path.read_text())["seeds"]
    layout = seeds[str(DEFAULT_SEED)]
    problems = []
    if sorted(aggregate) != sorted(layout):
        return [f"files {sorted(aggregate)} != {sorted(layout)}"]
    for name, text in aggregate.items():
        if [_key(r) for r in _rows(text)] != [_key(r) for r in
                                              _rows(layout[name])]:
            problems.append(f"{name}: cell layout differs from the reference")
    expected = seeds.get(str(seed))
    if expected is None or problems:
        return problems
    for name, text in aggregate.items():
        for got, want in zip(_rows(text), _rows(expected[name])):
            a, b = float(got["nmse_db"]), float(want["nmse_db"])
            same = (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOLERANCE_DB
            if not same:
                problems.append(f"{name} {_key(got)}: nmse_db {a!r} vs "
                                f"reference {b!r}")
    return problems


def mean_nmse_db(aggregates: list) -> dict:
    """Mean aggregate nmse_db per method over every cell of every sweep of
    every aggregate-CSV set."""
    values: dict = {}
    for text in (t for aggregate in aggregates for t in aggregate.values()):
        for row in _rows(text):
            values.setdefault(row["method"], []).append(float(row["nmse_db"]))
    return {m: statistics.fmean(v) for m, v in values.items()}


# -- environment -----------------------------------------------------------

def environment(root: Path, worker_env: dict) -> dict:
    commit = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (root / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "requested_blas_threads": BLAS_THREADS,
            **worker_env, "git_commit": commit, "src_lines": src_lines}


# -- a whole run -----------------------------------------------------------

def run(root: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """Run one workload; with `trace`, the result carries the spans of the
    reported traced repetition."""
    if not (root / "src" / "roomwave" / "__init__.py").is_file():
        raise BenchmarkError(f"no roomwave sources under {root / 'src'}")
    if not workload_config(workload).is_file():
        raise BenchmarkError(f"no config for workload '{workload}'")
    work = root / ".perfbench_runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    numbers = itertools.count()

    def worker(mode: str, instance: int) -> dict:
        elapsed = time.perf_counter() - start
        result = run_worker(root, workload, instance, mode,
                            work / str(next(numbers)), REP_TIMEOUT_S - elapsed)
        return dict(result, instance=instance)

    order = instance_order(seed)
    reps, setups = [], []
    try:
        # warm-up: compiles bytecode, fills the page cache
        worker("setup", order[0])
        while True:
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS + trace and elapsed >= seconds:
                break
            if reps and elapsed + 2 * reps[-1]["wall_s"] > RUN_BUDGET_S:
                break
            # with tracing, an untraced and a traced repetition of the same
            # instance alternate
            pair, traced_turn = (divmod(len(reps), 2) if trace
                                 else (len(reps), 0))
            reps.append(worker("trace" if traced_turn else "plain",
                               order[pair % POOL_SIZE]))
        setups = [worker("setup", order[0]) for _ in range(SETUP_ONLY_SAMPLES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_of = {}   # instance -> (index, repetition) of its first repetition
    problems = []
    for i, r in enumerate(reps):
        if r["exit_code"] != 0:
            problems.append(f"repetition {i}: exit code {r['exit_code']}")
        j, first = first_of.setdefault(r["instance"], (i, r))
        if r["aggregate"] != first["aggregate"]:
            problems.append(f"repetition {i}: aggregate CSVs differ from "
                            f"repetition {j} of the same instance")
    for instance, (i, r) in first_of.items():
        problems += [f"repetition {i} (instance {instance}): {problem}"
                     for problem in reference_problems(workload, instance,
                                                       r["aggregate"])]

    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    per_method = [method_seconds(r["runs"]) for r in plain]
    for r, seconds in zip(plain, per_method):
        r["reconstruct_s"] = seconds["all"]
    attempted = sum(len(r["runs"]) for r in reps)
    failed = sum(failed_cells(r["runs"]) for r in reps)
    metrics = {
        "setup_s": median("setup_s", reps + setups),
        "wall_s": median("wall_s", plain),
        "peak_rss_mb": median("peak_rss_mb", plain),
        "reconstruct_s": median("reconstruct_s", plain),
    }
    # printed by name but not bounded: see perfbench/README.md
    info = {f"{m}_s": (statistics.median(s[m] for s in per_method), "s")
            for m in TIMED_METHODS if m in per_method[0]}
    info["failed_share"] = (failed / attempted, "ratio")
    aggregates = [r["aggregate"] for _, r in first_of.values()]
    for method, value in mean_nmse_db(aggregates).items():
        info[f"nmse_db.{method}"] = (value, "dB")

    spans = None
    if trace:
        # every layer figure comes from one repetition, so they add up
        pairs = sorted(zip(plain, traced),
                       key=lambda pair: pair[1]["layers"]["trace.wall_s"])
        untraced, chosen = pairs[(len(pairs) - 1) // 2]
        metrics = dict(chosen["layers"])
        metrics["experiments.cells"] = len(chosen["runs"])
        # the untraced repetition of the same instance, just before it
        metrics["trace.overhead_s"] = chosen["wall_s"] - untraced["wall_s"]
        for layer, self_s in chosen["layer_self_s"].items():
            info[f"self_share.{layer}"] = (
                self_s / chosen["layers"]["trace.wall_s"], "ratio")
        spans = chosen["spans"]

    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "repetitions": len(reps),
        "instances": [r["instance"] for r in reps], "correct": not problems,
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "info": info,
        "environment": environment(root, reps[0]["environment"]),
        "samples": [{k: r[k] for k in ("instance", "setup_s", "wall_s",
                                       "reconstruct_s", "peak_rss_mb")
                     if k in r} for r in reps + setups],
        "spans": spans,
    }


def median(key: str, reps: list) -> float:
    return statistics.median(r[key] for r in reps)


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared_units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    declared = spec()
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def record(root: Path, result: dict):
    """Write the full result, and the spans of a traced run, under
    .perfbench_runs/."""
    result = dict(result)
    spans = result.pop("spans")
    stem = root / ".perfbench_runs" / (f"{result['workload']}-{result['seed']}"
                                       f"-trace{result['trace']}")
    stem.parent.mkdir(exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        stem.with_suffix(".spans.jsonl").write_text(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result = run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record(root, result)

    units = declared_units()
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['repetitions']} repetitions "
          f"of instances {result['instances']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    for name, (value, unit) in result["info"].items():
        print(f"{name} {value!r} {unit}")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
