"""Self-tests of the benchmark harness on a tiny config.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Checks that the tracer restores every patched attribute, that tracing does
not change the aggregate CSVs, that every reported metric name is declared
in BENCHMARK.json, that every pool instance has a reference, and that the
reference comparison honours its tolerance.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from roomwave import (baselines, bayes, cli, config, experiments,  # noqa: E402
                      fileio, marglik, planewaves, simulator)

TINY = BENCH / "tests" / "tiny.yaml"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
MODULES = (baselines, bayes, config, experiments, fileio, marglik, planewaves,
           simulator)


def _benchmark(out_dir: Path, recorder=None) -> dict:
    argv = ["benchmark", str(TINY), str(out_dir), "--set", "seed=7"]
    code = recorder.run(cli.main, argv) if recorder else cli.main(argv)
    assert code == 0
    return {p.name: p.read_bytes() for p in out_dir.glob("*_aggregate.csv")}


def test_uninstall_restores_every_original():
    before = [dict(vars(m)) for m in MODULES]
    recorder = tracer.Recorder()
    with recorder:
        assert experiments.fit_hyperparameters is not before[3]["fit_hyperparameters"]
        assert marglik.MarginalLikelihood is not before[5]["MarginalLikelihood"]
        assert simulator.field_at_points is not before[7]["field_at_points"]
    for module, attrs in zip(MODULES, before):
        now = vars(module)
        assert now.keys() == attrs.keys()
        changed = [k for k in attrs if now[k] is not attrs[k]]
        assert changed == [], f"{module.__name__}: {changed}"


def test_tracing_keeps_aggregates_and_accounts_for_wall(tmp_path):
    plain = _benchmark(tmp_path / "plain")
    recorder = tracer.Recorder()
    with recorder:
        traced = _benchmark(tmp_path / "traced", recorder)
    assert plain and traced == plain

    layers = tracer.summarize(recorder.spans)
    self_times = tracer.layer_self_times(recorder.spans)
    assert sum(self_times.values()) == pytest.approx(layers["trace.wall_s"],
                                                     rel=1e-9)
    for name in ("simulator.calls", "marglik.evals", "linalg.chol_calls",
                 "baselines.lasso_iterations", "planewaves.entries",
                 "optimize.evaluations"):
        assert layers[name] > 0, name
    assert layers["marglik.evals"] == layers["optimize.evaluations"]

    recorder.write_spans(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in
             (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == len(recorder.spans)
    assert sum(s["parent"] is None for s in spans) == 1


@pytest.mark.parametrize("trace", [False, True])
def test_reported_names_are_declared(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "workload_config", lambda name: TINY)
    monkeypatch.setattr(run, "reference_problems", lambda *args: [])
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_ONLY_SAMPLES", 1)
    result = run.run(ROOT, "boundary_fit", 7, 0.0, trace)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    names = set(result["metrics"])
    assert all(NAME.fullmatch(n) for n in names | set(result["info"]))
    assert names == (PER_LAYER if trace else END_TO_END)
    # one instance per repetition; with tracing, the same one twice
    first = run.instance_order(7)[0]
    assert result["instances"] == [first, first] if trace else [first]
    assert all(result["metrics"][n] > 0 for n in names & END_TO_END)

    run.record(tmp_path, result)
    stem = tmp_path / ".perfbench_runs" / f"boundary_fit-7-trace{int(trace)}"
    saved = json.loads(stem.with_suffix(".json").read_text())
    assert saved["metrics"] == result["metrics"]
    assert stem.with_suffix(".spans.jsonl").is_file() == trace
    if trace:
        # the reported layer figures come from one repetition
        shares = [v for k, (v, _) in result["info"].items()
                  if k.startswith("self_share.")]
        assert sum(shares) == pytest.approx(1.0, rel=1e-9)
        spans = stem.with_suffix(".spans.jsonl").read_text().splitlines()
        assert sum(json.loads(line)["parent"] is None for line in spans) == 1


def test_instance_order_is_a_seeded_shuffle_of_the_pool():
    order = run.instance_order(7)
    assert order == run.instance_order(7)
    assert sorted(order) == list(range(run.POOL_SIZE))
    assert order != run.instance_order(8)
    for workload in run.WORKLOADS:
        seeds = json.loads((BENCH / "reference" / f"{workload}.json")
                           .read_text())["seeds"]
        assert {str(i) for i in order} <= set(seeds), workload


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    listed = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(listed) == sorted(PER_LAYER)
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(run.WORKLOADS)
    printed = END_TO_END | {f"{m}_s" for m in run.TIMED_METHODS}
    for layer in layers.values():
        assert set(layer["should_move"]) <= printed
        assert set(layer["on"]) <= workloads


def test_reference_tolerance():
    reference = json.loads((BENCH / "reference" / "boundary_fit.json")
                           .read_text())["seeds"][str(run.DEFAULT_SEED)]

    def shifted(delta):
        out = {}
        for name, text in reference.items():
            lines = text.splitlines()
            head, *rows = lines
            row = rows[0].split(",")
            row[-1] = repr(float(row[-1]) + delta)
            out[name] = "\n".join([head, ",".join(row), *rows[1:]]) + "\n"
        return out

    assert run.reference_problems("boundary_fit", run.DEFAULT_SEED,
                                  reference) == []
    assert run.reference_problems("boundary_fit", run.DEFAULT_SEED,
                                  shifted(0.5 * run.TOLERANCE_DB)) == []
    assert run.reference_problems("boundary_fit", run.DEFAULT_SEED,
                                  shifted(2 * run.TOLERANCE_DB))
    # seeds without a stored reference still get the layout check
    assert run.reference_problems("boundary_fit", 10 ** 9, reference) == []
    broken = {name: text.replace("proposed", "lasso", 1)
              for name, text in reference.items()}
    assert run.reference_problems("boundary_fit", 10 ** 9, broken)
