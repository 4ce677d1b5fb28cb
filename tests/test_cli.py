import ast
import csv
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from roomwave import experiments, fileio, marglik
from roomwave._linalg import FactorizationError
from roomwave.cli import GRADCHECK_TOLERANCE, main
from roomwave.config import load_config
from roomwave.geometry import sample_boundary, sample_microphones
from roomwave.simulator import simulate_snapshot

TINY_CONFIG = """\
seed: 7
simulation:
  max_image_order: 4
array:
  mic_count: 12
  validation_count: 4
dictionary:
  plane_wave_count: 40
boundary:
  count: 20
optimizer:
  max_line_searches: 20
"""


@pytest.fixture
def tiny(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    return config


@pytest.fixture
def simulated(tiny, tmp_path):
    config = tiny
    data = tmp_path / "data"
    assert main(["simulate", str(config), str(data)]) == 0
    return config, data


def test_simulate_writes_inputs(simulated):
    _, data = simulated
    for name in ("snapshot.txt", "microphones.txt", "boundary.txt"):
        assert (data / name).stat().st_size > 0


def test_simulate_draws_each_seed_into_its_sampler(simulated, tmp_path):
    """`simulate` writes run 0 of the benchmark: each `run_seeds` key feeds
    the sampler it names, so a hand-drawn run gives the same bytes."""
    config, data = simulated
    cfg = load_config(config)
    seeds = experiments.run_seeds(cfg.master_seed, 0)
    mics = sample_microphones(cfg.room, cfg.mic_count, cfg.exclusion_radius,
                              seeds["microphones"])
    cloud = sample_boundary(cfg.room, cfg.boundary_count, seeds["boundary"])
    snapshot = simulate_snapshot(cfg.room, mics, cfg.frequency_hz,
                                 cfg.speed_of_sound, cfg.snr_db,
                                 cfg.max_image_order, seeds["noise"])
    fileio.write_snapshot(tmp_path / "snapshot.txt", snapshot)
    fileio.write_points(tmp_path / "microphones.txt", mics)
    fileio.write_point_cloud(tmp_path / "boundary.txt", cloud)
    for name in ("snapshot.txt", "microphones.txt", "boundary.txt"):
        assert (data / name).read_bytes() == (tmp_path / name).read_bytes()


def test_simulate_and_reconstruct_without_boundary(tiny, tmp_path):
    data = tmp_path / "data"
    assert main(["simulate", str(tiny), str(data),
                 "--set", "boundary.count=0"]) == 0
    assert (data / "boundary.txt").read_bytes() == b""
    assert main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(tiny),
                 str(tmp_path / "out")]) == 0


def test_reconstruct_after_simulate(simulated, tmp_path):
    config, data = simulated
    out = tmp_path / "out"
    code = main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(out)])
    assert code == 0

    rows = np.loadtxt(out / "reconstruction.txt", ndmin=2)
    assert rows.shape == (12, 6)       # x y z re_mean im_mean std
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 5] >= 0)

    theta = json.loads((out / "theta.json").read_text(encoding="utf-8"))
    assert np.isfinite(theta["objective"])
    assert theta["noise_variance"] > 0
    assert (out / "trace.csv").stat().st_size > 0


def test_reconstruct_theta_matches_trace(simulated, tmp_path):
    """theta.json holds the last trace.csv iterate, its objective, and the
    constrained parameters as exponentials of the logs."""
    config, data = simulated
    out = tmp_path / "out"
    assert main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(out)]) == 0
    theta = json.loads((out / "theta.json").read_text(encoding="utf-8"))
    header, *rows = (out / "trace.csv").read_text(
        encoding="utf-8").splitlines()
    assert header == "iter,J,a,b,d,re_eta,im_eta"
    last = [float(v) for v in rows[-1].split(",")]
    logs = [theta[f"log_{name}"] for name in (
        "noise_variance", "prior_variance", "boundary_weight",
        "impedance_re", "impedance_im")]
    assert logs == last[2:]
    assert theta["objective"] == last[1]
    for name in ("noise_variance", "prior_variance", "boundary_weight"):
        assert theta[name] == math.exp(theta[f"log_{name}"])
    impedance = np.exp(complex(theta["log_impedance_re"],
                               theta["log_impedance_im"]))
    assert theta["impedance_re"] == impedance.real
    assert theta["impedance_im"] == impedance.imag


def test_reconstruct_at_repeated_points(simulated, tmp_path):
    """Prediction points are not microphones: a point listed twice is
    predicted twice, one output row per listed point."""
    config, data = simulated
    points = tmp_path / "points.txt"
    points.write_text("1.0 1.0 1.0\n2.0 2.0 1.0\n1.0 1.0 1.0\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(out),
                 "--set", f"reconstruct.points={points}"]) == 0
    rows = np.loadtxt(out / "reconstruction.txt", ndmin=2)
    assert rows.shape == (3, 6)
    np.testing.assert_array_equal(rows[0], rows[2])


def test_repeated_sweep_value_keeps_its_rows(tmp_path):
    """A value listed twice gives a row at each listing, in listed order,
    and both rows hold the same runs."""
    config = tmp_path / "repeat.yaml"
    config.write_text(TINY_CONFIG + "benchmark:\n  monte_carlo_runs: 2\n"
                      "  sweeps: [mic_perturbation]\n"
                      "  mic_perturbations_m: [0.0, 0.05, 0.0]\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["benchmark", str(config), str(out)]) == 0
    with open(out / "mic_perturbation_aggregate.csv", newline="",
              encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    methods = experiments.METHODS
    assert [(row["value"], row["method"]) for row in rows] == [
        (value, method) for value in ("0.0", "0.05", "0.0")
        for method in methods]
    per_value = len(methods)
    assert rows[:per_value] == rows[2 * per_value:]


def test_aggregate_counts_failed_runs(tmp_path, monkeypatch, in_process):
    """A method that raises in one run is counted in `failed`, and its mean
    NMSE is taken over the runs that did not fail."""
    config = tmp_path / "fail.yaml"
    config.write_text(TINY_CONFIG + "benchmark:\n  monte_carlo_runs: 3\n"
                      "  sweeps: [mic_perturbation]\n"
                      "  methods: [tikhonov, nearest]\n"
                      "  mic_perturbations_m: [0.0]\n", encoding="utf-8")
    calls = []
    original = experiments.nearest_neighbor

    def failing_in_run_1(*args):
        calls.append(None)
        if len(calls) == 2:
            raise FactorizationError("injected failure")
        return original(*args)

    monkeypatch.setattr(experiments, "nearest_neighbor", failing_in_run_1)
    out = tmp_path / "out"
    assert main(["benchmark", str(config), str(out)]) == 0
    with open(out / "mic_perturbation_aggregate.csv", newline="",
              encoding="utf-8") as handle:
        rows = {row["method"]: row for row in csv.DictReader(handle)}
    with open(out / "mic_perturbation_runs.csv", newline="",
              encoding="utf-8") as handle:
        runs = [float(row["nmse_linear"]) for row in csv.DictReader(handle)
                if row["method"] == "nearest"]
    assert (rows["tikhonov"]["failed"], rows["nearest"]["failed"]) == ("0", "1")
    assert math.isnan(runs[1])
    assert float(rows["nearest"]["nmse_linear"]) == pytest.approx(
        (runs[0] + runs[2]) / 2, rel=1e-15)


def test_thread_variable_sets_blas_defaults_only():
    """Importing the package sets every BLAS thread variable to 1 when none
    is set and changes none when one is; ROOMWAVE_NUM_THREADS is not one of
    them."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    one_thread = dict.fromkeys(blas, "1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import json, os, roomwave.cli; print(json.dumps({k: v for k, "
              "v in os.environ.items() if k.endswith('_THREADS')}))")
    for given, expected in (({}, one_thread),
                            ({"OMP_NUM_THREADS": "3"}, {}),
                            ({"ROOMWAVE_NUM_THREADS": "4"}, one_thread)):
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_THREADS")}
        env.update(given)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert json.loads(result.stdout) == {**given, **expected}, given


def test_gradcheck_passes(capsys):
    """The command checks 20 instances x 5 thetas at seed 0."""
    assert main(["gradcheck"]) == 0
    match = re.search(r"max norm-wise relative gradient error: (\S+)",
                      capsys.readouterr().out)
    assert float(match.group(1)) < GRADCHECK_TOLERANCE


def test_gradcheck_passes_with_small_component():
    """Seed 5 draws a gradient with a -3.5e-4 component next to O(1) ones;
    its central-difference roundoff is small against the whole gradient."""
    assert marglik.gradient_check(4, 3, seed=5) < GRADCHECK_TOLERANCE


def test_gradcheck_fails_on_perturbed_gradient(capsys, monkeypatch):
    """The norm-wise score still rejects a gradient whose largest component
    is off by a relative 1e-3."""
    original = marglik.MarginalLikelihood.value_and_gradient

    def perturbed(self, hp):
        value, grad = original(self, hp)
        grad = grad.copy()
        grad[np.argmax(np.abs(grad))] *= 1 + 1e-3
        return value, grad

    monkeypatch.setattr(marglik.MarginalLikelihood, "value_and_gradient",
                        perturbed)
    assert main(["gradcheck"]) == 3
    match = re.search(r"max norm-wise relative gradient error: (\S+)",
                      capsys.readouterr().out)
    assert float(match.group(1)) > 10 * GRADCHECK_TOLERANCE


@pytest.mark.parametrize("counts", [(0, 5), (20, -2)],
                         ids=["instances=0", "thetas=-2"])
def test_gradcheck_rejects_non_positive_counts(counts):
    """A count below one would check nothing and still report a pass."""
    with pytest.raises(ValueError, match="at least one"):
        marglik.gradient_check(*counts)


def test_gradcheck_takes_no_flags(capsys):
    """The command's scope is fixed; a count flag is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--instances", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --instances 4" in capsys.readouterr().err


def test_negative_seed_exits_2(tiny, tmp_path, capsys):
    """A negative seed is a usage error (exit 2), not a numpy traceback from
    np.random.SeedSequence."""
    out = tmp_path / "out"
    assert main(["simulate", str(tiny), str(out), "--set", "seed=-1"]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_snr_exits_2(tiny, tmp_path, capsys):
    """An SNR so low that 10^(-snr/10) overflows a float is a usage error
    (exit 2) naming `snr_db`, not an OverflowError traceback."""
    out = tmp_path / "out"
    assert main(["simulate", str(tiny), str(out),
                 "--set", "simulation.snr_db=-4000"]) == 2
    assert "config error: snr_db" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "benchmark.monte_carlo_runs=0", "array.mic_count=0", "lasso.mode=bogus",
    "room.reflection_coefficient=1.5", "lasso.folds=1", "lasso.grid_size=0",
    "simulation.max_image_order=-1", "boundary.count=-1",
    "medium.speed_of_sound=-343", "simulation.frequency_hz=0",
    "simulation.frequency_hz=.nan", "array.exclusion_radius=-1",
    "array.exclusion_radius=50",
    "simulation.snr_db=.nan", "simulation.snr_db=-4000",
    "optimizer.max_line_searches=-3",
    "lasso.mode=global", "benchmark.shared_perturbation=true"])
def test_bad_config_value_exits_2(tiny, tmp_path, capsys, override):
    code = main(["benchmark", str(tiny), str(tmp_path / "out"),
                 "--set", override])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_sweep_values_exit_2(tmp_path, capsys):
    config = tmp_path / "empty.yaml"
    config.write_text(TINY_CONFIG + "benchmark:\n  sweeps: [boundary_count]\n"
                      "  boundary_counts: []\n", encoding="utf-8")
    code = main(["benchmark", str(config), str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    TINY_CONFIG + "benchmark:\n  sweeps: [mic_perturbation]\n"
    "  mic_perturbations_m: [0.0, -0.05]\n",
    TINY_CONFIG.replace("simulation:\n", "simulation:\n  frequency_hz: .nan\n"),
    TINY_CONFIG + "room:\n  dimensions: [.inf, 4.0, 3.0]\n"],
    ids=["negative_perturbation", "nan_frequency", "infinite_room"])
def test_out_of_range_file_value_exits_2(tmp_path, capsys, text):
    """A negative perturbation would fail mid-run, a NaN frequency would
    write an all-NaN table and an infinite room would overflow the image
    lattice; all are config errors before any output."""
    config = tmp_path / "bad.yaml"
    config.write_text(text, encoding="utf-8")
    code = main(["benchmark", str(config), str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_methods_exit_2(tmp_path, capsys):
    config = tmp_path / "nomethods.yaml"
    config.write_text(TINY_CONFIG + "benchmark:\n  sweeps: [mic_perturbation]\n"
                      "  methods: []\n", encoding="utf-8")
    code = main(["benchmark", str(config), str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _no_header(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))


def _five_columns(text):
    return "\n".join(line.rsplit(" ", 1)[0] for line in text.splitlines())


def _bad_token(text):
    head, last = text.rstrip("\n").rsplit("\n", 1)
    return head + "\n" + last.replace(" ", " abc ", 1) + "\n"


def _zero_frequency(text):
    return re.sub(r"^# frequency_hz .*$", "# frequency_hz 0", text,
                  flags=re.M)


def _nan_frequency(text):
    return re.sub(r"^# frequency_hz .*$", "# frequency_hz nan", text,
                  flags=re.M)


def _inf_room_dimension(text):
    return re.sub(r"^# room_dimensions \S+", "# room_dimensions inf", text,
                  flags=re.M)


def _duplicate_microphone(text):
    """`text` with the `x y z` of its first row copied into its last."""
    lines = text.rstrip("\n").split("\n")
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    first, last = lines[rows[0]].split(), lines[rows[-1]].split()
    lines[rows[-1]] = " ".join(first[:3] + last[3:])
    return "\n".join(lines) + "\n"


def _noisy_measurement(text, value):
    """`text` with the re_noisy entry of its last row set to `value`."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    cells = last.split()
    cells[5] = value
    return head + "\n" + " ".join(cells) + "\n"


def _nan_measurement(text):
    return _noisy_measurement(text, "nan")


def _inf_measurement(text):
    return _noisy_measurement(text, "inf")


@pytest.mark.parametrize("name, damage", [
    ("snapshot.txt", _no_header), ("boundary.txt", _five_columns),
    ("snapshot.txt", _bad_token), ("snapshot.txt", _zero_frequency),
    ("snapshot.txt", _nan_frequency), ("snapshot.txt", _inf_room_dimension),
    ("snapshot.txt", _nan_measurement), ("snapshot.txt", _inf_measurement),
    ("snapshot.txt", _duplicate_microphone)])
def test_malformed_input_exits_2(simulated, tmp_path, capsys, name, damage):
    config, data = simulated
    broken = data / name
    broken.write_text(damage(broken.read_text(encoding="utf-8")),
                      encoding="utf-8")
    code = main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(tmp_path / "o")])
    assert code == 2
    assert str(broken) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reconstruct_reads_a_tab_separated_header(simulated, tmp_path):
    """Header lines split at any run of whitespace, as data rows do, so a
    snapshot whose headers use tabs reconstructs to the same files."""
    config, data = simulated
    snapshot = data / "snapshot.txt"
    text = snapshot.read_text(encoding="utf-8")
    tabbed = tmp_path / "tabbed.txt"
    tabbed.write_text("".join(
        line.replace(" ", "\t") if line.startswith("#") else line
        for line in text.splitlines(keepends=True)), encoding="utf-8")
    assert "# frequency_hz " in text
    assert "#\tfrequency_hz\t" in tabbed.read_text(encoding="utf-8")
    outputs = {}
    for name, path in (("plain", snapshot), ("tabbed", tabbed)):
        assert main(["reconstruct", str(path), str(data / "boundary.txt"),
                     str(config), str(tmp_path / name)]) == 0
        outputs[name] = {p.name: p.read_bytes()
                         for p in (tmp_path / name).iterdir()}
    assert sorted(outputs["plain"]) == ["reconstruction.txt", "theta.json",
                                        "trace.csv"]
    assert outputs["tabbed"] == outputs["plain"]


def test_noiseless_benchmark_counts_every_lasso_fit_failed(tmp_path, caplog):
    """At `snr_db: inf` the snapshot's noise variance is 0, which the lasso's
    data term divides by: each lasso cell fails with the lasso's own
    ValueError, not a ZeroDivisionError, and is counted in `failed`."""
    tiny = Path(__file__).resolve().parents[1] / "perfbench/tests/tiny.yaml"
    out = tmp_path / "out"
    assert main(["benchmark", str(tiny), str(out),
                 "--set", "simulation.snr_db=inf"]) == 0
    rows = [row for path in sorted(out.glob("*_aggregate.csv"))
            for row in csv.DictReader(
                path.read_text(encoding="utf-8").splitlines())]
    lasso = [row for row in rows if row["method"] == "lasso"]
    assert lasso and all(row["failed"] == row["runs"] for row in lasso)
    assert "noise_variance must be positive" in caplog.text
    assert "ZeroDivisionError" not in caplog.text


def test_numerical_failure_exits_3(simulated, tmp_path, capsys, monkeypatch):
    config, data = simulated

    def failing(*args, **kwargs):
        raise FactorizationError("not positive definite")

    monkeypatch.setattr(experiments, "fit_and_predict", failing)
    code = main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_reconstruct_missing_snapshot_exits_4(simulated, tmp_path, capsys):
    config, data = simulated
    code = main(["reconstruct", str(data / "absent.txt"),
                 str(data / "boundary.txt"), str(config), str(tmp_path / "o")])
    assert code == 4
    assert "i/o failure" in capsys.readouterr().err


# every name perfbench/tracer.py patches on `experiments`
TRACED = ("build_phi", "build_psi", "build_phi_tilde", "fit_hyperparameters",
          "prior_covariance_from_matrices", "build_posterior", "predict",
          "tikhonov", "lasso", "select_lambda", "nearest_neighbor",
          "evaluate_field", "fibonacci_directions", "simulate_snapshot",
          "field_at_points", "sample_microphones", "sample_validation_points",
          "sample_boundary", "perturb_positions")
CHAIN = ("fit_hyperparameters", "prior_covariance_from_matrices",
         "build_posterior", "predict")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_match_the_tracer():
    """TRACED is the set of (experiments, NAME, ...) targets in the
    tracer's source, read with ast so the copy cannot drift."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    patched = {node.elts[1].value for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) > 1
               and isinstance(node.elts[0], ast.Name)
               and node.elts[0].id == "experiments"
               and isinstance(node.elts[1], ast.Constant)}
    assert patched == set(TRACED)
    assert len(TRACED) == len(set(TRACED))


def _traced_targets(tree):
    """(module, attribute path) of every name the tracer reaches on a roomwave
    module: its (module, "attribute", ...) tuples and _patch calls, its
    `from roomwave.MODULE import NAME` imports, and the MarginalLikelihood
    methods that its subclass wraps (read off `original.NAME`)."""
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "roomwave"
               for alias in node.names}
    targets = set()
    for node in ast.walk(tree):
        items = (node.elts if isinstance(node, ast.Tuple)
                 else node.args if isinstance(node, ast.Call) else ())
        if (len(items) > 1 and isinstance(items[0], ast.Name)
                and items[0].id in modules
                and isinstance(items[1], ast.Constant)
                and isinstance(items[1].value, str)):
            targets.add((items[0].id, items[1].value))
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("roomwave.")):
            targets |= {(node.module.split(".", 1)[1], alias.name)
                        for alias in node.names}
        if (isinstance(node, ast.ClassDef)
                and node.name == "TracedMarginalLikelihood"):
            targets |= {("marglik", f"MarginalLikelihood.{n.attr}")
                        for n in ast.walk(node)
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "original"}
    return targets


def test_every_traced_target_resolves():
    """Every name the tracer patches, imports or subclasses exists on its
    roomwave module, so a change that drops one fails here, naming it,
    instead of with an AttributeError inside the perfbench self-tests."""
    targets = _traced_targets(ast.parse(TRACER.read_text(encoding="utf-8")))
    assert {("marglik", "MarginalLikelihood.value_and_gradient"),
            ("baselines", "lasso"), ("simulator", "image_lattice"),
            ("experiments", "sample_validation_points")} <= targets

    def resolves(module, path):
        owner = importlib.import_module(f"roomwave.{module}")
        for name in path.split("."):
            if not hasattr(owner, name):
                return False
            owner = getattr(owner, name)
        return True

    missing = sorted(f"roomwave.{module}.{path}" for module, path in targets
                     if not resolves(module, path))
    assert not missing, f"tracer targets not found: {missing}"


def test_sweep_and_reconstruct_share_one_traceable_chain(simulated, tmp_path,
                                                         monkeypatch,
                                                         in_process):
    """The benchmark and `roomwave reconstruct` run the proposed method
    through the same chain, looked up on `experiments` where the tracer
    patches it."""
    config, data = simulated
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(experiments, name,
                            counting(name, getattr(experiments, name)))

    cfg = dataclasses.replace(load_config(config), monte_carlo_runs=1,
                              boundary_counts=(0, 20),
                              sweeps=("boundary_count",))
    experiments.run_sweeps(cfg)
    # two proposed fits (one per count) and one Tikhonov fit; each proposed
    # fit builds Psi and PhiTilde once, for the fit's precompute
    assert calls["fit_hyperparameters"] == 3
    for name in CHAIN[1:] + ("build_psi", "build_phi_tilde"):
        assert calls[name] == 2, name
    assert all(calls[name] > 0 for name in TRACED
               if name != "perturb_positions"), calls

    calls.clear()
    assert main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config),
                 str(tmp_path / "out")]) == 0
    for name in CHAIN + ("build_phi", "build_psi", "build_phi_tilde"):
        assert calls[name] == 1, name
