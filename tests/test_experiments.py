import csv
import dataclasses
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import numpy.testing as npt
import pytest

from roomwave import baselines, experiments, fileio, marglik
from roomwave.bayes import (build_posterior, predict,
                            prior_covariance_from_matrices)
from roomwave.experiments import (ExperimentConfig, RunResult, nmse,
                                  run_seeds, run_sweeps, to_db)
from roomwave.geometry import RoomSpec, perturb_positions, sample_boundary
from roomwave.planewaves import build_phi, build_phi_tilde, build_psi


class TestNmse:
    def test_perfect_prediction(self, rng):
        truth = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert nmse(truth.copy(), truth) == 0.0

    def test_zero_prediction_is_one(self, rng):
        truth = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert nmse(np.zeros(10), truth) == pytest.approx(1.0, rel=1e-14)

    def test_hand_computed_value(self):
        truth = np.array([1.0 + 0j, 2.0j])
        prediction = np.array([1.1 + 0j, 2.0j])
        assert nmse(prediction, truth) == pytest.approx(0.005, rel=1e-12)

    def test_tiny_truth_excluded_with_warning(self):
        truth = np.array([1.0 + 0j, 1e-16 + 0j])
        prediction = np.array([1.1 + 0j, 5.0 + 0j])
        with pytest.warns(UserWarning, match="excluded"):
            value = nmse(prediction, truth)
        assert value == pytest.approx(0.01, rel=1e-12)

    def test_all_tiny_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones(2), np.full(2, 1e-20 + 0j))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.ones(3), np.ones(4))

    def test_matrix_shape_averages_over_everything(self, rng):
        truth = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        pred = truth + 0.1
        expected = np.mean(0.01 / np.abs(truth) ** 2)
        assert nmse(pred, truth) == pytest.approx(expected, rel=1e-12)

    def test_to_db(self):
        assert to_db(0.01) == pytest.approx(-20.0)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        a = run_seeds(7, 0)
        b = run_seeds(7, 0)
        assert a == b
        c = run_seeds(7, 1)
        assert a != c
        assert len(set(a.values())) == len(a)


def tiny_config(room, **overrides):
    defaults = dict(
        room=room,
        frequency_hz=250.0,
        snr_db=20.0,
        max_image_order=4,
        mic_count=14,
        validation_count=5,
        plane_wave_count=24,
        boundary_count=12,
        boundary_counts=(0, 12),
        boundary_perturbations=(0.0, 0.05),
        mic_perturbations=(0.0, 0.05),
        frequencies_hz=(200.0, 250.0),
        monte_carlo_runs=2,
        methods=("proposed", "tikhonov", "lasso", "nearest"),
        master_seed=99,
        max_line_searches=30,
        lasso_folds=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def sweep(cfg, name):
    return run_sweeps(dataclasses.replace(cfg, sweeps=(name,)))[name]


class TestConfigValidation:
    def test_counts_must_be_positive(self, room):
        with pytest.raises(ValueError):
            tiny_config(room, monte_carlo_runs=0)
        with pytest.raises(ValueError):
            tiny_config(room, mic_count=0)

    @pytest.mark.parametrize("overrides", [
        dict(lasso_folds=1), dict(lasso_folds=15),
        dict(max_image_order=-1), dict(boundary_count=-1),
        dict(boundary_counts=(0, -1))])
    def test_lasso_image_order_and_boundary_bounds(self, room, overrides):
        with pytest.raises(ValueError):
            tiny_config(room, **overrides)

    @pytest.mark.parametrize("overrides", [
        dict(speed_of_sound=-343.0), dict(speed_of_sound=float("nan")),
        dict(frequency_hz=0.0), dict(frequency_hz=float("nan")),
        dict(frequency_hz=float("inf")), dict(frequencies_hz=(200.0, -1.0)),
        dict(exclusion_radius=-1.0), dict(exclusion_radius=0.0),
        dict(exclusion_radius=1.3),
        dict(boundary_perturbations=(0.0, float("nan"))),
        dict(mic_perturbations=(-0.01,)), dict(snr_db=float("nan")),
        dict(snr_db=-float("inf")), dict(snr_db=-4000.0)])
    def test_physical_values_out_of_range(self, room, overrides):
        """Each check is written so that NaN fails it too."""
        with pytest.raises(ValueError, match=next(iter(overrides))):
            tiny_config(room, **overrides)

    def test_unknown_method_rejected(self, room):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_config(room, methods=("proposed", "kriging"))

    def test_unknown_sweep_rejected(self, room):
        with pytest.raises(ValueError, match="unknown sweeps"):
            tiny_config(room, sweeps=("bogus",))

    def test_empty_values_rejected_only_for_chosen_sweeps(self, room):
        with pytest.raises(ValueError, match="boundary_counts"):
            tiny_config(room, boundary_counts=())
        cfg = tiny_config(room, boundary_counts=(), sweeps=("frequency",))
        assert cfg.boundary_counts == ()

    def test_empty_methods_rejected_only_with_sweeps(self, room):
        with pytest.raises(ValueError, match="no methods"):
            tiny_config(room, methods=())
        assert tiny_config(room, methods=(), sweeps=()).methods == ()


class TestSweeps:
    def test_minimal_sweep_shape(self, room):
        cfg = tiny_config(room, methods=("nearest",), boundary_counts=(3,),
                          monte_carlo_runs=1)
        rows = sweep(cfg, "boundary_count")
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, RunResult)
        assert row.method == "nearest"
        assert row.value == 3.0
        assert len(row.nmse_per_run) == 1
        assert np.isfinite(row.nmse_linear)

    def test_boundary_count_rows_ordered_and_finite(self, room):
        cfg = tiny_config(room)
        rows = sweep(cfg, "boundary_count")
        assert len(rows) == len(cfg.boundary_counts) * len(cfg.methods)
        keys = [(r.value, r.method) for r in rows]
        expected = [(float(b), m) for b in cfg.boundary_counts
                    for m in cfg.methods]
        assert keys == expected
        for row in rows:
            assert np.all(np.isfinite(row.nmse_per_run))

    def test_determinism_across_calls(self, room):
        cfg = tiny_config(room)
        first = sweep(cfg, "boundary_count")
        second = sweep(cfg, "boundary_count")
        for a, b in zip(first, second):
            npt.assert_array_equal(a.nmse_per_run, b.nmse_per_run)

    def test_proposed_at_zero_boundary_matches_unperturbed(self, room):
        """Magnitude-zero perturbation rows reproduce the boundary-count
        sweep bit for bit at equal seeds (shared per-run randomness)."""
        cfg = tiny_config(room)
        count_rows = {(r.value, r.method): r
                      for r in sweep(cfg, "boundary_count")}
        perturb_rows = {(r.value, r.method): r
                        for r in sweep(cfg, "boundary_perturbation")}
        for method in cfg.methods:
            baseline = count_rows[(float(cfg.boundary_count), method)]
            unperturbed = perturb_rows[(0.0, method)]
            npt.assert_array_equal(baseline.nmse_per_run,
                                   unperturbed.nmse_per_run)

    def test_mic_perturbation_zero_matches_baseline(self, room):
        cfg = tiny_config(room)
        count_rows = {(r.value, r.method): r
                      for r in sweep(cfg, "boundary_count")}
        mic_rows = {(r.value, r.method): r
                    for r in sweep(cfg, "mic_perturbation")}
        for method in cfg.methods:
            baseline = count_rows[(float(cfg.boundary_count), method)]
            unperturbed = mic_rows[(0.0, method)]
            npt.assert_array_equal(baseline.nmse_per_run,
                                   unperturbed.nmse_per_run)

    def test_frequency_sweep_runs_all_frequencies(self, room):
        cfg = tiny_config(room, methods=("tikhonov", "nearest"))
        rows = sweep(cfg, "frequency")
        values = sorted({r.value for r in rows})
        assert values == [200.0, 250.0]
        for row in rows:
            assert np.all(np.isfinite(row.nmse_per_run))

    def test_run_sweeps_dispatch(self, room):
        cfg = tiny_config(room, methods=("nearest",),
                          sweeps=("boundary_count", "frequency"))
        results = run_sweeps(cfg)
        assert set(results) == {"boundary_count", "frequency"}


class TestLassoGridSize:
    def test_grid_size_sets_penalties_per_fold(self, room, monkeypatch):
        penalties = []
        original = baselines.lasso

        def counting_lasso(y, phi, noise_variance, penalty, **kwargs):
            penalties.append(penalty)
            return original(y, phi, noise_variance, penalty, **kwargs)

        monkeypatch.setattr(baselines, "lasso", counting_lasso)
        cfg = tiny_config(room, methods=("lasso",), mic_perturbations=(0.0,),
                          monte_carlo_runs=1)
        sweep(cfg, "mic_perturbation")
        assert len(penalties) == baselines.CV_GRID_SIZE * cfg.lasso_folds
        assert len(set(penalties)) == baselines.CV_GRID_SIZE


class TestLassoConvergenceWarning:
    def test_unconverged_final_fit_names_run_and_penalty(self, room,
                                                         monkeypatch, caplog,
                                                         in_process):
        fits = []
        original = experiments.lasso

        def recording(y, phi, noise_variance, penalty):
            fit = original(y, phi, noise_variance, penalty, max_iterations=2)
            fits.append((penalty, fit.converged))
            return fit

        monkeypatch.setattr(experiments, "lasso", recording)
        cfg = tiny_config(room, methods=("lasso",), mic_perturbations=(0.0,),
                          monte_carlo_runs=2)
        with caplog.at_level(logging.WARNING, logger=experiments.__name__):
            sweep(cfg, "mic_perturbation")
        messages = [r.getMessage() for r in caplog.records
                    if "did not converge" in r.getMessage()]
        expected = [f"run {run}: final lasso fit at penalty {penalty!r} did "
                    "not converge in 2 iterations"
                    for run, (penalty, converged) in enumerate(fits)
                    if not converged]
        assert messages == expected and expected

    def test_cross_validation_warning_names_run_and_case(self, room,
                                                         monkeypatch, caplog,
                                                         in_process):
        monkeypatch.setattr(baselines, "CV_MAX_ITERATIONS", 2)
        cfg = tiny_config(room, methods=("lasso",), mic_perturbations=(0.05,))
        with caplog.at_level(logging.WARNING, logger=baselines.__name__):
            sweep(cfg, "mic_perturbation")
        starts = [r.getMessage().split(":")[0] for r in caplog.records
                  if r.name == baselines.__name__]
        assert starts == [f"run {run} at 250 Hz, microphones shifted 0.05 m"
                          for run in range(cfg.monte_carlo_runs)]

    def test_converged_final_fit_is_silent(self, room, caplog):
        cfg = tiny_config(room, methods=("lasso",), mic_perturbations=(0.0,),
                          monte_carlo_runs=1)
        with caplog.at_level(logging.WARNING, logger=experiments.__name__):
            sweep(cfg, "mic_perturbation")
        assert not [r for r in caplog.records
                    if "did not converge" in r.getMessage()]


class TestDriver:
    """What the one sweep driver must keep from the four runners it
    replaced."""

    def test_lasso_penalty_per_fit_from_assumed_mics(self, room,
                                                     monkeypatch, in_process):
        """Every lasso fit cross-validates its own penalty, from Phi at the
        microphone positions that fit assumes."""
        phis = []
        original = experiments.select_lambda

        def recording(y, phi, *args, **kwargs):
            phis.append(phi)
            return original(y, phi, *args, **kwargs)

        monkeypatch.setattr(experiments, "select_lambda", recording)
        cfg = tiny_config(room, methods=("lasso",),
                          mic_perturbations=(0.05, 0.1))
        sweep(cfg, "mic_perturbation")
        assert len(phis) == cfg.monte_carlo_runs * 2
        for run in range(cfg.monte_carlo_runs):
            data = experiments._make_run(cfg, run, cfg.frequency_hz,
                                         cfg.boundary_count)
            for i, magnitude in enumerate(cfg.mic_perturbations):
                moved = perturb_positions(data.snapshot.mics, magnitude,
                                          data.seeds["mic_perturbation"])
                npt.assert_array_equal(phis[2 * run + i],
                                       build_phi(data.dictionary, moved))

    @pytest.mark.parametrize("name", ["boundary_count",
                                      "boundary_perturbation"])
    def test_boundary_sweeps_fit_baselines_once_per_run(self, room, name):
        cfg = tiny_config(room)
        rows = sweep(cfg, name)
        for method in ("tikhonov", "lasso", "nearest"):
            pairs = {tuple(zip(r.nmse_per_run, r.seconds_per_run))
                     for r in rows if r.method == method}
            assert len(pairs) == 1, method
        proposed = {tuple(r.seconds_per_run) for r in rows
                    if r.method == "proposed"}
        assert len(proposed) == len(rows) // len(cfg.methods)

    def test_four_sweeps_together_equal_each_sweep_alone(self, room):
        """Sharing fits across sweeps changes no bit of any sweep, with
        repeated values and a `boundary_count` that is swept but is not the
        largest swept count: the boundary-count sweep then takes its
        12-point prior from a 20-point cloud, the other sweeps from a
        12-point one."""
        cfg = tiny_config(room, boundary_count=12,
                          boundary_counts=(0, 20, 12, 20),
                          boundary_perturbations=(0.0, 0.05, 0.0),
                          mic_perturbations=(0.05, 0.0),
                          frequencies_hz=(250.0, 200.0, 250.0))
        together = run_sweeps(cfg)
        assert list(together) == list(experiments.SWEEPS)
        for name, rows in together.items():
            alone = sweep(cfg, name)
            assert ([(r.sweep, r.method, r.value) for r in rows]
                    == [(r.sweep, r.method, r.value) for r in alone])
            for a, b in zip(rows, alone):
                assert (np.asarray(a.nmse_per_run).tobytes()
                        == np.asarray(b.nmse_per_run).tobytes()), (name, a)

    def test_boundary_count_sweep_takes_prefixes_of_its_largest_cloud(
            self, room, monkeypatch, in_process):
        """The boundary-count sweep fits on prefixes of one cloud sampled
        at its largest count; the other sweeps on the cloud sampled at
        `boundary_count`, even where the two prior sizes agree. The clouds
        are keyed by size, since the fits are handed out largest first."""
        clouds = {}
        original = experiments.fit_and_predict

        def recording(y, dictionary, mics, cloud, *args):
            clouds.setdefault(len(cloud.points), []).append(
                cloud.points.tobytes())
            return original(y, dictionary, mics, cloud, *args)

        monkeypatch.setattr(experiments, "fit_and_predict", recording)
        cfg = tiny_config(room, methods=("proposed",), monte_carlo_runs=1,
                          boundary_counts=(0, 20, 12, 20),
                          boundary_perturbations=(0.0,),
                          sweeps=("boundary_count", "boundary_perturbation"))
        run_sweeps(cfg)
        seed = run_seeds(cfg.master_seed, 0)["boundary"]
        largest = sample_boundary(room, 20, seed).points
        own = sample_boundary(room, cfg.boundary_count, seed).points
        expected = {0: [largest[:0]], 20: [largest], 12: [largest[:12], own]}
        assert clouds == {size: [c.tobytes() for c in points]
                          for size, points in expected.items()}
        assert largest[:12].tobytes() != own.tobytes()

    def test_calls_per_run_on_the_default_layout(self, room, monkeypatch,
                                                 in_process):
        """Six boundary counts (the largest equal to `boundary_count`), six
        cloud and six microphone displacements and seven frequencies: one
        measurement per frequency, and one fit per distinct case a method
        reads. Each sweep run on its own would make 10 measurements, 25
        proposed fits and 15 fits of each baseline per run."""
        defaults = ExperimentConfig()
        cfg = tiny_config(room, boundary_count=12,
                          boundary_counts=(0, 1, 2, 4, 8, 12),
                          boundary_perturbations=defaults.boundary_perturbations,
                          mic_perturbations=defaults.mic_perturbations,
                          frequencies_hz=(150.0, 200.0, 250.0, 300.0, 350.0,
                                          400.0, 450.0),
                          max_line_searches=2)
        calls = dict.fromkeys(("_make_run", "fit_and_predict", "select_lambda",
                               "tikhonov", "nearest_neighbor"), 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name,
                                counting(name, getattr(experiments, name)))
        run_sweeps(cfg)
        runs = cfg.monte_carlo_runs
        assert calls == {"_make_run": 7 * runs, "fit_and_predict": 22 * runs,
                         "select_lambda": 12 * runs, "tikhonov": 12 * runs,
                         "nearest_neighbor": 12 * runs}


def current_run():
    """The run index of the `_make_run` call that this is called under."""
    frame = sys._getframe()
    while frame.f_code is not experiments._make_run.__code__:
        frame = frame.f_back
    return frame.f_locals["run"]


@dataclasses.dataclass(frozen=True)
class FailingRoom(RoomSpec):
    """A room that carries a failure into whatever process builds a run's
    measurement, spawned children included, which a monkeypatch in this
    process does not reach (forked children it does). With `die`, a child
    that builds any measurement ends at once. Otherwise the first
    measurement of each run logs "run N measured" and marks its start with
    a file under `marks`, named after the run and holding the process id;
    run `first` + 1 fails at once, run `first` fails `delay` s after run
    `first` + 1 has started (so that the later run's failure arrives
    first; with no delay it fails at once), every run after them takes
    0.5 s longer and the runs before them are untouched."""

    marks: str = ""
    die: bool = False
    first: int = 0
    delay: float = 0.2

    @property
    def mic_half_center(self):
        run = current_run()
        mark = os.path.join(self.marks, str(run))
        if self.die:
            if multiprocessing.parent_process() is not None:
                os._exit(1)
        elif not os.path.exists(mark):
            with open(mark, "w") as handle:
                handle.write(str(os.getpid()))
            experiments.logger.warning("run %d measured", run)
            later = os.path.join(self.marks, str(self.first + 1))
            if run == self.first and self.delay:
                deadline = time.monotonic() + 60.0
                while (not os.path.exists(later)
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(self.delay)
            if run in (self.first, self.first + 1):
                raise RuntimeError(f"injected failure in run {run}")
            if run > self.first:
                time.sleep(0.5)
        return super().mic_half_center


@dataclasses.dataclass(frozen=True)
class DyingRoom(RoomSpec):
    """A room whose run-2 measurement ends the child that builds it, and
    whose run-0 measurement takes 1 s longer in the main process."""

    @property
    def mic_half_center(self):
        run = current_run()
        if multiprocessing.parent_process() is None:
            if run == 0:
                time.sleep(0.5)     # read twice per measurement
        elif run == 2:
            os._exit(1)
        return super().mic_half_center


START_METHODS = ("fork", "spawn")


def use_start_method(monkeypatch, method):
    """Start the pool's children by `method`, whatever the thread count:
    `_start_method` is patched in this process, where the pool is made."""
    monkeypatch.setattr(experiments, "_start_method", lambda: method)


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(experiments, "_worker_count",
                        lambda tasks, workers=workers: workers)


# (threading's thread count, the OS's) at each fork of this process while
# RECORDING is set; a fork hook cannot be unregistered, so one is
# registered here, once
FORKS = []
RECORDING = threading.Event()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=lambda: RECORDING.is_set() and FORKS.append(
        (threading.active_count(), len(os.listdir("/proc/self/task")))))


class TestRunsAcrossProcesses:
    """Measurements and fits spread over child processes give what one
    process gives, with the children forked and with them spawned."""

    @staticmethod
    def outputs(results, out):
        """(aggregate CSV bytes, runs CSV rows without `seconds`) of a
        benchmark's results, written under `out`."""
        out.mkdir()
        aggregate, runs = {}, {}
        for name, rows in results.items():
            fileio.write_aggregate_csv(out / f"{name}_aggregate.csv", rows)
            fileio.write_runs_csv(out / f"{name}_runs.csv", rows)
            aggregate[name] = (out / f"{name}_aggregate.csv").read_bytes()
            with open(out / f"{name}_runs.csv", newline="",
                      encoding="utf-8") as handle:
                runs[name] = [{k: v for k, v in row.items() if k != "seconds"}
                              for row in csv.DictReader(handle)]
        return aggregate, runs

    def benchmark(self, cfg, caplog, out):
        """(aggregate CSV bytes, runs CSV rows without `seconds`, the
        `roomwave` log records) of `run_sweeps(cfg)`, written under
        `out`."""
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="roomwave"):
            results = run_sweeps(cfg)
        records = [(r.name, r.levelno, r.getMessage(), r.exc_text)
                   for r in caplog.records]
        return (*self.outputs(results, out), records)

    def by_start_method(self, cfg, workers, monkeypatch, caplog, tmp_path):
        """{start method: `benchmark` outputs} over `workers` processes,
        forked and spawned, and {None: outputs} in this process alone."""
        seen = {}
        for count, method in ((1, None), *((workers, m)
                                           for m in START_METHODS)):
            use_workers(monkeypatch, count)
            use_start_method(monkeypatch, method)
            seen[method] = self.benchmark(cfg, caplog, tmp_path / str(method))
        return seen

    def test_pooled_runs_match_in_process_runs(self, room, monkeypatch,
                                               caplog, tmp_path):
        """Three runs of all four sweeps, in this process and then over
        three processes, forked and then spawned: the same CSVs and the same
        log records in the same order, with every lasso fit failing (no
        noise) and logging its traceback."""
        cfg = tiny_config(room, monte_carlo_runs=3, snr_db=math.inf)
        assert cfg.sweeps == experiments.SWEEPS
        seen = self.by_start_method(cfg, 3, monkeypatch, caplog, tmp_path)
        assert seen["fork"] == seen[None]
        assert seen["spawn"] == seen[None]
        failed = [r for r in seen[None][2] if "method 'lasso' failed" in r[2]]
        assert len(failed) == 3 * 3          # runs x distinct lasso fits
        assert all("noise_variance must be positive" in r[3] for r in failed)
        assert [r[2][:6] for r in failed] == [f"run {run}:" for run in
                                              (0, 0, 0, 1, 1, 1, 2, 2, 2)]

    def test_uneven_runs_match_in_process_runs(self, room, monkeypatch,
                                               caplog, tmp_path):
        """Three runs over two processes, with proposed fits at two cloud
        sizes beside every baseline, forked and then spawned: the CSVs and
        records of one process."""
        cfg = tiny_config(room, monte_carlo_runs=3, boundary_counts=(6, 12),
                          mic_perturbations=(0.0, 0.05),
                          sweeps=("boundary_count", "mic_perturbation"))
        seen = self.by_start_method(cfg, 2, monkeypatch, caplog, tmp_path)
        assert seen["fork"] == seen[None]
        assert seen["spawn"] == seen[None]

    def test_one_run_spreads_over_two_processes(self, room, monkeypatch,
                                                caplog, tmp_path):
        """With two CPUs a one-run benchmark makes a pool of one child,
        which fits part of the run; the CSVs and records are those of this
        process alone."""
        cfg = tiny_config(room, monte_carlo_runs=1, snr_db=math.inf)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        use_start_method(monkeypatch, "fork")
        pools, pids = [], tmp_path / "pids"
        original_pool = experiments.ProcessPoolExecutor
        original_fit = experiments._timed_nmse

        def pool(workers, **kwargs):
            pools.append(workers)
            return original_pool(workers, **kwargs)

        def fit(*args):
            with open(pids, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return original_fit(*args)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(experiments, "_timed_nmse", fit)
        pooled = self.benchmark(cfg, caplog, tmp_path / "pooled")
        assert pools == [1]
        assert len(set(pids.read_text().split())) == 2
        use_workers(monkeypatch, 1)
        assert self.benchmark(cfg, caplog, tmp_path / "alone") == pooled

    def test_warnings_come_out_with_the_records_after_the_runs(
            self, room, monkeypatch, caplog, in_process):
        """A warning inside a run is held back with the run's log records
        and comes out with them in run order, through the filters in force
        when the runs are done: an `error` filter raises then, after every
        run, and fails no method."""
        original = experiments.nearest_neighbor
        calls = []

        def warning(*args):
            calls.append(len(calls) + 1)
            warnings.warn(f"call {calls[-1]}")
            experiments.logger.warning("record %d", calls[-1])
            return original(*args)

        monkeypatch.setattr(experiments, "nearest_neighbor", warning)
        cfg = tiny_config(room, methods=("nearest",))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            logging.captureWarnings(True)
            try:
                with caplog.at_level(logging.WARNING):
                    rows = sweep(cfg, "frequency")
            finally:
                logging.captureWarnings(False)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2 * len(calls) == 8
        for i, call in enumerate(calls):
            assert f"UserWarning: call {call}" in messages[2 * i]
            assert messages[2 * i + 1] == f"record {call}"
        assert all(np.isfinite(r.nmse_per_run).all() for r in rows)

        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="call 1"):
                sweep(cfg, "frequency")
        assert calls == [1, 2, 3, 4]

    def test_exception_in_a_child_run_propagates(self, monkeypatch, caplog,
                                                 tmp_path):
        """Twelve runs, one measurement and one fit each. In this process
        alone, run 4's measurement fails and its exception propagates after
        the records of runs 0-4. Over three processes, forked and then
        spawned, run 5's measurement fails at once and run 4's 0.2 s later:
        run 4's exception still propagates, after the same records (run 5's
        is not among them). Once run 5's failure is known no later run
        starts, and every later run takes 0.5 s, so at most one of runs
        6-11 starts, one taken while run 5 failed. No child is left."""

        def records(room):
            cfg = tiny_config(room, methods=("nearest",), monte_carlo_runs=12,
                              frequencies_hz=(250.0,), sweeps=("frequency",))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="roomwave"):
                with pytest.raises(RuntimeError, match="in run 4"):
                    run_sweeps(cfg)
            return [r.getMessage() for r in caplog.records]

        (tmp_path / "alone").mkdir()
        use_workers(monkeypatch, 1)
        alone = records(FailingRoom(marks=str(tmp_path / "alone"), first=4,
                                    delay=0.0))
        assert alone == [f"run {run} measured" for run in range(5)]
        use_workers(monkeypatch, 3)
        for method in START_METHODS:
            use_start_method(monkeypatch, method)
            marks = tmp_path / method
            marks.mkdir()
            assert records(FailingRoom(marks=str(marks), first=4)) == alone
            started = {int(p.name) for p in marks.iterdir()}
            assert set(range(6)) <= started <= set(range(7)), started
            assert multiprocessing.active_children() == []

    def test_killed_child_breaks_the_pool(self, monkeypatch):
        """A child that dies in a run, forked or spawned, raises
        `BrokenProcessPool` instead of hanging, and leaves no child
        behind."""
        monkeypatch.setattr(experiments, "_worker_count", lambda runs: 2)
        cfg = tiny_config(FailingRoom(die=True), methods=("nearest",),
                          monte_carlo_runs=12, sweeps=("frequency",))
        for method in START_METHODS:
            use_start_method(monkeypatch, method)
            start = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                run_sweeps(cfg)
            assert time.monotonic() - start < 30
            assert multiprocessing.active_children() == []

    def test_pool_broken_while_measuring_fails_in_serial_order(
            self, monkeypatch, caplog):
        """A forked child dies at its second measurement (run 2) while this
        process builds run 0's, which takes 1 s: the fits of runs 0 and 1
        come before the failure, so this process fits run 0, the submission
        of run 1's fit to the broken pool fails that fit, and
        `BrokenProcessPool` propagates after run 0's fit has logged."""
        use_workers(monkeypatch, 2)
        use_start_method(monkeypatch, "fork")
        original = experiments.nearest_neighbor

        def logging_fit(mics, y, targets):
            experiments.logger.warning("fitted in %s", os.getpid())
            return original(mics, y, targets)

        monkeypatch.setattr(experiments, "nearest_neighbor", logging_fit)
        cfg = tiny_config(DyingRoom(), methods=("nearest",),
                          monte_carlo_runs=4, frequencies_hz=(250.0,),
                          sweeps=("frequency",))
        with caplog.at_level(logging.WARNING, logger="roomwave"):
            with pytest.raises(BrokenProcessPool):
                run_sweeps(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            f"fitted in {os.getpid()}"]
        assert multiprocessing.active_children() == []

    def test_fits_are_handed_out_longest_first(self, room, monkeypatch,
                                               in_process):
        """In one process the fits run in the order they are handed out:
        first the first of each method, then the proposed method at the
        largest cloud size, the lasso, the other proposed fits by
        descending cloud size, Tikhonov and nearest, ties in serial order
        (run, then case)."""
        order = []
        original = experiments._timed_nmse

        def recording(method, data, cfg, mics, cloud, mic_shift):
            order.append((method, data.run,
                          len(cloud.points) if method == "proposed" else None,
                          mic_shift))
            return original(method, data, cfg, mics, cloud, mic_shift)

        monkeypatch.setattr(experiments, "_timed_nmse", recording)
        cfg = tiny_config(room, boundary_counts=(6, 12, 0),
                          mic_perturbations=(0.0, 0.05), max_line_searches=2,
                          sweeps=("boundary_count", "mic_perturbation"))
        run_sweeps(cfg)
        runs = range(cfg.monte_carlo_runs)
        later = [(run, shift) for run in runs for shift in (0.0, 0.05)][1:]
        assert order == (
            [("proposed", 0, 12, 0.0), ("lasso", 0, None, 0.0),
             ("tikhonov", 0, None, 0.0), ("nearest", 0, None, 0.0)]
            + [("proposed", run, 12, shift) for run, shift in later]
            + [("lasso", run, None, shift) for run, shift in later]
            + [("proposed", run, size, 0.0) for size in (6, 0) for run in runs]
            + [(method, run, None, shift) for method in ("tikhonov", "nearest")
               for run, shift in later])

    def test_this_process_fits_every_method_first(self, room, monkeypatch,
                                                  tmp_path):
        """With more children than fits to hand out, this process still
        fits the largest proposed fit and the first fit of every baseline,
        before any other fit; the children fit the rest."""
        use_workers(monkeypatch, 9)
        use_start_method(monkeypatch, "fork")
        log = tmp_path / "fits"
        original = experiments._timed_nmse

        def recording(method, data, cfg, mics, cloud, mic_shift):
            with open(log, "a", encoding="utf-8") as handle:
                size = len(cloud.points) if method == "proposed" else "-"
                handle.write(f"{os.getpid()} {method} {size} {mic_shift}\n")
            return original(method, data, cfg, mics, cloud, mic_shift)

        monkeypatch.setattr(experiments, "_timed_nmse", recording)
        cfg = tiny_config(room, monte_carlo_runs=1, boundary_counts=(6, 12),
                          sweeps=("boundary_count", "mic_perturbation"))
        run_sweeps(cfg)
        fits = [line.split() for line in log.read_text().splitlines()]
        mine = [fit[1:] for fit in fits if fit[0] == str(os.getpid())]
        assert mine[:4] == [["proposed", "12", "0.0"], ["lasso", "-", "0.0"],
                            ["tikhonov", "-", "0.0"], ["nearest", "-", "0.0"]]
        assert len(fits) == 9 and len({fit[0] for fit in fits}) > 1
        assert multiprocessing.active_children() == []

    def test_system_exit_in_a_child_fails_its_fit(self, monkeypatch, caplog):
        """A `SystemExit` raised in a forked child's fit comes back through
        the thread that fed that child, as the fit's failure: it propagates
        in serial order, after the records of the fits before it, and no
        thread dies of it."""
        use_workers(monkeypatch, 2)
        use_start_method(monkeypatch, "fork")
        original = experiments.nearest_neighbor

        def exiting(mics, y, targets):
            if multiprocessing.parent_process() is not None:
                raise SystemExit("child fit exits")
            experiments.logger.warning("fitted in %s", os.getpid())
            return original(mics, y, targets)

        monkeypatch.setattr(experiments, "nearest_neighbor", exiting)
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        cfg = tiny_config(RoomSpec(), methods=("nearest",), monte_carlo_runs=2,
                          sweeps=("frequency",))
        with caplog.at_level(logging.WARNING, logger="roomwave"):
            with pytest.raises(SystemExit, match="child fit exits"):
                run_sweeps(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            f"fitted in {os.getpid()}"]
        assert died == []
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []


def start_method_in_new_interpreter(**env) -> list:
    """[Python's thread count, `_start_method()`] in a fresh interpreter
    that imports `roomwave.experiments` (numpy and scipy with it) with
    `env` on top of this environment without its BLAS thread variables."""
    code = ("import threading\n"
            "from roomwave import experiments\n"
            "print(threading.active_count(), experiments._start_method())\n")
    base = {k: v for k, v in os.environ.items()
            if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    base["PYTHONPATH"] = os.path.dirname(os.path.dirname(experiments.__file__))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          timeout=120, capture_output=True, text=True,
                          check=True)
    return done.stdout.split()


def wait_for_one_os_thread(seconds=1.0):
    """Wait, while `threading` sees this thread alone, for up to `seconds`
    for the OS thread count to fall to one, as `_start_method` does: an
    earlier test's pool threads stay in it until they have exited. Skip the
    test if the count stays above one."""
    deadline = time.monotonic() + seconds
    while len(os.listdir("/proc/self/task")) > 1:
        if threading.active_count() > 1 or time.monotonic() > deadline:
            pytest.skip("this process runs more than one thread")
        time.sleep(0.001)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="the OS thread count is read from /proc")
class TestStartMethod:
    """The run pool forks only when the OS reports one thread in this
    process."""

    def test_one_thread_forks(self):
        assert start_method_in_new_interpreter() == ["1", "fork"]

    def test_native_threads_spawn(self):
        """Two OpenBLAS threads start a native thread that Python's
        `threading` does not see, and the pool spawns."""
        assert start_method_in_new_interpreter(OPENBLAS_NUM_THREADS="2") == [
            "1", "spawn"]

    def test_a_live_thread_spawns(self):
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(60,))
        helper.start()
        try:
            assert experiments._start_method() == "spawn"
        finally:
            release.set()
            helper.join(timeout=60)
        assert not helper.is_alive()

    @pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
    def test_unreadable_thread_list_spawns(self, monkeypatch, error):
        def listdir(path):
            raise error(path)

        monkeypatch.setattr(os, "listdir", listdir)
        assert experiments._start_method() == "spawn"

    def test_consecutive_pools_fork(self, room, monkeypatch):
        """Two pooled benchmarks in a row both fork: the first pool's
        threads are gone, from the OS count too, when the second is made."""
        wait_for_one_os_thread()
        chosen = []
        select = experiments._start_method

        def recording():
            chosen.append(select())
            return chosen[-1]

        monkeypatch.setattr(experiments, "_start_method", recording)
        monkeypatch.setattr(experiments, "_worker_count", lambda runs: 2)
        cfg = tiny_config(room, methods=("nearest",), sweeps=("frequency",))
        first, second = run_sweeps(cfg), run_sweeps(cfg)
        assert chosen == ["fork", "fork"]
        assert [r.nmse_per_run for r in first["frequency"]] == [
            r.nmse_per_run for r in second["frequency"]]
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("runs", [3, 1])
    def test_every_fork_sees_one_thread(self, room, monkeypatch, runs):
        """A forked pool forks both its children while this process has
        one thread, by `threading`'s count and by the OS's, whether its
        first task is a measurement (three runs) or a fit (one run, whose
        one measurement this process builds); afterwards no thread or
        child is left."""
        wait_for_one_os_thread()
        use_start_method(monkeypatch, "fork")
        use_workers(monkeypatch, 3)
        cfg = tiny_config(room, monte_carlo_runs=runs, boundary_counts=(6, 12),
                          methods=("proposed", "nearest"),
                          sweeps=("boundary_count",))
        FORKS.clear()
        RECORDING.set()
        try:
            run_sweeps(cfg)
        finally:
            RECORDING.clear()
        assert FORKS == [(1, 1), (1, 1)]
        assert threading.active_count() == 1
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    def test_one_per_cpu_at_most_one_per_task(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert [experiments._worker_count(tasks)
                for tasks in (1, 2, 3, 10)] == [1, 2, 3, 3]

    def test_capped_by_the_fits_not_the_runs(self, room, monkeypatch):
        """`run_sweeps` asks for at most one process per distinct fit, the
        larger of its two phases: two runs of the four sweeps with nearest
        alone make two measurements and three fits per run."""
        asked = []
        monkeypatch.setattr(experiments, "_worker_count",
                            lambda tasks: asked.append(tasks) or 1)
        run_sweeps(tiny_config(room, methods=("nearest",)))
        assert asked == [6]

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        """Without `os.sched_getaffinity` (outside Linux) every CPU counts,
        and one process runs them all when the count is unknown."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [experiments._worker_count(runs) for runs in (1, 2, 10)] == [
            1, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._worker_count(10) == 1


class TestFitAndPredictLifetimes:
    """`fit_and_predict` builds Psi and PhiTilde once and holds them only
    while the precompute reads them; its fit is the fit of a chain holding
    them throughout, bit for bit, and its predictions are the dense
    posterior's."""

    @staticmethod
    def run_data(room, boundary_count, **overrides):
        cfg = tiny_config(room, boundary_count=boundary_count, **overrides)
        return cfg, experiments._make_run(cfg, 0, cfg.frequency_hz,
                                          boundary_count)

    @staticmethod
    def call(cfg, data):
        return experiments.fit_and_predict(
            data.snapshot.noisy, data.dictionary, data.snapshot.mics,
            data.cloud, data.validation, cfg.max_line_searches)

    @staticmethod
    def holding_chain(cfg, data):
        """Build once, hold the matrices through the fit, and predict from
        the dense Sigma = sigma_alpha^2 (I + mu G^H G)^{-1} at the fitted
        theta."""
        dictionary = data.dictionary
        y = data.snapshot.noisy
        phi = build_phi(dictionary, data.snapshot.mics)
        psi = build_psi(dictionary, data.cloud)
        phi_tilde = build_phi_tilde(dictionary, data.cloud)
        fit, _ = marglik.fit_hyperparameters(
            y, phi, psi, phi_tilde, max_line_searches=cfg.max_line_searches)
        hp = marglik.to_hyperparameters(fit.x)
        g = hp.impedance * psi + phi_tilde
        sigma = hp.prior_variance * np.linalg.inv(
            np.eye(dictionary.size) + hp.boundary_weight * (g.conj().T @ g))
        rows = build_phi(dictionary, data.validation)
        q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
        cross = rows @ sigma @ phi.conj().T
        mean = cross @ np.linalg.solve(q, y)
        variance = (np.einsum("jp,pq,jq->j", rows, sigma, rows.conj()).real
                    - np.einsum("jm,mj->j", cross,
                                np.linalg.solve(q, cross.conj().T)).real)
        return fit, mean, variance

    @pytest.mark.parametrize("boundary_count", [0, 10, 300])
    def test_matrices_dead_while_the_optimizer_runs(self, room,
                                                    boundary_count,
                                                    monkeypatch):
        cfg, data = self.run_data(room, boundary_count, max_line_searches=3)
        built = []

        def keeping(original):
            def build(*args):
                result = original(*args)
                built.append(weakref.ref(result))
                return result
            return build

        for name in ("build_psi", "build_phi_tilde"):
            monkeypatch.setattr(experiments, name,
                                keeping(getattr(experiments, name)))
        alive_at_loop = []
        original_minimize = marglik.minimize

        def checking(*args, **kwargs):
            alive_at_loop.append([ref() is not None for ref in built])
            return original_minimize(*args, **kwargs)

        monkeypatch.setattr(marglik, "minimize", checking)
        self.call(cfg, data)
        assert alive_at_loop == [[False, False]]
        assert len(built) == 2          # one pair, read by the fit only

    @pytest.mark.parametrize("boundary_count", [0, 10, 300])
    def test_bit_identical_to_holding_chain(self, room, boundary_count):
        """The fit is the holding chain's fit, bit for bit. Mean and
        variance agree with the dense posterior within 1e-9 of their
        largest magnitude; they are computed in a different order, so their
        last bits differ."""
        cfg, data = self.run_data(room, boundary_count, mic_count=30,
                                  plane_wave_count=150, max_line_searches=8)
        fit, mean, variance = self.call(cfg, data)
        ref_fit, ref_mean, ref_variance = self.holding_chain(cfg, data)
        assert fit.x.tobytes() == ref_fit.x.tobytes()
        assert fit.trace == ref_fit.trace
        npt.assert_allclose(mean, ref_mean, rtol=0,
                            atol=1e-9 * np.abs(ref_mean).max())
        npt.assert_allclose(variance, ref_variance, rtol=0,
                            atol=1e-9 * np.abs(ref_variance).max())

    def test_peak_within_the_precompute_arrays(self, room):
        """(M, P, B) = (100, 1000, 300) with 3 line searches peaks within
        5 % of what the marginal-likelihood precompute itself holds: Phi,
        Psi, PhiTilde, the (4, B, B) Gram stack, the two (B, M) cross
        products and the two (B, J) target products (18.0 MB; 18.5 MB
        measured). Products from conjugated (B, P) copies instead of
        zgemm's conjugate-transpose flag peak at 23.0 MB and break the
        budget, and so would the start theta's real (B, P) array computed
        with the Gram stack alive (22.2 MB)."""
        m, p, b = 100, 1000, 300
        cfg, data = self.run_data(room, b, mic_count=m, plane_wave_count=p,
                                  max_line_searches=3)
        j = cfg.validation_count
        budget = 16 * (m * p + 2 * b * p + 4 * b * b + 2 * b * m + 2 * b * j)
        tracemalloc.start()
        try:
            self.call(cfg, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * budget, (peak, budget)

    def test_posterior_stage_within_two_boundary_matrices(self, room):
        """At (M, P, B) = (100, 1000, 300) the stage after the fit (prior,
        posterior and prediction, as `fit_and_predict` calls them) allocates
        within 5 % of two B x B matrices (2.9 MB) beside the evaluator's own
        arrays, the Gram stack among them: I + mu G G^H and its factor. The
        P-space prior it replaces peaked at 14.4 MB, three (B, P) arrays."""
        m, p, b = 100, 1000, 300
        _, data = self.run_data(room, b, mic_count=m, plane_wave_count=p)
        dictionary, cloud, y = data.dictionary, data.cloud, data.snapshot.noisy
        ml = marglik.MarginalLikelihood(
            y, build_phi(dictionary, data.snapshot.mics),
            build_psi(dictionary, cloud), build_phi_tilde(dictionary, cloud),
            build_phi(dictionary, data.validation))
        hp = marglik.to_hyperparameters([-1.0, 0.5, -3.0, 0.2, -0.4])
        tracemalloc.start()
        try:
            prior = prior_covariance_from_matrices(ml, hp)
            predict(prior, build_posterior(y, prior.mics, hp.noise_variance))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 16 * 2 * b * b, peak
