import csv
import dataclasses
import logging
import math
import multiprocessing
import os
import sys
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
            self, room, monkeypatch):
        """The boundary-count sweep fits on prefixes of one cloud sampled
        at its largest count; the other sweeps on the cloud sampled at
        `boundary_count`, even where the two prior sizes agree."""
        clouds = []
        original = experiments.fit_and_predict

        def recording(y, dictionary, mics, cloud, *args):
            clouds.append(cloud.points)
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
        expected = [largest[:0], largest, largest[:12], own]
        assert [c.tobytes() for c in clouds] == [c.tobytes() for c in expected]
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
    """The run index of the `_one_run` call that this is called under."""
    frame = sys._getframe()
    while frame.f_code is not experiments._one_run.__code__:
        frame = frame.f_back
    return frame.f_locals["run"]


@dataclasses.dataclass(frozen=True)
class FailingRoom(RoomSpec):
    """A room that carries a failure into whatever process runs a run,
    spawned children included, which a monkeypatch does not reach. With
    `die`, a child that starts any run ends at once. Otherwise each run
    marks its start with a file under `marks`, named after the run and
    holding the process id; run `first` + 1 fails at once, run `first`
    fails 0.2 s after run `first` + 1 has started (so that the later run's
    failure arrives first), every run after them takes 0.5 s longer and
    the runs before them are untouched."""

    marks: str = ""
    die: bool = False
    first: int = 0

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
            later = os.path.join(self.marks, str(self.first + 1))
            if run == self.first:
                deadline = time.monotonic() + 60.0
                while (not os.path.exists(later)
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                time.sleep(0.2)
            if run in (self.first, self.first + 1):
                raise RuntimeError(f"injected failure in run {run}")
            if run > self.first:
                time.sleep(0.5)
        return super().mic_half_center


class TestRunsAcrossProcesses:
    """Runs mapped over spawned children give what one process gives."""

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

    def test_pooled_runs_match_in_process_runs(self, room, monkeypatch,
                                               caplog, tmp_path):
        """Three runs of all four sweeps, in this process and then over
        three processes: the same CSVs and the same log records in the same
        order, with every lasso fit failing (no noise) and logging its
        traceback."""
        cfg = tiny_config(room, monte_carlo_runs=3, snr_db=math.inf)
        assert cfg.sweeps == experiments.SWEEPS
        seen = {}
        for workers in (1, 3):
            monkeypatch.setattr(experiments, "_worker_count",
                                lambda runs, workers=workers: workers)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="roomwave"):
                results = run_sweeps(cfg)
            records = [(r.name, r.levelno, r.getMessage(), r.exc_text)
                       for r in caplog.records]
            seen[workers] = (*self.outputs(results, tmp_path / str(workers)),
                             records)
        assert seen[3] == seen[1]
        failed = [r for r in seen[1][2] if "method 'lasso' failed" in r[2]]
        assert len(failed) == 3 * 3          # runs x distinct lasso fits
        assert all("noise_variance must be positive" in r[3] for r in failed)
        assert [r[2][:6] for r in failed] == [f"run {run}:" for run in
                                              (0, 0, 0, 1, 1, 1, 2, 2, 2)]

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

    def test_exception_in_a_child_run_propagates(self, monkeypatch,
                                                 tmp_path):
        """Of 12 runs over three processes, this one runs runs 0-3 and two
        spawned children the others. Run 5 fails at once and run 4 soon
        after, before any later run ends: run 4's exception propagates, the
        runs not yet started never start and no child is left."""
        monkeypatch.setattr(experiments, "_worker_count", lambda runs: 3)
        cfg = tiny_config(FailingRoom(marks=str(tmp_path), first=4),
                          methods=("nearest",), monte_carlo_runs=12,
                          sweeps=("frequency",))
        with pytest.raises(RuntimeError, match="in run 4"):
            run_sweeps(cfg)
        started = {int(p.name): int(p.read_text()) for p in tmp_path.iterdir()}
        assert set(range(6)) <= set(started) and len(started) < 12
        assert [run for run, pid in sorted(started.items())
                if pid == os.getpid()] == [0, 1, 2, 3]
        assert multiprocessing.active_children() == []

    def test_killed_child_breaks_the_pool(self, monkeypatch):
        """A child that dies in a run raises `BrokenProcessPool` instead of
        hanging, and leaves no child behind."""
        monkeypatch.setattr(experiments, "_worker_count", lambda runs: 2)
        cfg = tiny_config(FailingRoom(die=True), methods=("nearest",),
                          monte_carlo_runs=12, sweeps=("frequency",))
        start = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            run_sweeps(cfg)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    def test_one_per_cpu_at_most_one_per_run(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert [experiments._worker_count(runs) for runs in (1, 2, 3, 10)] == [
            1, 2, 3, 3]

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
    """`fit_and_predict` holds Psi and PhiTilde only while something reads
    them, and gives what a chain holding them throughout gives, bit for
    bit."""

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
        """Build once, hold the matrices through the fit, and form the
        prior from the same arrays."""
        dictionary = data.dictionary
        phi = build_phi(dictionary, data.snapshot.mics)
        psi = build_psi(dictionary, data.cloud)
        phi_tilde = build_phi_tilde(dictionary, data.cloud)
        fit = marglik.fit_hyperparameters(
            data.snapshot.noisy, phi, psi, phi_tilde,
            max_line_searches=cfg.max_line_searches)
        hp = marglik.to_hyperparameters(fit.x)
        prior = prior_covariance_from_matrices(psi, phi_tilde, hp)
        posterior = build_posterior(data.snapshot.noisy, phi, prior, hp,
                                    dictionary)
        mean, variance = predict(posterior, data.validation)
        return fit, posterior, mean, variance

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
        assert len(built) == 4          # a second pair for the prior

    @pytest.mark.parametrize("boundary_count", [0, 10, 300])
    def test_bit_identical_to_holding_chain(self, room, boundary_count,
                                            monkeypatch):
        cfg, data = self.run_data(room, boundary_count, mic_count=30,
                                  plane_wave_count=150, max_line_searches=8)
        posteriors = []
        original = experiments.build_posterior

        def recording(*args):
            posteriors.append(original(*args))
            return posteriors[-1]

        monkeypatch.setattr(experiments, "build_posterior", recording)
        fit, mean, variance = self.call(cfg, data)
        ref_fit, ref_posterior, ref_mean, ref_variance = self.holding_chain(
            cfg, data)
        assert fit.x.tobytes() == ref_fit.x.tobytes()
        assert fit.trace == ref_fit.trace
        assert mean.tobytes() == ref_mean.tobytes()
        assert variance.tobytes() == ref_variance.tobytes()
        # the layout of Sigma Phi^H decides how the posterior rounds, so it
        # is part of what must not change
        cross, ref_cross = posteriors[0].cross, ref_posterior.cross
        assert cross.tobytes() == ref_cross.tobytes()
        assert cross.strides == ref_cross.strides
        assert cross.flags.c_contiguous and ref_cross.flags.c_contiguous

    def test_peak_within_the_precompute_arrays(self, room):
        """(M, P, B) = (100, 1000, 300) with 3 line searches peaks within
        5 % of what the marginal-likelihood precompute itself holds: Phi,
        Psi, PhiTilde, one conjugated block of GRAM_BLOCK rows, the
        (4, B, B) Gram stack and the two (B, M) cross products (19.1 MB).
        A conjugated (B, P) copy in place of the block peaks at 22.9 MB and
        breaks the budget, and so would the start theta's (B, P)
        temporaries computed with the Gram stack alive (25.9 MB)."""
        m, p, b = 100, 1000, 300
        cfg, data = self.run_data(room, b, mic_count=m, plane_wave_count=p,
                                  max_line_searches=3)
        budget = 16 * (m * p + 2 * b * p + marglik.GRAM_BLOCK * p
                       + 4 * b * b + 2 * b * m)
        tracemalloc.start()
        try:
            self.call(cfg, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * budget, (peak, budget)

    def test_prior_stage_within_three_boundary_arrays(self, room):
        """At (M, P, B) = (100, 1000, 300) the prior stage, as
        `fit_and_predict` calls it on freshly built Psi and PhiTilde, peaks
        within 5 % of three (B, P) arrays (Psi, PhiTilde and G; 14.4 MB):
        the prior drops Psi and PhiTilde before G G^H. With both alive
        beside G's temporaries it peaked at 20.6 MB."""
        m, p, b = 100, 1000, 300
        _, data = self.run_data(room, b, mic_count=m, plane_wave_count=p)
        dictionary, cloud = data.dictionary, data.cloud
        hp = marglik.to_hyperparameters([-1.0, 0.5, -3.0, 0.2, -0.4])
        tracemalloc.start()
        try:
            prior_covariance_from_matrices(build_psi(dictionary, cloud),
                                           build_phi_tilde(dictionary, cloud),
                                           hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 16 * 3 * b * p, peak
