import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from roomwave import baselines, experiments
from roomwave.experiments import (ExperimentConfig, RunResult, nmse,
                                  run_seeds, run_sweeps, to_db)
from roomwave.fileio import write_aggregate_csv
from roomwave.geometry import perturb_positions
from roomwave.planewaves import build_phi


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
        dict(lasso_grid_size=0), dict(lasso_folds=1), dict(lasso_folds=15),
        dict(max_image_order=-1), dict(boundary_count=-1),
        dict(boundary_counts=(0, -1))])
    def test_lasso_image_order_and_boundary_bounds(self, room, overrides):
        with pytest.raises(ValueError):
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
    def lasso_cfg(self, room, **overrides):
        return tiny_config(room, methods=("lasso",), mic_perturbations=(0.0,),
                           monte_carlo_runs=1, **overrides)

    def test_grid_size_sets_penalties_per_fold(self, room, monkeypatch):
        penalties = []
        original = baselines.lasso

        def counting_lasso(y, phi, noise_variance, config, initial=None,
                           **kwargs):
            penalties.append(config.penalty)
            return original(y, phi, noise_variance, config, initial, **kwargs)

        monkeypatch.setattr(baselines, "lasso", counting_lasso)
        cfg = self.lasso_cfg(room, lasso_grid_size=5)
        sweep(cfg, "mic_perturbation")
        assert len(penalties) == 5 * cfg.lasso_folds
        assert len(set(penalties)) == 5

    def test_default_size_keeps_aggregate_bytes(self, room, tmp_path,
                                                monkeypatch):
        """grid_size 20 reproduces select_lambda's own default grid, so the
        aggregate CSV is byte-identical to a run that passes no grid."""
        cfg = self.lasso_cfg(room, lasso_grid_size=20)
        configured = tmp_path / "configured.csv"
        write_aggregate_csv(configured, sweep(cfg, "mic_perturbation"))

        original = experiments.select_lambda

        def without_grid(*args, grid=None, **kwargs):
            return original(*args, grid=None, **kwargs)

        monkeypatch.setattr(experiments, "select_lambda", without_grid)
        default = tmp_path / "default.csv"
        write_aggregate_csv(default, sweep(cfg, "mic_perturbation"))
        assert configured.read_bytes() == default.read_bytes()


class TestDriver:
    """What the one sweep driver must keep from the four runners it
    replaced."""

    def lasso_cfg(self, room, **overrides):
        return tiny_config(room, methods=("lasso",), lasso_mode="global",
                           **overrides)

    def record_select_lambda(self, monkeypatch):
        phis = []
        original = experiments.select_lambda

        def recording(y, phi, *args, **kwargs):
            phis.append(phi)
            return original(y, phi, *args, **kwargs)

        monkeypatch.setattr(experiments, "select_lambda", recording)
        return phis

    @staticmethod
    def true_phi(cfg, frequency):
        data = experiments._make_run(cfg, 0, frequency, cfg.boundary_count)
        return build_phi(data.dictionary, data.mics.positions)

    @pytest.mark.parametrize("name", ["boundary_count",
                                      "boundary_perturbation",
                                      "mic_perturbation"])
    def test_global_penalty_once_per_sweep(self, room, monkeypatch, name):
        phis = self.record_select_lambda(monkeypatch)
        cfg = self.lasso_cfg(room)
        sweep(cfg, name)
        assert len(phis) == 1
        npt.assert_array_equal(phis[0], self.true_phi(cfg, cfg.frequency_hz))

    def test_global_penalty_once_per_frequency(self, room, monkeypatch):
        phis = self.record_select_lambda(monkeypatch)
        cfg = self.lasso_cfg(room)
        sweep(cfg, "frequency")
        assert len(phis) == len(cfg.frequencies_hz)
        for phi, frequency in zip(phis, cfg.frequencies_hz):
            npt.assert_array_equal(phi, self.true_phi(cfg, frequency))

    def test_global_penalty_ignores_perturbed_mics(self, room, monkeypatch):
        """The first magnitude is nonzero, yet the penalty comes from Phi at
        the true microphone positions."""
        phis = self.record_select_lambda(monkeypatch)
        cfg = self.lasso_cfg(room, mic_perturbations=(0.05, 0.1))
        sweep(cfg, "mic_perturbation")
        assert len(phis) == 1
        true_phi = self.true_phi(cfg, cfg.frequency_hz)
        npt.assert_array_equal(phis[0], true_phi)
        data = experiments._make_run(cfg, 0, cfg.frequency_hz,
                                     cfg.boundary_count)
        moved = perturb_positions(data.mics.positions, 0.05,
                                  data.seeds["mic_perturbation"], False)
        assert not np.array_equal(build_phi(data.dictionary, moved), true_phi)

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
