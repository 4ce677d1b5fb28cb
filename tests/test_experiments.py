import numpy as np
import numpy.testing as npt
import pytest

from roomwave import baselines, experiments
from roomwave.experiments import (ExperimentConfig, RunResult, nmse,
                                  run_boundary_count_sweep,
                                  run_boundary_perturbation_sweep,
                                  run_frequency_sweep,
                                  run_mic_perturbation_sweep, run_seeds,
                                  run_sweeps, to_db)
from roomwave.fileio import write_aggregate_csv
from roomwave.geometry import RoomSpec


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


class TestConfigValidation:
    def test_counts_must_be_positive(self, room):
        with pytest.raises(ValueError):
            tiny_config(room, monte_carlo_runs=0)
        with pytest.raises(ValueError):
            tiny_config(room, mic_count=0)

    def test_unknown_method_rejected(self, room):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_config(room, methods=("proposed", "kriging"))

    def test_unknown_sweep_rejected(self, room):
        with pytest.raises(ValueError, match="unknown sweeps"):
            run_sweeps(tiny_config(room), sweeps=("bogus",))


class TestSweeps:
    def test_minimal_sweep_shape(self, room):
        cfg = tiny_config(room, methods=("nearest",), boundary_counts=(3,),
                          monte_carlo_runs=1)
        rows = run_boundary_count_sweep(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, RunResult)
        assert row.method == "nearest"
        assert row.value == 3.0
        assert len(row.nmse_per_run) == 1
        assert np.isfinite(row.nmse_linear)

    def test_boundary_count_rows_ordered_and_finite(self, room):
        cfg = tiny_config(room)
        rows = run_boundary_count_sweep(cfg)
        assert len(rows) == len(cfg.boundary_counts) * len(cfg.methods)
        keys = [(r.value, r.method) for r in rows]
        expected = [(float(b), m) for b in cfg.boundary_counts
                    for m in cfg.methods]
        assert keys == expected
        for row in rows:
            assert np.all(np.isfinite(row.nmse_per_run))

    def test_determinism_across_calls(self, room):
        cfg = tiny_config(room)
        first = run_boundary_count_sweep(cfg)
        second = run_boundary_count_sweep(cfg)
        for a, b in zip(first, second):
            npt.assert_array_equal(a.nmse_per_run, b.nmse_per_run)

    def test_proposed_at_zero_boundary_matches_unperturbed(self, room):
        """Magnitude-zero perturbation rows reproduce the boundary-count
        sweep bit for bit at equal seeds (shared per-run randomness)."""
        cfg = tiny_config(room)
        count_rows = {(r.value, r.method): r
                      for r in run_boundary_count_sweep(cfg)}
        perturb_rows = {(r.value, r.method): r
                        for r in run_boundary_perturbation_sweep(cfg)}
        for method in cfg.methods:
            baseline = count_rows[(float(cfg.boundary_count), method)]
            unperturbed = perturb_rows[(0.0, method)]
            npt.assert_array_equal(baseline.nmse_per_run,
                                   unperturbed.nmse_per_run)

    def test_mic_perturbation_zero_matches_baseline(self, room):
        cfg = tiny_config(room)
        count_rows = {(r.value, r.method): r
                      for r in run_boundary_count_sweep(cfg)}
        mic_rows = {(r.value, r.method): r
                    for r in run_mic_perturbation_sweep(cfg)}
        for method in cfg.methods:
            baseline = count_rows[(float(cfg.boundary_count), method)]
            unperturbed = mic_rows[(0.0, method)]
            npt.assert_array_equal(baseline.nmse_per_run,
                                   unperturbed.nmse_per_run)

    def test_frequency_sweep_runs_all_frequencies(self, room):
        cfg = tiny_config(room, methods=("tikhonov", "nearest"))
        rows = run_frequency_sweep(cfg)
        values = sorted({r.value for r in rows})
        assert values == [200.0, 250.0]
        for row in rows:
            assert np.all(np.isfinite(row.nmse_per_run))

    def test_run_sweeps_dispatch(self, room):
        cfg = tiny_config(room, methods=("nearest",))
        results = run_sweeps(cfg, sweeps=("boundary_count", "frequency"))
        assert set(results) == {"boundary_count", "frequency"}


class TestLassoGridSize:
    def lasso_cfg(self, room, **overrides):
        return tiny_config(room, methods=("lasso",), mic_perturbations=(0.0,),
                           monte_carlo_runs=1, **overrides)

    def test_grid_size_sets_penalties_per_fold(self, room, monkeypatch):
        penalties = []
        original = baselines.lasso

        def counting_lasso(y, phi, noise_variance, config, initial=None):
            penalties.append(config.penalty)
            return original(y, phi, noise_variance, config, initial)

        monkeypatch.setattr(baselines, "lasso", counting_lasso)
        cfg = self.lasso_cfg(room, lasso_grid_size=5)
        run_mic_perturbation_sweep(cfg)
        assert len(penalties) == 5 * cfg.lasso_folds
        assert len(set(penalties)) == 5

    def test_default_size_keeps_aggregate_bytes(self, room, tmp_path,
                                                monkeypatch):
        """grid_size 20 reproduces select_lambda's own default grid, so the
        aggregate CSV is byte-identical to a run that passes no grid."""
        cfg = self.lasso_cfg(room, lasso_grid_size=20)
        configured = tmp_path / "configured.csv"
        write_aggregate_csv(configured, run_mic_perturbation_sweep(cfg))

        original = experiments.select_lambda

        def without_grid(*args, grid=None, **kwargs):
            return original(*args, grid=None, **kwargs)

        monkeypatch.setattr(experiments, "select_lambda", without_grid)
        default = tmp_path / "default.csv"
        write_aggregate_csv(default, run_mic_perturbation_sweep(cfg))
        assert configured.read_bytes() == default.read_bytes()
