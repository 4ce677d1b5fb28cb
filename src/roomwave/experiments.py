"""Monte-Carlo benchmark harness: the NMSE metric and the four sweeps
(boundary-point count, boundary-position perturbation, microphone-position
perturbation, frequency).

Within a run, every method sees the same noise realization and geometry, so
method comparisons are paired; seeds are derived from (master_seed, run)
only, which makes each run identical across sweeps and sweep values.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import (LassoConfig, default_lambda_grid, lasso,
                        nearest_neighbor, select_lambda, tikhonov)
from .bayes import build_posterior, predict, prior_covariance_from_matrices
from .geometry import (BoundaryCloud, MicArray, RoomSpec, perturb_positions,
                       sample_boundary, sample_microphones,
                       sample_validation_points)
from .marglik import fit_hyperparameters
from .planewaves import (PlaneWaveDictionary, build_phi, build_phi_tilde,
                         build_psi, evaluate_field, fibonacci_directions,
                         wavenumber)
from .simulator import field_at_points, simulate_snapshot

__all__ = [
    "METHODS",
    "SWEEPS",
    "nmse",
    "to_db",
    "ExperimentConfig",
    "RunResult",
    "run_seeds",
    "run_boundary_count_sweep",
    "run_boundary_perturbation_sweep",
    "run_mic_perturbation_sweep",
    "run_frequency_sweep",
    "run_sweeps",
]

logger = logging.getLogger(__name__)

METHODS = ("proposed", "tikhonov", "lasso", "nearest")
SWEEPS = ("boundary_count", "boundary_perturbation", "mic_perturbation",
          "frequency")

TRUTH_FLOOR = 1e-15


def nmse(predictions, truth) -> float:
    """Normalized mean squared error: mean over samples of
    |truth - prediction|^2 / |truth|^2.

    Samples whose true magnitude is below 1e-15 are excluded with a warning
    (the per-sample normalization would blow up).
    """
    pred = np.asarray(predictions, dtype=complex)
    tru = np.asarray(truth, dtype=complex)
    if pred.shape != tru.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {tru.shape}")
    magnitude = np.abs(tru)
    mask = magnitude >= TRUTH_FLOOR
    if not np.all(mask):
        warnings.warn(f"nmse: excluded {int((~mask).sum())} samples with "
                      f"|truth| < {TRUTH_FLOOR:g}")
    if not np.any(mask):
        raise ValueError("no samples with usable truth magnitude")
    err = np.abs(pred - tru)[mask] ** 2 / magnitude[mask] ** 2
    return float(np.mean(err))


def to_db(value: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * float(np.log10(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see configs/default.yaml for the file form."""

    room: RoomSpec
    speed_of_sound: float = 343.0
    frequency_hz: float = 300.0
    snr_db: float = 20.0
    max_image_order: int = 80
    mic_count: int = 100
    validation_count: int = 20
    exclusion_radius: float = 0.5
    plane_wave_count: int = 1000
    boundary_count: int = 1000
    boundary_counts: tuple = (0, 10, 30, 100, 300, 1000)
    boundary_perturbations: tuple = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    mic_perturbations: tuple = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
    frequencies_hz: tuple = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 800.0)
    monte_carlo_runs: int = 10
    methods: tuple = METHODS
    master_seed: int = 20240901
    max_line_searches: int = 100
    lasso_grid_size: int = 20
    lasso_folds: int = 5
    lasso_mode: str = "per_run"
    shared_perturbation: bool = False

    def __post_init__(self):
        if self.monte_carlo_runs < 1:
            raise ValueError("monte_carlo_runs must be >= 1")
        for name in ("mic_count", "validation_count", "plane_wave_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.lasso_mode not in ("per_run", "global"):
            raise ValueError("lasso_mode must be 'per_run' or 'global'")


@dataclass
class RunResult:
    """Aggregated Monte-Carlo result for one (sweep value, method) cell."""

    sweep: str
    method: str
    value: float
    nmse_per_run: list = field(default_factory=list)
    seconds_per_run: list = field(default_factory=list)

    @property
    def nmse_linear(self) -> float:
        runs = np.asarray(self.nmse_per_run, dtype=float)
        if np.all(np.isnan(runs)):
            return float("nan")
        return float(np.nanmean(runs))

    @property
    def nmse_db(self) -> float:
        return to_db(self.nmse_linear)

    @property
    def seconds(self) -> float:
        return float(np.sum(self.seconds_per_run))


_SEED_KEYS = ("microphones", "validation", "boundary", "noise",
              "boundary_perturbation", "mic_perturbation", "lasso_cv")


def run_seeds(master_seed: int, run: int) -> dict:
    """Per-run seeds for each randomness source, derived from
    (master_seed, run) so runs are identical across sweeps."""
    state = np.random.SeedSequence([int(master_seed), int(run)]).generate_state(
        len(_SEED_KEYS))
    return {key: int(value) for key, value in zip(_SEED_KEYS, state)}


@dataclass
class _RunData:
    run: int
    seeds: dict
    mics: MicArray
    validation: MicArray
    cloud: BoundaryCloud
    y: np.ndarray
    noise_variance: float
    truth: np.ndarray
    dictionary: PlaneWaveDictionary


def _make_run(cfg: ExperimentConfig, run: int, frequency_hz: float,
              boundary_count: int) -> _RunData:
    seeds = run_seeds(cfg.master_seed, run)
    mics = sample_microphones(cfg.room, cfg.mic_count, None,
                              cfg.exclusion_radius, seeds["microphones"])
    validation = sample_validation_points(cfg.room, cfg.validation_count, None,
                                          cfg.exclusion_radius,
                                          seeds["validation"])
    cloud = (sample_boundary(cfg.room, boundary_count, seeds["boundary"])
             if boundary_count else BoundaryCloud.empty())
    snapshot = simulate_snapshot(cfg.room, mics, frequency_hz,
                                 cfg.speed_of_sound, cfg.snr_db,
                                 cfg.max_image_order, seeds["noise"])
    k = wavenumber(frequency_hz, cfg.speed_of_sound)
    truth = field_at_points(cfg.room, validation.positions, k,
                            cfg.max_image_order)
    dictionary = PlaneWaveDictionary(k, fibonacci_directions(cfg.plane_wave_count))
    return _RunData(run, seeds, mics, validation, cloud, snapshot.noisy,
                    snapshot.noise_variance, truth, dictionary)


def _reconstruct(method: str, data: _RunData, cfg: ExperimentConfig,
                 assumed_mics: np.ndarray, prior_cloud: BoundaryCloud,
                 lasso_penalty: float | None = None) -> np.ndarray:
    """Field prediction of one method at the validation points."""
    dictionary = data.dictionary
    targets = data.validation.positions
    if method == "nearest":
        return nearest_neighbor(assumed_mics, data.y, targets)

    phi = build_phi(dictionary, assumed_mics)
    if method == "proposed":
        psi = build_psi(dictionary, prior_cloud)
        phi_tilde = build_phi_tilde(dictionary, prior_cloud)
        fit = fit_hyperparameters(data.y, phi, psi, phi_tilde,
                                  max_line_searches=cfg.max_line_searches)
        prior = prior_covariance_from_matrices(psi, phi_tilde,
                                               fit.hyperparameters)
        posterior = build_posterior(data.y, phi, prior, fit.hyperparameters,
                                    dictionary)
        mean, _ = predict(posterior, targets)
        return mean
    if method == "tikhonov":
        empty = np.zeros((0, dictionary.size), dtype=complex)
        fit = fit_hyperparameters(data.y, phi, empty, empty,
                                  max_line_searches=cfg.max_line_searches)
        hp = fit.hyperparameters
        alpha = tikhonov(data.y, phi, hp.noise_variance, hp.prior_variance)
        return evaluate_field(dictionary, alpha, targets)
    if method == "lasso":
        penalty = lasso_penalty
        if penalty is None:
            penalty = _select_lasso_penalty(cfg, data, phi)
        fit = lasso(data.y, phi, data.noise_variance, LassoConfig(penalty))
        return evaluate_field(dictionary, fit.coefficients, targets)
    raise ValueError(f"unknown method '{method}'")


def _timed_nmse(method, data, cfg, assumed_mics, prior_cloud,
                lasso_penalty=None):
    start = time.perf_counter()
    try:
        prediction = _reconstruct(method, data, cfg, assumed_mics,
                                  prior_cloud, lasso_penalty)
        error = nmse(prediction, data.truth)
    except Exception:
        logger.warning("run %d: method '%s' failed", data.run, method,
                       exc_info=True)
        error = float("nan")
    return error, time.perf_counter() - start


class _Table:
    """Accumulates (value, method) cells in the deterministic output order."""

    def __init__(self, sweep: str, values, methods, runs: int):
        self._order = [(float(v), m) for v in values for m in methods]
        self.cells = {key: RunResult(sweep, key[1], key[0],
                                     [float("nan")] * runs, [0.0] * runs)
                      for key in self._order}

    def record(self, value, method, run, error, seconds):
        cell = self.cells[(float(value), method)]
        cell.nmse_per_run[run] = error
        cell.seconds_per_run[run] = seconds

    def rows(self):
        return [self.cells[key] for key in self._order]


def _select_lasso_penalty(cfg: ExperimentConfig, data: _RunData,
                          phi: np.ndarray) -> float:
    """Cross-validated lasso penalty over a `lasso_grid_size`-point grid."""
    grid = default_lambda_grid(data.y, phi, data.noise_variance,
                               cfg.lasso_grid_size)
    return select_lambda(data.y, phi, data.noise_variance, grid=grid,
                         folds=cfg.lasso_folds, seed=data.seeds["lasso_cv"])


def _global_lasso_penalty(cfg: ExperimentConfig, data: _RunData,
                          assumed_mics: np.ndarray) -> float:
    phi = build_phi(data.dictionary, assumed_mics)
    return _select_lasso_penalty(cfg, data, phi)


def run_boundary_count_sweep(cfg: ExperimentConfig) -> list:
    """NMSE as the number of boundary points grows; only the boundary-aware
    method is refit per count, the baselines are count-independent."""
    values = tuple(int(b) for b in cfg.boundary_counts)
    table = _Table("boundary_count", values, cfg.methods, cfg.monte_carlo_runs)
    b_max = max(values)
    lasso_penalty = None
    for run in range(cfg.monte_carlo_runs):
        data = _make_run(cfg, run, cfg.frequency_hz, b_max)
        if "lasso" in cfg.methods and cfg.lasso_mode == "global":
            if lasso_penalty is None:
                lasso_penalty = _global_lasso_penalty(cfg, data,
                                                      data.mics.positions)
        baseline = {}
        for method in cfg.methods:
            if method == "proposed":
                continue
            baseline[method] = _timed_nmse(method, data, cfg,
                                           data.mics.positions, data.cloud,
                                           lasso_penalty)
        for count in values:
            for method in cfg.methods:
                if method == "proposed":
                    error, seconds = _timed_nmse(
                        method, data, cfg, data.mics.positions,
                        data.cloud.subset(count))
                else:
                    error, seconds = baseline[method]
                table.record(count, method, run, error, seconds)
    return table.rows()


def run_boundary_perturbation_sweep(cfg: ExperimentConfig) -> list:
    """Boundary cloud displaced before fitting; the simulation keeps the true
    geometry. Perturbation directions are shared across magnitudes within a
    run, so the sweep is paired in the magnitude as well."""
    values = tuple(float(v) for v in cfg.boundary_perturbations)
    table = _Table("boundary_perturbation", values, cfg.methods,
                   cfg.monte_carlo_runs)
    lasso_penalty = None
    for run in range(cfg.monte_carlo_runs):
        data = _make_run(cfg, run, cfg.frequency_hz, cfg.boundary_count)
        if "lasso" in cfg.methods and cfg.lasso_mode == "global":
            if lasso_penalty is None:
                lasso_penalty = _global_lasso_penalty(cfg, data,
                                                      data.mics.positions)
        baseline = {}
        for method in cfg.methods:
            if method == "proposed":
                continue
            baseline[method] = _timed_nmse(method, data, cfg,
                                           data.mics.positions, data.cloud,
                                           lasso_penalty)
        for magnitude in values:
            points = perturb_positions(data.cloud.points, magnitude,
                                       data.seeds["boundary_perturbation"],
                                       cfg.shared_perturbation)
            perturbed = BoundaryCloud(points, data.cloud.normals)
            for method in cfg.methods:
                if method == "proposed":
                    error, seconds = _timed_nmse(method, data, cfg,
                                                 data.mics.positions,
                                                 perturbed)
                else:
                    error, seconds = baseline[method]
                table.record(magnitude, method, run, error, seconds)
    return table.rows()


def run_mic_perturbation_sweep(cfg: ExperimentConfig) -> list:
    """Reconstruction assumes displaced microphone positions; simulation and
    validation stay at the true geometry. Every method is refit since the
    assumed positions enter each of them."""
    values = tuple(float(v) for v in cfg.mic_perturbations)
    table = _Table("mic_perturbation", values, cfg.methods,
                   cfg.monte_carlo_runs)
    lasso_penalty = None
    for run in range(cfg.monte_carlo_runs):
        data = _make_run(cfg, run, cfg.frequency_hz, cfg.boundary_count)
        if "lasso" in cfg.methods and cfg.lasso_mode == "global":
            if lasso_penalty is None:
                lasso_penalty = _global_lasso_penalty(cfg, data,
                                                      data.mics.positions)
        for magnitude in values:
            assumed = perturb_positions(data.mics.positions, magnitude,
                                        data.seeds["mic_perturbation"],
                                        cfg.shared_perturbation)
            for method in cfg.methods:
                error, seconds = _timed_nmse(method, data, cfg, assumed,
                                             data.cloud, lasso_penalty)
                table.record(magnitude, method, run, error, seconds)
    return table.rows()


def run_frequency_sweep(cfg: ExperimentConfig) -> list:
    """Full pipeline per frequency; the wavenumber, dictionary, snapshot and
    truth are rebuilt while the room geometry stays fixed per run."""
    values = tuple(float(f) for f in cfg.frequencies_hz)
    table = _Table("frequency", values, cfg.methods, cfg.monte_carlo_runs)
    penalties = {}
    for run in range(cfg.monte_carlo_runs):
        for frequency in values:
            data = _make_run(cfg, run, frequency, cfg.boundary_count)
            lasso_penalty = None
            if "lasso" in cfg.methods and cfg.lasso_mode == "global":
                if frequency not in penalties:
                    penalties[frequency] = _global_lasso_penalty(
                        cfg, data, data.mics.positions)
                lasso_penalty = penalties[frequency]
            for method in cfg.methods:
                error, seconds = _timed_nmse(method, data, cfg,
                                             data.mics.positions, data.cloud,
                                             lasso_penalty)
                table.record(frequency, method, run, error, seconds)
    return table.rows()


_SWEEP_RUNNERS = {
    "boundary_count": run_boundary_count_sweep,
    "boundary_perturbation": run_boundary_perturbation_sweep,
    "mic_perturbation": run_mic_perturbation_sweep,
    "frequency": run_frequency_sweep,
}


def run_sweeps(cfg: ExperimentConfig, sweeps=None) -> dict:
    """Run the requested sweeps (default: all four) and return
    {sweep name: list of RunResult}."""
    chosen = SWEEPS if sweeps is None else tuple(sweeps)
    unknown = set(chosen) - set(SWEEPS)
    if unknown:
        raise ValueError(f"unknown sweeps: {sorted(unknown)}")
    return {name: _SWEEP_RUNNERS[name](cfg) for name in chosen}
