"""Monte-Carlo benchmark harness: the NMSE metric, the proposed method's
fit-and-predict chain, and one driver for the four sweeps.

What each sweep varies, and which methods it refits per value:
  boundary_count         size of the prior cloud (a prefix of one sampled
                         cloud); only the proposed method is refit
  boundary_perturbation  displacement of the prior cloud; only the proposed
                         method is refit
  mic_perturbation       displacement of the microphone positions the
                         methods assume; every method is refit
  frequency              the frequency: wavenumber, dictionary, snapshot and
                         truth are rebuilt; every method is refit

The perturbation sweeps displace each point by the swept magnitude along its
own random direction. Every lasso fit cross-validates its own penalty over
the microphones it assumes.

Within a run, every method sees the same noise realization and geometry, so
method comparisons are paired; seeds are derived from (master_seed, run)
only, which makes each run identical across sweeps and sweep values. A run
holds its measurement as one `SimSnapshot` (microphone positions, noisy
values, noise variance); the methods read it from there.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import (CV_GRID_SIZE, default_lambda_grid, lasso,
                        nearest_neighbor, select_lambda, tikhonov)
from .bayes import build_posterior, predict, prior_covariance_from_matrices
from .geometry import (BoundaryCloud, RoomSpec, perturb_positions,
                       sample_boundary, sample_microphones,
                       sample_validation_points)
from .marglik import fit_hyperparameters, to_hyperparameters
from .planewaves import (PlaneWaveDictionary, build_phi, build_phi_tilde,
                         build_psi, evaluate_field, fibonacci_directions,
                         wavenumber)
from .simulator import SimSnapshot, field_at_points, simulate_snapshot

__all__ = [
    "METHODS",
    "SWEEPS",
    "nmse",
    "to_db",
    "ExperimentConfig",
    "RunResult",
    "run_seeds",
    "draw_run",
    "fit_and_predict",
    "run_sweeps",
]

logger = logging.getLogger(__name__)

METHODS = ("proposed", "tikhonov", "lasso", "nearest")
SWEEPS = ("boundary_count", "boundary_perturbation", "mic_perturbation",
          "frequency")
# the ExperimentConfig field that holds each sweep's values
_SWEEP_VALUES = {"boundary_count": "boundary_counts",
                 "boundary_perturbation": "boundary_perturbations",
                 "mic_perturbation": "mic_perturbations",
                 "frequency": "frequencies_hz"}

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
    if not np.any(mask):
        raise ValueError("no samples with usable truth magnitude")
    if not np.all(mask):
        warnings.warn(f"nmse: excluded {int((~mask).sum())} samples with "
                      f"|truth| < {TRUTH_FLOOR:g}")
    err = np.abs(pred - tru)[mask] ** 2 / magnitude[mask] ** 2
    return float(np.mean(err))


def to_db(value: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * float(np.log10(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of the CLI and the sweeps, with its one default; see
    configs/default.yaml for the file form and config._SCHEMA for the key
    that sets each field."""

    room: RoomSpec = field(default_factory=RoomSpec)
    speed_of_sound: float = 343.0
    frequency_hz: float = 300.0
    snr_db: float = 20.0    # inf is noiseless; the lasso needs a finite SNR
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
    sweeps: tuple = SWEEPS
    master_seed: int = 20240901
    max_line_searches: int = 100
    lasso_folds: int = 5
    reconstruct_points: str | None = None   # file of prediction points (x y z)

    def __post_init__(self):
        for name in ("monte_carlo_runs", "mic_count", "validation_count",
                     "plane_wave_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 2 <= self.lasso_folds <= self.mic_count:
            raise ValueError(f"lasso_folds must be in 2..{self.mic_count}")
        for name in ("max_image_order", "max_line_searches"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.master_seed < 0:    # np.random.SeedSequence needs >= 0
            raise ValueError("seed must be >= 0")
        if min((self.boundary_count, *self.boundary_counts)) < 0:
            raise ValueError("boundary counts must be >= 0")
        for name, known in (("methods", METHODS), ("sweeps", SWEEPS)):
            unknown = set(getattr(self, name)) - set(known)
            if unknown:
                raise ValueError(f"unknown {name}: {sorted(unknown)}")
        empty = [_SWEEP_VALUES[s] for s in self.sweeps
                 if not getattr(self, _SWEEP_VALUES[s])]
        if empty:
            raise ValueError(f"no values to sweep in {empty}")
        if self.sweeps and not self.methods:
            raise ValueError("no methods to run in the chosen sweeps")
        # written as `not a < x < b` so that NaN fails too
        for name, values in (("speed_of_sound", (self.speed_of_sound,)),
                             ("frequency_hz", (self.frequency_hz,)),
                             ("frequencies_hz", self.frequencies_hz),
                             ("exclusion_radius", (self.exclusion_radius,))):
            if not all(0.0 < v < math.inf for v in values):
                raise ValueError(f"{name} must be positive and finite")
        # microphones are drawn outside, and validation points inside, the
        # ball of this radius around the microphone-half centroid; a larger
        # ball leaves the half-room, so validation points fall outside it
        lx, ly, lz = self.room.dimensions
        half_room = min(lx / 4, ly / 2, lz / 2)
        if self.exclusion_radius > half_room:
            raise ValueError(f"exclusion_radius must be <= {half_room:g}, the "
                             "largest ball inside the microphone half-room")
        for name in ("boundary_perturbations", "mic_perturbations"):
            if not all(0.0 <= v < math.inf for v in getattr(self, name)):
                raise ValueError(f"{name} must be >= 0 and finite")
        if not self.snr_db > -math.inf:     # +inf is a noiseless snapshot
            raise ValueError("snr_db must be a number or inf")


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
    def failed(self) -> int:
        """Runs whose reconstruction failed (NaN NMSE), which the mean
        leaves out."""
        return int(np.isnan(np.asarray(self.nmse_per_run, dtype=float)).sum())


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
    snapshot: SimSnapshot
    validation: np.ndarray
    cloud: BoundaryCloud
    truth: np.ndarray
    dictionary: PlaneWaveDictionary


def draw_run(cfg: ExperimentConfig, run: int, frequency_hz: float,
             boundary_count: int) -> tuple:
    """The measured side of one run: (seeds, boundary cloud, snapshot at
    `frequency_hz`, which holds the microphones). The cloud is empty for a
    zero count."""
    seeds = run_seeds(cfg.master_seed, run)
    mics = sample_microphones(cfg.room, cfg.mic_count, cfg.exclusion_radius,
                              seeds["microphones"])
    cloud = sample_boundary(cfg.room, boundary_count, seeds["boundary"])
    snapshot = simulate_snapshot(cfg.room, mics, frequency_hz,
                                 cfg.speed_of_sound, cfg.snr_db,
                                 cfg.max_image_order, seeds["noise"])
    return seeds, cloud, snapshot


def _make_run(cfg: ExperimentConfig, run: int, frequency_hz: float,
              boundary_count: int) -> _RunData:
    seeds, cloud, snapshot = draw_run(cfg, run, frequency_hz, boundary_count)
    validation = sample_validation_points(cfg.room, cfg.validation_count,
                                          cfg.exclusion_radius,
                                          seeds["validation"])
    k = wavenumber(frequency_hz, cfg.speed_of_sound)
    truth = field_at_points(cfg.room, validation, k, cfg.max_image_order)
    dictionary = PlaneWaveDictionary(k, fibonacci_directions(cfg.plane_wave_count))
    return _RunData(run, seeds, snapshot, validation, cloud, truth, dictionary)


def fit_and_predict(y, dictionary: PlaneWaveDictionary, mics: np.ndarray,
                    cloud: BoundaryCloud, targets, max_line_searches: int):
    """The proposed method: fit the hyperparameters by marginal likelihood,
    then predict the field at `targets` from the boundary-informed posterior.

    Returns (fit, predictive mean, predictive variance).

    Psi and PhiTilde are built twice, each time passed straight into the one
    call that reads them, so neither is alive while the optimizer runs: at
    default size (P = B = 1000) they are 32 MB. The prior drops them once G
    is formed, so they are freed before G G^H as well. The builders are
    deterministic, so the prior sees the arrays the fit saw, bit for bit, at
    the cost of a second build.

    At default size (M = 100, 3 line searches) one call peaks at 102.0 MB
    traced, in the marginal-likelihood precompute: Phi, Psi, PhiTilde, one
    conjugated block of `marglik.GRAM_BLOCK` rows, the 64 MB Gram stack and
    the two (B, M) cross products. The prior stage peaks at 49.6 MB.
    """
    phi = build_phi(dictionary, mics)
    fit = fit_hyperparameters(y, phi, build_psi(dictionary, cloud),
                              build_phi_tilde(dictionary, cloud),
                              max_line_searches=max_line_searches)
    hp = to_hyperparameters(fit.x)
    prior = prior_covariance_from_matrices(build_psi(dictionary, cloud),
                                           build_phi_tilde(dictionary, cloud),
                                           hp)
    posterior = build_posterior(y, phi, prior, hp, dictionary)
    mean, variance = predict(posterior, targets)
    return fit, mean, variance


def _reconstruct(method: str, data: _RunData, cfg: ExperimentConfig,
                 assumed_mics: np.ndarray,
                 prior_cloud: BoundaryCloud) -> np.ndarray:
    """Field prediction of one method at the validation points."""
    dictionary = data.dictionary
    targets = data.validation
    y, noise_variance = data.snapshot.noisy, data.snapshot.noise_variance
    if method == "nearest":
        return nearest_neighbor(assumed_mics, y, targets)
    if method == "proposed":
        return fit_and_predict(y, dictionary, assumed_mics, prior_cloud,
                               targets, cfg.max_line_searches)[1]

    phi = build_phi(dictionary, assumed_mics)
    if method == "tikhonov":
        empty = np.zeros((0, dictionary.size), dtype=complex)
        fit = fit_hyperparameters(y, phi, empty, empty,
                                  max_line_searches=cfg.max_line_searches)
        hp = to_hyperparameters(fit.x)
        alpha = tikhonov(y, phi, hp.noise_variance, hp.prior_variance)
        return evaluate_field(dictionary, alpha, targets)
    if method == "lasso":
        grid = default_lambda_grid(y, phi, noise_variance, CV_GRID_SIZE)
        penalty = select_lambda(y, phi, noise_variance, grid, cfg.lasso_folds,
                                data.seeds["lasso_cv"])
        fit = lasso(y, phi, noise_variance, penalty)
        if not fit.converged:
            # its result then depends on where FISTA stopped
            logger.warning("run %d: final lasso fit at penalty %r did not "
                           "converge in %d iterations", data.run, penalty,
                           fit.n_iterations)
        return evaluate_field(dictionary, fit.coefficients, targets)
    raise ValueError(f"unknown method '{method}'")


def _timed_nmse(method, data, cfg, assumed_mics, prior_cloud):
    start = time.perf_counter()
    try:
        prediction = _reconstruct(method, data, cfg, assumed_mics, prior_cloud)
        error = nmse(prediction, data.truth)
    except Exception:
        logger.warning("run %d: method '%s' failed", data.run, method,
                       exc_info=True)
        error = float("nan")
    return error, time.perf_counter() - start


def _assumed_geometry(sweep: str, value, data: _RunData) -> tuple:
    """Microphone positions and prior cloud the methods assume at one value
    of `sweep`; the simulation always keeps the true geometry."""
    mics, cloud = data.snapshot.mics, data.cloud
    if sweep == "boundary_count":
        cloud = cloud.subset(value)
    elif sweep == "boundary_perturbation":
        points = perturb_positions(cloud.points, value,
                                   data.seeds["boundary_perturbation"])
        cloud = BoundaryCloud(points, cloud.normals)
    elif sweep == "mic_perturbation":
        mics = perturb_positions(mics, value, data.seeds["mic_perturbation"])
    return mics, cloud


def _run_sweep(cfg: ExperimentConfig, sweep: str) -> list:
    """One sweep: for every run, every value, every method.

    A frequency value rebuilds the run; any other value only changes the
    geometry the methods assume. When only the prior cloud changes (the two
    boundary sweeps), the baselines are fit once per run and their
    (nmse, seconds) pair is recorded under every value. The lasso penalty
    is cross-validated in every fit, from Phi at the microphone positions
    that fit assumes.
    """
    values = tuple(int(v) if sweep == "boundary_count" else float(v)
                   for v in getattr(cfg, _SWEEP_VALUES[sweep]))
    boundary_count = (max(values) if sweep == "boundary_count"
                      else cfg.boundary_count)
    cloud_only = sweep in ("boundary_count", "boundary_perturbation")
    runs = cfg.monte_carlo_runs
    # a value listed twice shares one cell and gets one row per listing
    cells = {(v, m): RunResult(sweep, m, float(v), [math.nan] * runs,
                               [0.0] * runs)
             for v in values for m in cfg.methods}
    for run in range(runs):
        data = None
        fitted = {}
        for value in values:
            frequency = value if sweep == "frequency" else cfg.frequency_hz
            if data is None or sweep == "frequency":
                data = _make_run(cfg, run, frequency, boundary_count)
            mics, cloud = _assumed_geometry(sweep, value, data)
            for method in cfg.methods:
                key = (method if cloud_only and method != "proposed"
                       else (method, value))
                if key not in fitted:
                    fitted[key] = _timed_nmse(method, data, cfg, mics, cloud)
                error, seconds = fitted[key]
                cells[(value, method)].nmse_per_run[run] = error
                cells[(value, method)].seconds_per_run[run] = seconds
    return [cells[(v, m)] for v in values for m in cfg.methods]


def run_sweeps(cfg: ExperimentConfig) -> dict:
    """Run `cfg.sweeps` and return {sweep name: list of RunResult}."""
    return {name: _run_sweep(cfg, name) for name in cfg.sweeps}
