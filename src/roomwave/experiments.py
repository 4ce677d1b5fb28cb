"""Monte-Carlo benchmark harness: the NMSE metric, the proposed method's
fit-and-predict chain, and one driver for the four sweeps.

What each sweep varies in the geometry or measurement:
  boundary_count         size of the prior cloud (a prefix of one cloud
                         sampled at the largest swept count)
  boundary_perturbation  displacement of the prior cloud
  mic_perturbation       displacement of the microphone positions the
                         methods assume
  frequency              the frequency: wavenumber, dictionary, snapshot and
                         truth

The perturbation sweeps displace each point by the swept magnitude along its
own random direction. Every lasso fit cross-validates its own penalty over
the microphones it assumes.

Each (sweep, value) is a case: the configured cloud size, cloud
displacement, microphone displacement and frequency, with the swept one
replaced, plus the size of the sampled cloud. The driver runs the
Monte-Carlo runs outermost. Within a run it builds one measurement per
(frequency, sampled cloud size) and fits each method once per distinct value
of what that method reads: the whole case for the proposed method, the
microphone displacement and frequency for the baselines. Cases that agree
there, in one sweep or across sweeps, share the fit and its (nmse, seconds)
pair. A displacement of 0.0 returns the sampled positions bit for bit, so
every case goes through the same path.

Within a run, every method sees the same noise realization and geometry, so
method comparisons are paired; seeds are derived from (master_seed, run)
only, which makes each run identical across sweeps and sweep values. A run
holds its measurement as one `SimSnapshot` (microphone positions, noisy
values, noise variance); the methods read it from there.

Runs are independent, so the driver spreads them over one process per CPU in
this process's affinity mask (at most one per run), each on one BLAS thread
(spawned children inherit the thread variables; see the package docstring).
This process runs the first share of the runs while the others are mapped
over spawned children, which start about 0.4 s late (each imports numpy and
scipy again); this process's share is rounded up for that. Under
`taskset -c 0`, or with one run, every run happens in this process and no
child is started. The NMSE values do not depend on which process ran a run.
Each run holds back its warnings and `roomwave` log records, and the driver
emits them in run order once the runs are done, so the output matches a
serial run. Results are read in run order: at the first run that raised, the
runs not yet started are cancelled and its exception propagates (from a
child, without the child's traceback; `taskset -c 0` gives the full one). A
child that dies raises `BrokenProcessPool`. A script that calls `run_sweeps`
with more than one CPU needs the `if __name__ == "__main__":` guard, since
spawned children import the main module; a module attribute patched here
applies to this process's share of the runs only.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
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
        # +inf is a noiseless snapshot; below about -3082.5 dB the noise
        # ratio 10^(-snr_db/10) overflows a float
        if not -self.snr_db / 10.0 < math.log10(np.finfo(float).max):
            raise ValueError("snr_db must be inf or a number whose noise ratio "
                             "10^(-snr_db/10) is a finite float")


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

    One call peaks in the marginal-likelihood precompute, which holds Phi,
    Psi, PhiTilde, one conjugated block of `marglik.GRAM_BLOCK` rows, the
    (4, B, B) Gram stack (64 MB at default size) and the two (B, M) cross
    products.
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
                 assumed_mics: np.ndarray, prior_cloud: BoundaryCloud,
                 mic_shift: float) -> np.ndarray:
    """Field prediction of one method at the validation points, from
    microphones assumed `mic_shift` m from where they are."""
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
        penalty = select_lambda(
            y, phi, noise_variance, grid, cfg.lasso_folds,
            data.seeds["lasso_cv"],
            label=(f"run {data.run} at {data.snapshot.frequency_hz:g} Hz, "
                   f"microphones shifted {mic_shift:g} m"))
        fit = lasso(y, phi, noise_variance, penalty)
        if not fit.converged:
            # its result then depends on where FISTA stopped
            logger.warning("run %d: final lasso fit at penalty %r did not "
                           "converge in %d iterations", data.run, penalty,
                           fit.n_iterations)
        return evaluate_field(dictionary, fit.coefficients, targets)
    raise ValueError(f"unknown method '{method}'")


def _timed_nmse(method, data, cfg, assumed_mics, prior_cloud, mic_shift):
    start = time.perf_counter()
    try:
        prediction = _reconstruct(method, data, cfg, assumed_mics,
                                  prior_cloud, mic_shift)
        error = nmse(prediction, data.truth)
    except Exception:
        logger.warning("run %d: method '%s' failed", data.run, method,
                       exc_info=True)
        error = float("nan")
    return error, time.perf_counter() - start


def _fit_key(method: str, case: tuple) -> tuple:
    """What a method's fit reads of a case: all of it for the proposed
    method, the microphone displacement and frequency for the baselines."""
    return (method, *(case if method == "proposed" else case[2:4]))


class _EventLog(logging.Handler):
    """Appends each record to a list, its traceback formatted into
    `exc_text`, because a traceback does not pickle."""

    def __init__(self, events: list):
        super().__init__()
        self.events = events

    def emit(self, record):
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(
                record.exc_info)
            record.exc_info = None
        self.events.append(record)


@contextlib.contextmanager
def _held_back():
    """Hold back every warning and every record of a `roomwave` logger
    emitted inside the block; yields the list that gets them in order.
    Warnings are recorded whatever the filters, so a run's results do not
    depend on them; `_replay` applies them."""
    package = logging.getLogger(__package__)
    with warnings.catch_warnings(record=True) as events:
        warnings.simplefilter("always")
        handler = _EventLog(events)
        package.addHandler(handler)
        propagate, package.propagate = package.propagate, False
        try:
            yield events
        finally:
            package.removeHandler(handler)
            package.propagate = propagate


def _replay(event, registry: dict):
    """Emit a held-back record through its logger, or a held-back warning
    through this process's warning filters, with `registry` as the record
    of warnings already shown."""
    if isinstance(event, logging.LogRecord):
        logging.getLogger(event.name).handle(event)
    else:
        warnings.warn_explicit(event.message, event.category, event.filename,
                               event.lineno, registry=registry)


def _one_run(cfg: ExperimentConfig, cases: list, run: int) -> tuple:
    """Run `run` of every case: ({fit key: (nmse, seconds)}, the warnings
    and log records it emitted, in order, and the exception that ended it,
    or None)."""
    build = functools.cache(functools.partial(_make_run, cfg, run))
    fitted = {}
    with _held_back() as events:
        try:
            for case in cases:
                size, cloud_shift, mic_shift, frequency, sampled = case
                for method in cfg.methods:
                    key = _fit_key(method, case)
                    if key in fitted:
                        continue
                    data = build(frequency, sampled)
                    seeds, cloud = data.seeds, data.cloud.subset(size)
                    mics = perturb_positions(data.snapshot.mics, mic_shift,
                                             seeds["mic_perturbation"])
                    cloud = BoundaryCloud(
                        perturb_positions(cloud.points, cloud_shift,
                                          seeds["boundary_perturbation"]),
                        cloud.normals)
                    fitted[key] = _timed_nmse(method, data, cfg, mics, cloud,
                                              mic_shift)
        except Exception as exc:
            return fitted, events, exc
    return fitted, events, None


def _worker_count(runs: int) -> int:
    """Processes to spread `runs` runs over: one per CPU in this process's
    affinity mask, at most one per run."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask outside Linux
        cpus = os.cpu_count() or 1
    return min(runs, cpus)


def _run_all(cfg: ExperimentConfig, cases: list, workers: int) -> list:
    """`_one_run`'s result of each run, in run order, up to the first that
    holds an exception. This process runs the first ceil(runs / `workers`)
    runs; the others go to the `map` of `workers` - 1 spawned children,
    which start late by their imports. The map is closed at the first
    failure, so that the runs not yet started are cancelled; a run that
    fails while an earlier one is still going does not stop the children
    until that earlier one is read, so a failing benchmark takes longer,
    but its outcome is the same."""
    one_run = functools.partial(_one_run, cfg, cases)
    runs = range(cfg.monte_carlo_runs)
    mine = -(-len(runs) // workers)
    with contextlib.ExitStack() as stack:
        theirs = ()
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                workers - 1, mp_context=multiprocessing.get_context("spawn")))
            theirs = stack.enter_context(
                contextlib.closing(pool.map(one_run, runs[mine:])))
        done = []
        for outcome in itertools.chain(map(one_run, runs[:mine]), theirs):
            done.append(outcome)
            if outcome[2] is not None:
                break
        return done


def run_sweeps(cfg: ExperimentConfig) -> dict:
    """Run `cfg.sweeps` and return {sweep name: list of RunResult}, one row
    per listed (value, method) in that order.

    A case holds one coordinate per sweep, in SWEEPS order (cloud size,
    cloud displacement, microphone displacement, frequency), then the
    sampled cloud size: the largest swept count in the boundary-count sweep,
    `cfg.boundary_count` elsewhere. Runs are the outer loop, spread over
    processes as the module docstring says. Within a run, a measurement is
    built once per (frequency, sampled size), and a method is fit once per
    distinct value of the coordinates it reads: all of them for the
    proposed method, the microphone displacement and frequency for the
    baselines. Every case that shares a fit, in any sweep, records its
    (nmse, seconds) pair.
    """
    runs = cfg.monte_carlo_runs
    results, cases = {}, []
    for sweep in cfg.sweeps:
        values = [int(v) if sweep == "boundary_count" else float(v)
                  for v in getattr(cfg, _SWEEP_VALUES[sweep])]
        # a value listed twice shares one cell and gets one row per listing
        cells = {(v, m): RunResult(sweep, m, float(v), [math.nan] * runs,
                                   [0.0] * runs)
                 for v in values for m in cfg.methods}
        results[sweep] = [cells[(v, m)] for v in values for m in cfg.methods]
        sampled = (max(values) if sweep == "boundary_count"
                   else cfg.boundary_count)
        for value in values:
            case = [cfg.boundary_count, 0.0, 0.0, cfg.frequency_hz, sampled]
            case[SWEEPS.index(sweep)] = value
            cases.append((tuple(case), [(m, cells[(value, m)])
                                        for m in cfg.methods]))
    outcomes = _run_all(cfg, [case for case, _ in cases],
                        _worker_count(runs))
    shown = {}      # warnings shown, for the filters' `default` action
    for run, (fitted, events, error) in enumerate(outcomes):
        for event in events:
            _replay(event, shown)
        if error is not None:
            raise error
        for case, row in cases:
            for method, cell in row:
                cell.nmse_per_run[run], cell.seconds_per_run[run] = (
                    fitted[_fit_key(method, case)])
    return results
