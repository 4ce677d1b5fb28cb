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
replaced, plus the size of the sampled cloud. In the driver's serial
order the Monte-Carlo runs are outermost. Within a run it builds one
measurement per (frequency, sampled cloud size) and fits each method once
per distinct value of what that method reads: the whole case for the
proposed method, the microphone displacement and frequency for the
baselines. Cases that agree
there, in one sweep or across sweeps, share the fit and its (nmse, seconds)
pair. A displacement of 0.0 returns the sampled positions bit for bit, so
every case goes through the same path.

Within a run, every method sees the same noise realization and geometry, so
method comparisons are paired; seeds are derived from (master_seed, run)
only, which makes each run identical across sweeps and sweep values. A run
holds its measurement as one `SimSnapshot` (microphone positions, noisy
values, noise variance); the methods read it from there.

The driver spreads the work over one process per CPU in this process's
affinity mask, at most one per distinct fit, each on one BLAS thread (see
the package docstring), in two phases. First it builds every run's
measurements, each once; then it hands out every distinct fit with its
measurement, longest first: the proposed method at the largest cloud size,
the lasso, the other proposed fits by descending cloud size, Tikhonov and
nearest, ties in serial order (run, case, method). This process first fits
the first of each method handed out; after that each task goes to whichever
process is free: this process takes the next one itself, and each child
gets the next one through a thread here that submits it and waits for it,
so that no child holds more than one. The children are forked when this
process has one OS thread, so that no other thread can hold a lock across
the fork, and spawned otherwise (or where the count cannot be read): a
spawned child starts about 0.4 s late, because it imports numpy and scipy
again. Under `taskset -c 0` every task happens in this process and no child
is started. The NMSE values do not depend on which process ran a task. Each
task holds back its warnings and `roomwave` log records, and the driver
emits them in serial order once the tasks are done, a measurement's just
before the first fit that reads it, so the output matches a serial run.
Once a task has failed, no task after it in serial order starts, and the
first failure in serial order propagates after the records before it (from
a child, without the child's traceback; `taskset -c 0` gives the full one).
A child that dies raises `BrokenProcessPool`. A script that calls
`run_sweeps` with more than one CPU needs the `if __name__ == "__main__":`
guard, since spawned children import the main module. A module attribute
patched here reaches forked children but not spawned ones.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import logging
import math
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .baselines import (CV_GRID_SIZE, default_lambda_grid, lasso,
                        nearest_neighbor, select_lambda, tikhonov)
from .bayes import (build_posterior, predict,
                    prior_covariance_from_matrices, target_rows)
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
# how long `_start_method` waits for joined threads to leave the OS count
_THREAD_EXIT_S = 0.05


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

    Psi and PhiTilde are built once, each passed straight into the fit,
    which reads them only in its precompute, so neither is alive while the
    optimizer runs: at default size (P = B = 1000) they are 32 MB. The
    precompute also forms the targets' boundary products, and the posterior
    is read off the fit's evaluator from its own factorization at the
    fitted theta (see `bayes`).

    One call peaks in the marginal-likelihood precompute, which holds Phi,
    Psi, PhiTilde, one conjugated block of `marglik.GRAM_BLOCK` rows, the
    (4, B, B) Gram stack (64 MB at default size), the two (B, M) cross
    products and the two (B, J) target products.
    """
    phi = build_phi(dictionary, mics)
    fit, ml = fit_hyperparameters(y, phi, build_psi(dictionary, cloud),
                                  build_phi_tilde(dictionary, cloud),
                                  max_line_searches,
                                  target_rows(dictionary, targets))
    hp = to_hyperparameters(fit.x)
    prior = prior_covariance_from_matrices(ml, hp)
    posterior = build_posterior(y, prior.mics, hp.noise_variance)
    mean, variance = predict(prior, posterior)
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
        fit, _ = fit_hyperparameters(y, phi, empty, empty,
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


def _held(function, *args) -> tuple:
    """(`function(*args)`, or None if it raised, every warning and every
    record of a `roomwave` logger that it emitted, in order, and the
    exception it raised, or None). Warnings are recorded whatever the
    filters, so a task's results do not depend on them; `_replay` applies
    them."""
    package = logging.getLogger(__package__)
    with warnings.catch_warnings(record=True) as events:
        warnings.simplefilter("always")
        handler = _EventLog(events)
        package.addHandler(handler)
        propagate, package.propagate = package.propagate, False
        try:
            return function(*args), events, None
        except Exception as exc:
            return None, events, exc
        finally:
            package.removeHandler(handler)
            package.propagate = propagate


def _replay(outcome: tuple, registry: dict):
    """Emit the held-back events of a `_held` outcome, each record through
    its logger and each warning through this process's warning filters,
    with `registry` as the record of warnings already shown; then raise its
    exception, or return its value."""
    value, events, error = outcome
    for event in events:
        if isinstance(event, logging.LogRecord):
            logging.getLogger(event.name).handle(event)
        else:
            warnings.warn_explicit(event.message, event.category,
                                   event.filename, event.lineno,
                                   registry=registry)
    if error is not None:
        raise error
    return value


def _fit(cfg: ExperimentConfig, method: str, case: tuple,
         data: _RunData) -> tuple:
    """(nmse, seconds) of `method` on `case`, from the case's measurement."""
    size, cloud_shift, mic_shift = case[:3]
    seeds, cloud = data.seeds, data.cloud.subset(size)
    mics = perturb_positions(data.snapshot.mics, mic_shift,
                             seeds["mic_perturbation"])
    cloud = BoundaryCloud(perturb_positions(cloud.points, cloud_shift,
                                            seeds["boundary_perturbation"]),
                          cloud.normals)
    return _timed_nmse(method, data, cfg, mics, cloud, mic_shift)


def _hand_out_key(method: str, case: tuple, largest: int) -> tuple:
    """Sort key that hands out the longest fits first: the proposed method
    at the `largest` cloud size, then the lasso (cross-validated), the
    other proposed fits by descending cloud size, then Tikhonov and
    nearest. Measured per fit on one CPU, one run of configs/default.yaml:
    proposed at B = 1000 8.9-24.0 s, lasso 2.1-17.9 s, proposed at
    B = 300 1.2 s and B <= 100 at most 0.15 s, Tikhonov at most 0.07 s,
    nearest under 5 ms."""
    if method == "proposed":
        return (0 if case[0] == largest else 2, -case[0])
    return ({"lasso": 1, "tikhonov": 3, "nearest": 4}[method], 0)


def _worker_count(tasks: int) -> int:
    """Processes to spread `tasks` tasks over: one per CPU in this process's
    affinity mask, at most one per task."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask outside Linux
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


def _start_method() -> str:
    """`fork` when the OS reports one thread in this process, `spawn` when
    it reports more (native BLAS threads count too) or cannot be read (no
    `/proc`). A thread that `threading` has joined stays in the OS count
    until it has exited, up to 5 ms after a pool's shutdown as measured on
    a 2-vCPU VM, so while `threading` sees this thread alone the count is
    read again for up to `_THREAD_EXIT_S`; a process whose other threads
    are all native waits that long before it spawns."""
    deadline = time.monotonic() + _THREAD_EXIT_S
    try:
        while len(os.listdir("/proc/self/task")) > 1:
            if threading.active_count() > 1 or time.monotonic() > deadline:
                return "spawn"
            time.sleep(0.001)
    except OSError:
        return "spawn"
    return "fork"


def _spread(pool, children: int, tasks: list, own: int = 1) -> dict:
    """{key: `_held(function, *args)`} of `tasks`, a list of (key, serial
    position, function, args) in the order they are handed out. This
    process takes the first `own` tasks, in order, and each of `children`
    children of `pool` one of the next; then each task goes to whichever
    process is free, to a child through a thread here that submits it,
    waits for it and takes the next, so that no child holds more than one
    task. The children's first tasks are submitted before any of those
    threads starts, so a forked pool forks its children while this thread
    is the only one. Once a task has failed, no task at or after its serial
    position starts. A child's task that raises outside `_held` (a dead
    child's `BrokenProcessPool`, or a `KeyboardInterrupt` or `SystemExit`
    in the child) fails with that exception."""
    queue = collections.deque(tasks[own:])
    lock, outcomes, stop = threading.Lock(), {}, math.inf

    def take():
        with lock:
            while queue:
                task = queue.popleft()
                if task[1] < stop:
                    return task
        return None

    def finish(task, outcome):
        nonlocal stop
        with lock:
            outcomes[task[0]] = outcome
            if outcome[2] is not None:
                stop = min(stop, task[1])

    def feed(task, future):
        while task is not None:
            try:
                outcome = (future or pool.submit(_held, task[2],
                                                 *task[3])).result()
            except BaseException as exc:
                outcome = None, [], exc
            finish(task, outcome)
            task, future = take(), None

    threads = []
    while len(threads) < children and (task := take()) is not None:
        try:
            future = pool.submit(_held, task[2], *task[3])
        except BrokenProcessPool as exc:    # a child died in an earlier phase
            finish(task, (None, [], exc))
            break
        threads.append(threading.Thread(target=feed, args=(task, future)))
    for thread in threads:
        thread.start()
    try:
        for task in itertools.chain(tasks[:own], iter(take, None)):
            if task[1] < stop:
                finish(task, _held(task[2], *task[3]))
    finally:
        with lock:
            queue.clear()       # on an interrupt here the threads stop too
        for thread in threads:
            thread.join()
    return outcomes


def _run_all(cfg: ExperimentConfig, fits: dict, workers: int) -> tuple:
    """({measurement: outcome}, {fit: outcome}) of the distinct `fits`
    {(run, fit key): (method, case)}, given in serial order, each outcome
    as `_held` gives it, over `workers` processes: this one and
    `workers` - 1 children, forked or spawned as `_start_method` says. The
    measurements (run, frequency, sampled size) are built first, each once,
    in serial order; then the fits are handed out longest first
    (`_hand_out_key`, ties in serial order), each with its measurement.
    This process takes the first fit handed out of each method itself,
    before any other, so that what is measured of this process alone (its
    peak RSS, a profile of it) covers the largest proposed fit and every
    method. A measurement's serial position is that of the first fit that
    reads it; once a task has failed, no task at or after its position
    starts, so every task before the first failure in serial order has its
    outcome."""
    measures = {}
    for position, ((run, _), (_, case)) in enumerate(fits.items()):
        measures.setdefault((run, *case[3:]), position)
    largest = max((case[0] for method, case in fits.values()
                   if method == "proposed"), default=0)
    with (ProcessPoolExecutor(
            workers - 1,
            mp_context=multiprocessing.get_context(_start_method()))
          if workers > 1 else contextlib.nullcontext()) as pool:
        measured = _spread(pool, workers - 1, [
            (key, position, _make_run, (cfg, *key))
            for key, position in measures.items()])
        stop = min((measures[key] for key, (_, _, error) in measured.items()
                    if error is not None), default=math.inf)
        tasks = [(fit, position, _fit,
                  (cfg, method, case, measured[(fit[0], *case[3:])][0]))
                 for position, (fit, (method, case)) in enumerate(fits.items())
                 if position < stop]
        order = {task[0]: _hand_out_key(*task[3][1:3], largest)
                 for task in tasks}
        firsts = {min((t[0] for t in tasks if t[3][1] == method), key=order.get)
                  for method in {task[3][1] for task in tasks}}
        tasks.sort(key=lambda task: (task[0] not in firsts, order[task[0]]))
        return measured, _spread(pool, workers - 1, tasks, len(firsts))


def run_sweeps(cfg: ExperimentConfig) -> dict:
    """Run `cfg.sweeps` and return {sweep name: list of RunResult}, one row
    per listed (value, method) in that order.

    A case holds one coordinate per sweep, in SWEEPS order (cloud size,
    cloud displacement, microphone displacement, frequency), then the
    sampled cloud size: the largest swept count in the boundary-count sweep,
    `cfg.boundary_count` elsewhere. Runs are the outer loop of the serial
    order. Within a run, a measurement is built once per (frequency,
    sampled size), and a method is fit once per distinct value of the
    coordinates it reads: all of them for the proposed method, the
    microphone displacement and frequency for the baselines. The
    measurements and fits are spread over processes as the module
    docstring says. Every case that shares a fit, in any sweep, records its
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
    fits = {}       # (run, fit key) -> (method, case), in serial order
    for run in range(runs):
        for case, row in cases:
            for method, _ in row:
                fits.setdefault((run, _fit_key(method, case)), (method, case))
    measured, fitted = _run_all(cfg, fits, _worker_count(len(fits)))
    shown = {}      # warnings shown, for the filters' `default` action
    for fit, (_, case) in fits.items():
        if (fit[0], *case[3:]) in measured:
            _replay(measured.pop((fit[0], *case[3:])), shown)
        _replay(fitted[fit], shown)
    for case, row in cases:
        for method, cell in row:
            for run in range(runs):
                cell.nmse_per_run[run], cell.seconds_per_run[run] = (
                    fitted[(run, _fit_key(method, case))][0])
    return results
