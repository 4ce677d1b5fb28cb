"""Comparison estimators: nearest-microphone lookup, ridge (Tikhonov)
regression, and the complex-valued lasso solved by accelerated proximal
gradient (FISTA) with a monotone restart safeguard.

The lasso is fitted hundreds of times per run along the cross-validated
penalty path, on vectors of tens to hundreds of entries, where numpy's
per-call overhead, not arithmetic, sets the time of an iteration. So its
iteration carries the coefficients and their residual y - Phi x as one
state vector, forms the step-scaled adjoint once per fit, and writes every
step into preallocated buffers: about fifteen numpy calls per iteration.
Each fit takes its penalty, iteration cap and tolerance as arguments; the
cross-validation fits use CV_MAX_ITERATIONS and CV_TOLERANCE, over a grid of
CV_GRID_SIZE penalties.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .geometry import _as_points

__all__ = [
    "nearest_neighbor",
    "tikhonov",
    "LassoResult",
    "lasso",
    "null_threshold",
    "default_lambda_grid",
    "select_lambda",
]

logger = logging.getLogger(__name__)

# iteration budget and relative tolerance of every cross-validation fit,
# and the number of penalties each cross-validation scores
CV_MAX_ITERATIONS = 2000
CV_TOLERANCE = 1e-8
CV_GRID_SIZE = 20


def nearest_neighbor(mic_positions, y, points) -> np.ndarray:
    """Predict each point as the signal of the nearest microphone
    (ties broken by the lowest microphone index)."""
    mics = _as_points(mic_positions, "mic_positions")
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(y) != len(mics):
        raise ValueError("y must have one entry per microphone")
    pts = _as_points(points)
    d = np.linalg.norm(pts[:, None, :] - mics[None, :, :], axis=2)
    return y[np.argmin(d, axis=1)]


def tikhonov(y, phi: np.ndarray, noise_variance: float,
             prior_variance: float) -> np.ndarray:
    """Ridge coefficients (Phi^H Phi / s2 + I / sa2)^{-1} Phi^H y / s2.

    Solved through the thin SVD Phi = U diag(s) V^H as
    V diag(s / (s^2 + s2 / sa2)) U^H y: one code path for M < P and M > P,
    and no P x P normal matrix. The M x M dual form
    Phi^H (Phi Phi^H + (s2 / sa2) I)^{-1} y is not used: for M > P the
    matrix Phi Phi^H has rank P, so at vanishing regularization the dual
    system is singular to working precision and misses the least-squares
    limit. Deliberately a separate code path from the posterior pipeline so
    the two can be checked against each other.
    """
    if not (0 < noise_variance < math.inf and 0 < prior_variance < math.inf):
        raise ValueError("variances must be positive and finite")
    y = np.asarray(y, dtype=complex).reshape(-1)
    u, s, vh = np.linalg.svd(phi, full_matrices=False)
    gain = s / (s ** 2 + noise_variance / prior_variance)
    return vh.conj().T @ (gain * (u.conj().T @ y))


@dataclass
class LassoResult:
    coefficients: np.ndarray
    objective: float
    n_iterations: int
    converged: bool


def _check_noise_variance(noise_variance) -> None:
    if not 0 < noise_variance < math.inf:   # written so that NaN fails too
        raise ValueError("noise_variance must be positive and finite")


def null_threshold(y, phi, noise_variance) -> float:
    """Smallest penalty for which the all-zero solution is optimal:
    ||Phi^H y||_inf / noise_variance."""
    _check_noise_variance(noise_variance)
    return float(np.max(np.abs(phi.conj().T @ np.asarray(y, dtype=complex)))
                 / noise_variance)


def _lipschitz(phi, noise_variance) -> float:
    """||Phi||_2^2 / s2, the Lipschitz constant of the lasso's data-term
    gradient."""
    _check_noise_variance(noise_variance)
    return float(sla.svdvals(phi)[0] ** 2) / noise_variance


def lasso(y, phi: np.ndarray, noise_variance: float, penalty: float, *,
          max_iterations: int = 5000, tolerance: float = 1e-10,
          initial=None, lipschitz: float | None = None) -> LassoResult:
    """Minimize ||y - Phi a||^2 / (2 s2) + penalty * sum_p |a_p|.

    FISTA with the fixed step 1 / lipschitz, where lipschitz =
    ||Phi||_2^2 / s2 = lambda_max(Phi^H Phi) / s2; the momentum is restarted
    whenever an accelerated step would increase the objective, so the
    reported objective sequence is non-increasing. Starts from zeros or from
    `initial` (warm start along a penalty path; `initial` is not modified).
    A caller that fits one Phi many times passes its `lipschitz`,
    ||Phi||_2^2 / s2, to skip the SVD; None computes it here. Returns a fresh
    copy of the best iterate, with converged=False when the relative
    objective change does not fall to `tolerance` within `max_iterations`.

    The iteration carries one state vector [x ; r] with the residual
    r = y - Phi x, so the momentum step z = x_new + m (x_new - x) extrapolates
    both halves in one pass, and the gradient step from z is
    z + A r_z with the scaled adjoint A = (step / s2) Phi^H, formed once.
    Every step writes into buffers allocated once per call.
    """
    _check_noise_variance(noise_variance)
    if not 0 <= penalty < math.inf:     # written so that NaN fails too
        raise ValueError("penalty must be >= 0 and finite")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    y = np.asarray(y, dtype=complex).reshape(-1)
    m, p = phi.shape
    if len(y) != m:
        raise ValueError("y length must match Phi rows")

    # the objective from the residual y - Phi a and the moduli |a_p|
    def objective(residual, moduli):
        return (float(np.vdot(residual, residual).real) / (2 * noise_variance)
                + penalty * float(moduli.sum()))

    if lipschitz is None:
        lipschitz = _lipschitz(phi, noise_variance)
    if lipschitz == 0.0:
        zeros = np.zeros(p, dtype=complex)
        return LassoResult(zeros, objective(y - phi @ zeros, np.abs(zeros)),
                           0, True)
    step = 1.0 / lipschitz
    threshold = step * penalty
    # np.conjugate always copies (ndarray.conj returns a real array itself),
    # so the in-place scaling cannot reach the caller's Phi
    adjoint = np.conjugate(phi)
    adjoint *= step / noise_variance
    adjoint = adjoint.T

    state = np.zeros(p + m, dtype=complex)      # [x ; y - Phi x]
    x, r = state[:p], state[p:]
    if initial is None:
        r[:] = y
    else:
        x[:] = np.asarray(initial, dtype=complex).reshape(p)
        np.subtract(y, phi @ x, out=r)
    spare = np.empty_like(state)                # the next iterate
    x_new, r_new = spare[:p], spare[p:]
    ahead = state.copy()                        # [z ; y - Phi z]
    z, r_z = ahead[:p], ahead[p:]
    v = np.empty(p, dtype=complex)
    moduli = np.empty(p)
    shrunk = np.empty(p)

    def prox_step(from_x, from_r, out_x, out_r):
        """Gradient step from (from_x, from_r), complex soft-thresholding
        (shrink the modulus, keep the phase) into out_x, its residual into
        out_r; returns the objective there."""
        np.matmul(adjoint, from_r, out=v)
        np.add(v, from_x, out=v)
        np.abs(v, out=moduli)
        np.maximum(moduli, 1e-300, out=moduli)
        np.subtract(moduli, threshold, out=shrunk)
        np.maximum(shrunk, 0.0, out=shrunk)
        np.divide(shrunk, moduli, out=moduli)
        np.multiply(v, moduli, out=out_x)
        np.matmul(phi, out_x, out=out_r)
        np.subtract(y, out_r, out=out_r)
        return objective(out_r, shrunk)

    t = 1.0
    f_x = objective(r, np.abs(x))
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        f_new = prox_step(z, r_z, x_new, r_new)
        if f_new > f_x:
            # accelerated step overshot: restart the momentum from x
            f_new = prox_step(x, r, x_new, r_new)
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        np.subtract(spare, state, out=ahead)
        ahead *= momentum
        ahead += spare
        delta = abs(f_x - f_new)
        state, spare = spare, state
        x, r, x_new, r_new = x_new, r_new, x, r
        f_x, t = f_new, t_new
        if delta <= tolerance * max(abs(f_x), 1e-30):
            converged = True
            break

    return LassoResult(x.copy(), f_x, iterations, converged)


def default_lambda_grid(y, phi, noise_variance, size: int) -> np.ndarray:
    """Logarithmic grid over [1e-4, 1] times the null threshold."""
    top = null_threshold(y, phi, noise_variance)
    return top * np.logspace(-4.0, 0.0, size)


def select_lambda(y, phi: np.ndarray, noise_variance: float, grid,
                  folds: int, seed: int,
                  label: str = "select_lambda") -> float:
    """Penalty of `grid` minimizing `folds`-fold cross-validated squared
    prediction error over microphones; ties favor the larger penalty. The
    folds are a `seed`-seeded random partition.

    `lasso` runs once per (fold, penalty), warm-started down the descending
    grid, with CV_MAX_ITERATIONS and CV_TOLERANCE; each fold's Lipschitz
    constant is computed once and passed to all of that fold's fits. A fit
    that stops at the iteration cap still scores, and one warning per call,
    starting with `label` (the benchmark passes its run and case), gives
    how many did.
    """
    y = np.asarray(y, dtype=complex).reshape(-1)
    m = len(y)
    if not 2 <= folds <= m:
        raise ValueError(f"folds must be in 2..{m}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")

    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    chunks = np.array_split(order, folds)

    penalties = np.asarray(sorted(grid, reverse=True), dtype=float)
    errors = np.zeros(len(penalties))
    unconverged = 0
    for test_idx in chunks:
        train = np.setdiff1d(order, test_idx, assume_unique=True)
        phi_train = phi[train]
        y_train = y[train]
        lipschitz = _lipschitz(phi_train, noise_variance)
        coefficients = None
        for j, penalty in enumerate(penalties):
            # warm start down the penalty path
            fit = lasso(y_train, phi_train, noise_variance, penalty,
                        max_iterations=CV_MAX_ITERATIONS,
                        tolerance=CV_TOLERANCE, initial=coefficients,
                        lipschitz=lipschitz)
            coefficients = fit.coefficients
            unconverged += not fit.converged
            residual = y[test_idx] - phi[test_idx] @ coefficients
            errors[j] += float(np.sum(np.abs(residual) ** 2))
    if unconverged:
        # their errors then depend on where FISTA stopped
        logger.warning("%s: %d of %d cross-validation lasso fits did not "
                       "converge in %d iterations", label, unconverged,
                       folds * len(penalties), CV_MAX_ITERATIONS)
    # descending grid: argmin favors the larger penalty on ties
    return float(penalties[int(np.argmin(errors))])
