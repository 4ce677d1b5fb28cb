"""Comparison estimators: nearest-microphone lookup, ridge (Tikhonov)
regression, and the complex-valued lasso solved by accelerated proximal
gradient (FISTA) with a monotone restart safeguard."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .geometry import _as_points

__all__ = [
    "nearest_neighbor",
    "tikhonov",
    "LassoConfig",
    "LassoResult",
    "lasso",
    "lasso_objective",
    "null_threshold",
    "default_lambda_grid",
    "select_lambda",
]


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
    if noise_variance <= 0 or prior_variance <= 0:
        raise ValueError("variances must be positive")
    y = np.asarray(y, dtype=complex).reshape(-1)
    u, s, vh = np.linalg.svd(phi, full_matrices=False)
    gain = s / (s ** 2 + noise_variance / prior_variance)
    return vh.conj().T @ (gain * (u.conj().T @ y))


@dataclass(frozen=True)
class LassoConfig:
    penalty: float
    max_iterations: int = 5000
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class LassoResult:
    coefficients: np.ndarray
    objective: float
    n_iterations: int
    converged: bool


def lasso_objective(y, phi, noise_variance, penalty, coefficients) -> float:
    residual = y - phi @ coefficients
    return (float(np.sum(np.abs(residual) ** 2)) / (2.0 * noise_variance)
            + penalty * float(np.sum(np.abs(coefficients))))


def _soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Complex soft-thresholding: shrink the modulus, keep the phase."""
    mags = np.abs(v)
    scale = np.maximum(1.0 - threshold / np.maximum(mags, 1e-300), 0.0)
    return scale * v


def null_threshold(y, phi, noise_variance) -> float:
    """Smallest penalty for which the all-zero solution is optimal:
    ||Phi^H y||_inf / noise_variance."""
    return float(np.max(np.abs(phi.conj().T @ np.asarray(y, dtype=complex)))
                 / noise_variance)


def _lipschitz(phi, noise_variance) -> float:
    """||Phi||_2^2 / s2, the Lipschitz constant of the lasso's data-term
    gradient."""
    return float(sla.svdvals(phi)[0] ** 2) / noise_variance


def lasso(y, phi: np.ndarray, noise_variance: float,
          config: LassoConfig, initial=None, *,
          lipschitz: float | None = None) -> LassoResult:
    """Minimize ||y - Phi a||^2 / (2 s2) + penalty * sum_p |a_p|.

    FISTA with the fixed step 1 / lipschitz, where lipschitz =
    ||Phi||_2^2 / s2 = lambda_max(Phi^H Phi) / s2; the momentum is restarted
    whenever an accelerated step would increase the objective, so the
    reported objective sequence is non-increasing. Starts from zeros or from
    `initial` (warm start along a penalty path). A caller that fits one Phi
    many times passes its `lipschitz`, ||Phi||_2^2 / s2, to skip the SVD;
    None computes it here. Returns the best iterate with converged=False
    when the tolerance is not reached within the iteration budget.
    """
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    y = np.asarray(y, dtype=complex).reshape(-1)
    m, p = phi.shape
    if len(y) != m:
        raise ValueError("y length must match Phi rows")

    if lipschitz is None:
        lipschitz = _lipschitz(phi, noise_variance)
    if lipschitz == 0.0:
        return LassoResult(np.zeros(p, dtype=complex), lasso_objective(
            y, phi, noise_variance, config.penalty, np.zeros(p)), 0, True)
    step = 1.0 / lipschitz

    x = (np.zeros(p, dtype=complex) if initial is None
         else np.asarray(initial, dtype=complex).reshape(p).copy())
    phi_x = phi @ x if initial is not None else np.zeros(m, dtype=complex)
    z = x
    phi_z = phi_x
    t = 1.0
    f_x = lasso_objective(y, phi, noise_variance, config.penalty, x)
    converged = False
    iterations = 0
    # the adjoint is formed once, not per iteration; ndarray.sum is np.sum
    # without its dispatch (the same pairwise np.add.reduce, the same bits)
    phi_h = phi.conj().T

    def objective(phi_a, a):
        return (float((np.abs(y - phi_a) ** 2).sum()) / (2 * noise_variance)
                + config.penalty * float(np.abs(a).sum()))

    for iterations in range(1, config.max_iterations + 1):
        grad = phi_h @ (phi_z - y) / noise_variance
        x_new = _soft_threshold(z - step * grad, step * config.penalty)
        phi_x_new = phi @ x_new
        f_new = objective(phi_x_new, x_new)
        if f_new > f_x:
            # accelerated step overshot: restart the momentum from x
            grad = phi_h @ (phi_x - y) / noise_variance
            x_new = _soft_threshold(x - step * grad, step * config.penalty)
            phi_x_new = phi @ x_new
            f_new = objective(phi_x_new, x_new)
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        z = x_new + momentum * (x_new - x)
        phi_z = phi_x_new + momentum * (phi_x_new - phi_x)
        delta = abs(f_x - f_new)
        x, phi_x, f_x, t = x_new, phi_x_new, f_new, t_new
        if delta <= config.tolerance * max(abs(f_x), 1e-30):
            converged = True
            break

    return LassoResult(x, f_x, iterations, converged)


def default_lambda_grid(y, phi, noise_variance, size: int = 20) -> np.ndarray:
    """Logarithmic grid over [1e-4, 1] times the null threshold."""
    top = null_threshold(y, phi, noise_variance)
    return top * np.logspace(-4.0, 0.0, size)


def select_lambda(y, phi: np.ndarray, noise_variance: float,
                  grid=None, folds: int = 5, seed: int = 0,
                  max_iterations: int = 2000,
                  tolerance: float = 1e-8) -> float:
    """Penalty minimizing K-fold cross-validated squared prediction error
    over microphones; ties favor the larger penalty.

    `lasso` runs once per (fold, penalty), warm-started down the descending
    grid; each fold's Lipschitz constant is computed once and passed to all
    of that fold's fits.
    """
    y = np.asarray(y, dtype=complex).reshape(-1)
    m = len(y)
    if not 2 <= folds <= m:
        raise ValueError(f"folds must be in 2..{m}")
    grid = (default_lambda_grid(y, phi, noise_variance) if grid is None
            else np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must be nonempty")

    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    chunks = np.array_split(order, folds)

    penalties = np.asarray(sorted(grid, reverse=True), dtype=float)
    errors = np.zeros(len(penalties))
    for test_idx in chunks:
        train = np.setdiff1d(order, test_idx, assume_unique=True)
        phi_train = phi[train]
        y_train = y[train]
        lipschitz = _lipschitz(phi_train, noise_variance)
        coefficients = None
        for j, penalty in enumerate(penalties):
            # warm start down the penalty path
            config = LassoConfig(penalty, max_iterations, tolerance)
            fit = lasso(y_train, phi_train, noise_variance, config,
                        initial=coefficients, lipschitz=lipschitz)
            coefficients = fit.coefficients
            residual = y[test_idx] - phi[test_idx] @ coefficients
            errors[j] += float(np.sum(np.abs(residual) ** 2))
    # descending grid: argmin favors the larger penalty on ties
    return float(penalties[int(np.argmin(errors))])
