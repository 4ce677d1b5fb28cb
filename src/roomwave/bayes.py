"""Bayesian plane-wave reconstruction: the boundary-informed prior, read
as the prior covariance of the field, the posterior conditioned on the
measurements, and the predictive mean and variance.

The coefficient prior is zero-mean complex Gaussian with covariance

    Sigma = prior_variance * (I + boundary_weight * G^H G)^{-1},
    G = impedance * Psi + PhiTilde,

i.e. fields whose impedance boundary residual is large are penalized. With
boundary_weight = 0 (or an empty cloud) the prior reduces to the isotropic
ridge/Tikhonov prior, on the same path: its boundary terms are zero-weighted
or empty.

Nothing here forms Sigma or any P-space matrix. The posterior is read off
the `marglik.MarginalLikelihood` evaluator at the fitted hyperparameters,
from its own factorization: with L the Cholesky factor of the B x B matrix
I + mu G G^H and V = L^{-1} G Phi^H (`MarginalLikelihood.prior`), and the
prediction rows phi_r, whose boundary products the evaluator formed before
the fit,

    U = L^{-1} (beta Psi phi_r^H + PhiTilde phi_r^H),
    T = sigma_alpha^2 (phi_r Phi^H - mu U^H V)      (phi_r Sigma Phi^H),
    prior variance = sigma_alpha^2 (||phi_r||^2 - mu ||U||^2),

the mean is T xi and the variance is the prior variance minus
diag(T Q^{-1} T^H), where Q = K + sigma^2 I is the M x M matrix the fit
factorizes and xi = Q^{-1} y. `build_posterior` forms Q's factor and xi for
the evaluator's value path as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import CholeskyFactor, FactorizationError, chol_factor
from .planewaves import PlaneWaveDictionary, build_phi

__all__ = [
    "Hyperparameters",
    "target_rows",
    "FieldPrior",
    "PosteriorModel",
    "prior_covariance_from_matrices",
    "build_posterior",
    "predict",
]

# tolerated negative predictive variance, relative to the prior variance
VARIANCE_CLAMP_REL = 1e-8
VARIANCE_CLAMP_ABS = 1e-10


@dataclass(frozen=True)
class Hyperparameters:
    """Model hyperparameters.

    noise_variance   sigma^2 > 0, measurement noise power
    prior_variance   sigma_alpha^2 > 0, coefficient prior scale
    boundary_weight  mu >= 0, strength of the boundary term in the prior
    impedance        beta, complex specific impedance shared by all boundary
                     points
    """

    noise_variance: float
    prior_variance: float
    boundary_weight: float
    impedance: complex

    def __post_init__(self):
        # written as `not a < x < b` so that NaN fails too
        if not 0 < self.noise_variance < np.inf:
            raise ValueError("noise_variance must be positive and finite")
        if not 0 < self.prior_variance < np.inf:
            raise ValueError("prior_variance must be positive and finite")
        if not 0 <= self.boundary_weight < np.inf:
            raise ValueError("boundary_weight must be >= 0 and finite")
        if not np.isfinite(self.impedance):
            raise ValueError("impedance must be finite")


def target_rows(dictionary: PlaneWaveDictionary, points) -> np.ndarray:
    """Rows phi(r) (J, P) of the points to predict at: `fit_hyperparameters`
    forms their products in its precompute, and `predict` gives the
    posterior there. They are built here, in the prediction's module, where
    `perfbench/tracer.py` times them as the prediction's dictionary build."""
    return build_phi(dictionary, points)


@dataclass(frozen=True)
class FieldPrior:
    """Prior covariance of the field u(r) = phi(r) alpha at the microphones
    and at the prediction points."""

    mics: np.ndarray        # K = Phi Sigma Phi^H, (M, M)
    cross: np.ndarray       # T = phi_r Sigma Phi^H, (J, M)
    variance: np.ndarray    # diag(phi_r Sigma phi_r^H), (J,)


def prior_covariance_from_matrices(ml, hp: Hyperparameters) -> FieldPrior:
    """The field's prior covariance at `hp` from the products that the
    evaluator `ml` holds; its largest arrays are the evaluator's B x B
    factor and the matrix it factorizes, beside the Gram stack."""
    b_factor, v, k = ml.prior(hp)
    sa2, mu = hp.prior_variance, hp.boundary_weight
    u = b_factor.forward(hp.impedance * ml.psi_targets + ml.pt_targets)
    cross = sa2 * (ml.targets_phi - mu * (u.conj().T @ v))
    variance = sa2 * (ml.target_power - mu * np.sum(np.abs(u) ** 2, axis=0))
    return FieldPrior(k, cross, variance)


@dataclass(frozen=True)
class PosteriorModel:
    """Factorized Q = K + sigma^2 I and xi = Q^{-1} y."""

    q_factor: CholeskyFactor
    xi: np.ndarray


def build_posterior(y, k: np.ndarray, noise_variance: float) -> PosteriorModel:
    """Condition on the measurements y: factorize Q = K + sigma^2 I (M x M),
    K the prior covariance of the field at the microphones, and solve
    xi = Q^{-1} y. Needs M >= 1 measurements."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(y) < 1:
        raise ValueError("need at least one measurement")
    if k.shape != (len(y), len(y)):
        raise ValueError(f"K shape {k.shape} inconsistent with M={len(y)}")
    q = k.copy()
    q.flat[::len(y) + 1] += noise_variance
    q_factor = chol_factor(q)
    return PosteriorModel(q_factor, q_factor.solve(y))


def predict(prior: FieldPrior,
            posterior: PosteriorModel) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance of the field at the prediction points.

    The mean is T xi; the variance is the prior variance minus the
    information gained from the measurements, diag(T Q^{-1} T^H). Tiny
    negative variances from roundoff are clamped to zero; a negative
    excursion beyond 1e-8 of the prior variance raises FactorizationError.
    """
    t = prior.cross
    mean = t @ posterior.xi
    reduction = np.einsum("jm,mj->j", t,
                          posterior.q_factor.solve(t.conj().T)).real
    variance = prior.variance - reduction

    tolerance = (VARIANCE_CLAMP_REL * np.maximum(prior.variance, 0.0)
                 + VARIANCE_CLAMP_ABS)
    if np.any(variance < -tolerance):
        worst = float(np.min(variance))
        raise FactorizationError(
            f"predictive variance {worst:.3e} below the numerical floor")
    return mean, np.maximum(variance, 0.0)
