"""Bayesian plane-wave reconstruction: boundary-informed prior covariance,
posterior factorization, MAP coefficients and predictive mean/variance.

The coefficient prior is zero-mean complex Gaussian with covariance

    Sigma = prior_variance * (I + boundary_weight * G^H G)^{-1},
    G = impedance * Psi + PhiTilde,

i.e. fields whose impedance boundary residual is large are penalized. With
boundary_weight = 0 (or an empty cloud) the prior reduces to the isotropic
ridge/Tikhonov prior; the Woodbury form below gives its values exactly, as
scale * (x - 0), without a separate code path.

Sigma is held in boundary space (Woodbury form, see PriorCovariance): the
prior, the posterior and the predictions factorize only the B x B matrix
I + boundary_weight * G G^H and the M x M matrix Q, never a P x P matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import CholeskyFactor, FactorizationError, chol_factor
from .planewaves import PlaneWaveDictionary, build_phi

__all__ = [
    "Hyperparameters",
    "PriorCovariance",
    "PosteriorModel",
    "prior_covariance_from_matrices",
    "build_posterior",
    "map_coefficients",
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


class PriorCovariance:
    """Coefficient prior covariance held in boundary space.

    By the Woodbury identity

        Sigma = scale * (I_P - weight * G^H (I_B + weight * G G^H)^{-1} G),

    so only G (B x P) and the Cholesky factor F of the B x B matrix
    I_B + weight * G G^H are stored: a product with Sigma costs two B x P
    products and two B x B triangular solves, and no P x P matrix is ever
    formed or factorized.
    """

    def __init__(self, scale: float, weight: float, g: np.ndarray,
                 factor: CholeskyFactor):
        self.scale = scale
        self.weight = weight
        self.g = g
        self.factor = factor

    @property
    def dim(self) -> int:
        return self.g.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Sigma @ x."""
        correction = self.g.conj().T @ self.factor.solve(self.g @ x)
        return self.scale * (x - self.weight * correction)


def prior_covariance_from_matrices(psi: np.ndarray, phi_tilde: np.ndarray,
                                   hp: Hyperparameters) -> PriorCovariance:
    """Prior covariance from prebuilt boundary matrices (B x P each); the
    only factorization is the B x B Cholesky of I_B + mu G G^H.

    G is formed in one new array, as beta * Psi and then += PhiTilde, which
    rounds as the expression beta * Psi + PhiTilde does; the inputs are not
    modified. This function drops its references to Psi and PhiTilde before
    G G^H, so a caller that passes freshly built matrices (as
    `experiments.fit_and_predict` does) has them freed there. At the default
    size (M = 100, P = B = 1000) that stage peaks at 49.6 MB traced, as G is
    formed beside Psi and PhiTilde; it peaked at 81.6 MB while they stayed
    alive beside a beta * Psi temporary and G's conjugated copy.
    """
    if psi.shape != phi_tilde.shape:
        raise ValueError("Psi and PhiTilde must have equal shapes")
    g = hp.impedance * psi
    g += phi_tilde
    del psi, phi_tilde
    mu = hp.boundary_weight
    a = mu * (g @ g.conj().T)
    a.flat[::g.shape[0] + 1] += 1.0
    return PriorCovariance(hp.prior_variance, mu, g, chol_factor(a))


@dataclass(frozen=True)
class PosteriorModel:
    """Posterior state: factorized Q = sigma^2 I + Phi Sigma Phi^H together
    with xi = Q^{-1} y and the cached cross-covariance Sigma Phi^H."""

    dictionary: PlaneWaveDictionary
    prior: PriorCovariance
    cross: np.ndarray           # Sigma Phi^H, (P, M)
    q_factor: CholeskyFactor
    xi: np.ndarray


def build_posterior(y, phi: np.ndarray, prior: PriorCovariance,
                    hp: Hyperparameters,
                    dictionary: PlaneWaveDictionary) -> PosteriorModel:
    """Factorize Q = sigma^2 I + Phi Sigma Phi^H (M x M) and precompute
    everything prediction needs; Sigma Phi^H comes from the boundary-space
    prior, so no P x P matrix is formed. Needs M >= 1 measurements."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(y) < 1:
        raise ValueError("need at least one measurement")
    if phi.shape != (len(y), prior.dim):
        raise ValueError(f"Phi shape {phi.shape} inconsistent with "
                         f"M={len(y)}, P={prior.dim}")
    cross = prior.apply(phi.conj().T)
    q = phi @ cross
    q.flat[::len(y) + 1] += hp.noise_variance
    q_factor = chol_factor(q)
    return PosteriorModel(dictionary, prior, cross, q_factor, q_factor.solve(y))


def map_coefficients(posterior: PosteriorModel) -> np.ndarray:
    """MAP coefficient vector via the dual form Sigma Phi^H Q^{-1} y."""
    return posterior.cross @ posterior.xi


def predict(posterior: PosteriorModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance of the field at the given points.

    The mean is phi(r)^T alpha_MAP; the variance is the prior variance
    phi^T Sigma phi* minus the information gained from the measurements.
    Tiny negative variances from roundoff are clamped to zero; a negative
    excursion beyond 1e-8 of the prior variance raises FactorizationError.
    """
    phi_r = build_phi(posterior.dictionary, points)
    mean = phi_r @ map_coefficients(posterior)

    sig_phi = posterior.prior.apply(phi_r.conj().T)        # Sigma phi*, (P, J)
    prior_var = np.einsum("jp,pj->j", phi_r, sig_phi).real
    t = phi_r @ posterior.cross                            # phi^T Sigma Phi^H, (J, M)
    reduction = np.einsum("jm,mj->j", t, posterior.q_factor.solve(t.conj().T)).real
    variance = prior_var - reduction

    tolerance = VARIANCE_CLAMP_REL * np.maximum(prior_var, 0.0) + VARIANCE_CLAMP_ABS
    if np.any(variance < -tolerance):
        worst = float(np.min(variance))
        raise FactorizationError(
            f"predictive variance {worst:.3e} below the numerical floor")
    return mean, np.maximum(variance, 0.0)
