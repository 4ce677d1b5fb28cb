"""Negative log marginal likelihood of the boundary-informed model and its
analytic gradient.

The objective is J = (1/2) y^H Q^{-1} y + (1/2) log|Q| over the
reparametrized hyperparameters

    theta = (a, b, d, eta),
    noise_variance = e^a, prior_variance = e^b,
    boundary_weight = e^d, impedance = e^eta (eta complex),

so positivity constraints disappear and the parameters can span orders of
magnitude. Every gradient component is the trace form
-(1/2) tr((xi xi^H - Q^{-1}) dQ/dtheta_i); the impedance component is the
derivative with respect to eta* of the (non-holomorphic) real objective, and
the real-coordinate gradient is (2 Re g, 2 Im g) for that complex derivative.

Evaluation works in measurement space: Q is only M x M, and all
boundary-dependent quantities reduce to four B x B Grams, PhiTilde PhiTilde^H,
Psi Psi^H and the Hermitian and anti-Hermitian parts of Psi PhiTilde^H,
precomputed once per geometry. With G = beta Psi + PhiTilde, one evaluation
of J costs
  - one pass over the Grams for I + mu G G^H,
  - its B x B Cholesky factor L,
  - one B x M forward solve V = L^{-1} G Phi^H, giving
    K = sigma_alpha^2 (Phi Phi^H - mu V^H V), and the M x M Cholesky of Q.
The gradient adds the back solve w = L^{-H} V, a second Gram pass for
Psi G^H and one B x B times B x M product; every trace is an inner product
with w W, W = xi xi^H - Q^{-1}, so no derivative matrix dQ is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import FactorizationError, chol_factor, hermitize
from .bayes import Hyperparameters
from .optimize import MinimizeResult, minimize

__all__ = [
    "ThetaVector",
    "ObjectiveEval",
    "MarginalLikelihood",
    "objective",
    "gradient",
    "finite_difference_gradient",
    "central_differences",
    "initial_theta",
    "fit_hyperparameters",
    "FitResult",
    "gradient_check",
]


@dataclass(frozen=True)
class ThetaVector:
    """Unconstrained hyperparameter coordinates (a, b, d, eta)."""

    log_noise_variance: float
    log_prior_variance: float
    log_boundary_weight: float
    log_impedance: complex

    def __post_init__(self):
        values = (self.log_noise_variance, self.log_prior_variance,
                  self.log_boundary_weight, self.log_impedance.real,
                  self.log_impedance.imag)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("theta components must be finite")

    def to_array(self) -> np.ndarray:
        """Real coordinates [a, b, d, Re eta, Im eta]."""
        return np.array([self.log_noise_variance, self.log_prior_variance,
                         self.log_boundary_weight, self.log_impedance.real,
                         self.log_impedance.imag])

    @classmethod
    def from_array(cls, x) -> "ThetaVector":
        x = np.asarray(x, dtype=float)
        if x.shape != (5,):
            raise ValueError("theta array must have 5 real components")
        return cls(float(x[0]), float(x[1]), float(x[2]),
                   complex(x[3], x[4]))

    def to_hyperparameters(self) -> Hyperparameters:
        """Map to the constrained parameters; raises FactorizationError when
        the exponentials leave floating-point range (the point is then not
        evaluable and a line search must backtrack)."""
        with np.errstate(over="ignore", under="ignore"):
            s2 = math.exp(self.log_noise_variance) if self.log_noise_variance < 709 else math.inf
            sa2 = math.exp(self.log_prior_variance) if self.log_prior_variance < 709 else math.inf
            mu = math.exp(self.log_boundary_weight) if self.log_boundary_weight < 709 else math.inf
            beta = (np.exp(self.log_impedance)
                    if self.log_impedance.real < 709 else complex(math.inf))
        if not (0.0 < s2 < math.inf and 0.0 < sa2 < math.inf
                and mu < math.inf and np.isfinite(beta)):
            raise FactorizationError("hyperparameters overflow floating range")
        return Hyperparameters(s2, sa2, mu, complex(beta))

    @classmethod
    def from_hyperparameters(cls, hp: Hyperparameters) -> "ThetaVector":
        if hp.boundary_weight <= 0:
            raise ValueError("boundary_weight must be > 0 to take its log")
        if hp.impedance == 0:
            raise ValueError("impedance must be nonzero to take its log")
        return cls(math.log(hp.noise_variance), math.log(hp.prior_variance),
                   math.log(hp.boundary_weight), complex(np.log(hp.impedance)))


@dataclass(frozen=True)
class ObjectiveEval:
    """Objective value with its 5-component real gradient."""

    value: float
    gradient: np.ndarray

    def __post_init__(self):
        grad = np.asarray(self.gradient, dtype=float)
        if grad.shape != (5,):
            raise ValueError("gradient must have 5 components")
        if not (math.isfinite(self.value) and np.all(np.isfinite(grad))):
            raise ValueError("objective evaluation must be finite")
        object.__setattr__(self, "gradient", grad)


class MarginalLikelihood:
    """Evaluator bound to one dataset (y, Phi, Psi, PhiTilde).

    Construction precomputes the Gram blocks; value() and
    value_and_gradient() may then be called for many hyperparameter
    settings at M/B-space cost.
    """

    def __init__(self, y, phi: np.ndarray, psi: np.ndarray, phi_tilde: np.ndarray):
        y = np.asarray(y, dtype=complex).reshape(-1)
        if len(y) < 1:
            raise ValueError("need at least one measurement")
        if phi.shape[0] != len(y):
            raise ValueError("Phi row count must match y")
        if psi.shape != phi_tilde.shape or psi.shape[1] != phi.shape[1]:
            raise ValueError("Psi/PhiTilde shapes inconsistent with Phi")
        self.y = y
        self.num_measurements = len(y)
        self.num_boundary = psi.shape[0]
        self._phi_gram = hermitize(phi @ phi.conj().T)
        if self.num_boundary:
            phi_h = phi.conj().T
            self._psi_phi = psi @ phi_h                    # (B, M)
            self._pt_phi = phi_tilde @ phi_h               # (B, M)
            cross = psi @ phi_tilde.conj().T               # (B, B)
            # C = PhiTilde PhiTilde^H, A = Psi Psi^H and the Hermitian and
            # anti-Hermitian parts H, S of Psi PhiTilde^H = H + S
            self._grams = np.stack([
                hermitize(phi_tilde @ phi_tilde.conj().T),
                hermitize(psi @ psi.conj().T),
                0.5 * (cross + cross.conj().T),
                0.5 * (cross - cross.conj().T),
            ])

    # -- evaluation at explicit hyperparameters ---------------------------

    def value_at(self, hp: Hyperparameters) -> float:
        return self._evaluate(hp, with_gradient=False)[0]

    def value_and_gradient_at(self, hp: Hyperparameters) -> tuple[float, np.ndarray]:
        return self._evaluate(hp, with_gradient=True)

    # -- evaluation at theta ----------------------------------------------

    def value(self, theta: ThetaVector) -> float:
        return self.value_at(theta.to_hyperparameters())

    def value_and_gradient(self, theta: ThetaVector) -> tuple[float, np.ndarray]:
        return self.value_and_gradient_at(theta.to_hyperparameters())

    def _combine(self, coefficients) -> np.ndarray:
        """sum_i c_i * Gram_i as one pass over the stacked Grams."""
        return np.tensordot(coefficients, self._grams, axes=1)

    def _evaluate(self, hp: Hyperparameters, with_gradient: bool):
        s2 = hp.noise_variance
        sa2 = hp.prior_variance
        mu = hp.boundary_weight
        beta = hp.impedance
        m = self.num_measurements
        boundary_active = self.num_boundary > 0 and mu > 0

        with np.errstate(over="raise", invalid="raise"):
            try:
                k = sa2 * self._phi_gram
                if boundary_active:
                    # I + mu G G^H with G G^H = C + |beta|^2 A
                    # + 2 Re(beta) H + 2i Im(beta) S, every term Hermitian;
                    # Cholesky reads only the lower triangle, so no
                    # symmetrization is needed
                    a = self._combine(mu * np.array(
                        [1.0, abs(beta) ** 2, 2.0 * beta.real, 2.0j * beta.imag]))
                    a.flat[::self.num_boundary + 1] += 1.0
                    b_factor = chol_factor(a)
                    g_phi = beta * self._psi_phi + self._pt_phi        # G Phi^H
                    v = b_factor.forward(g_phi)                # L^{-1} G Phi^H
                    k -= (sa2 * mu) * (v.conj().T @ v)
                q = k.copy()
                q.flat[::m + 1] += s2
                q_factor = chol_factor(q)
            except FloatingPointError as exc:
                raise FactorizationError(f"overflow while assembling Q: {exc}") from exc

        xi = q_factor.solve(self.y)
        value = 0.5 * float(np.real(self.y.conj() @ xi)) + 0.5 * q_factor.logdet()
        if not with_gradient:
            return value, None

        # grad_i = -(1/2) tr(W dQ/dtheta_i) with W = xi xi^H - Q^{-1}
        weight = np.outer(xi, xi.conj()) - q_factor.inverse()
        grad = np.zeros(5)
        grad[0] = -0.5 * s2 * float(np.real(np.trace(weight)))
        grad[1] = -0.5 * float(np.real(np.vdot(k, weight)))
        if boundary_active:
            # dQ/dd = -sa2 mu w^H w and dQ/deta* = -sa2 mu conj(beta) psi_c^H w
            # with w = (I + mu G G^H)^{-1} G Phi^H; the traces are inner
            # products with w W, so no M x M derivative matrix is formed
            w = b_factor.backward(v)
            w_weight = w @ weight
            grad[2] = 0.5 * sa2 * mu * float(np.real(np.vdot(w, w_weight)))
            # Psi G^H = conj(beta) A + H + S
            psi_g = self._combine(np.array([0.0, np.conj(beta), 1.0, 1.0]))
            psi_c = self._psi_phi - mu * (psi_g @ w)
            g_eta = 0.5 * sa2 * mu * np.conj(beta) * np.vdot(psi_c, w_weight)
            grad[3] = 2.0 * float(np.real(g_eta))
            grad[4] = 2.0 * float(np.imag(g_eta))
        if not np.all(np.isfinite(grad)) or not math.isfinite(value):
            raise FactorizationError("non-finite objective or gradient")
        return value, grad


# -- spec-level operations ------------------------------------------------


def objective(theta: ThetaVector, y, phi, psi, phi_tilde) -> float:
    """J(theta) for one dataset; see MarginalLikelihood for repeated use."""
    return MarginalLikelihood(y, phi, psi, phi_tilde).value(theta)


def gradient(theta: ThetaVector, y, phi, psi, phi_tilde) -> ObjectiveEval:
    """J(theta) together with its analytic 5-component gradient."""
    value, grad = MarginalLikelihood(y, phi, psi, phi_tilde).value_and_gradient(theta)
    return ObjectiveEval(value, grad)


def central_differences(fun, x, step: float) -> np.ndarray:
    """Central finite differences of a scalar function on real coordinates."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (fun(forward) - fun(backward)) / (2.0 * step)
    return grad


def finite_difference_gradient(theta: ThetaVector, y, phi, psi, phi_tilde,
                               step: float = 1e-6) -> np.ndarray:
    """Finite-difference oracle for the analytic gradient."""
    ml = MarginalLikelihood(y, phi, psi, phi_tilde)
    return central_differences(
        lambda x: ml.value(ThetaVector.from_array(x)), theta.to_array(), step)


def initial_theta(y, num_plane_waves: int, psi=None, phi_tilde=None) -> ThetaVector:
    """Data-scaled neutral start.

    Noise starts at a tenth of the signal power and the prior scale makes
    the prior predictive power match the signal power. The boundary weight
    starts at B / ||Psi + PhiTilde||_F^2, i.e. the mean eigenvalue of the
    boundary Gram term is one at the initial unit impedance: a raw weight of
    one would let the boundary term dominate the prior by orders of
    magnitude and reliably trap the optimizer in an all-noise optimum.
    """
    power = float(np.mean(np.abs(np.asarray(y)) ** 2))
    power = max(power, 1e-30)
    log_weight = 0.0
    if psi is not None and phi_tilde is not None and psi.shape[0]:
        gram_trace = float(np.sum(np.abs(psi + phi_tilde) ** 2))
        if gram_trace > 0:
            log_weight = math.log(psi.shape[0] / gram_trace)
    return ThetaVector(
        log_noise_variance=math.log(0.1 * power),
        log_prior_variance=math.log(power / num_plane_waves),
        log_boundary_weight=log_weight,
        log_impedance=0.0 + 0.0j,
    )


@dataclass
class FitResult:
    theta: ThetaVector
    hyperparameters: Hyperparameters
    value: float
    trace: list
    minimize_result: MinimizeResult

    @property
    def converged(self) -> bool:
        return self.minimize_result.converged

    @property
    def message(self) -> str:
        return self.minimize_result.message


def fit_hyperparameters(y, phi, psi, phi_tilde,
                        initial: ThetaVector | None = None,
                        max_line_searches: int = 100,
                        value_tolerance: float = 1e-9) -> FitResult:
    """Minimize J over theta with Polak-Ribiere conjugate gradients.

    Points where the factorization fails are reported to the optimizer as
    non-evaluable, so its line search backtracks past them.
    """
    ml = MarginalLikelihood(y, phi, psi, phi_tilde)
    if initial is None:
        initial = initial_theta(y, phi.shape[1], psi, phi_tilde)

    def fun(x):
        try:
            return ml.value_and_gradient(ThetaVector.from_array(x))
        except FactorizationError:
            return math.inf, None

    result = minimize(fun, initial.to_array(),
                      max_line_searches=max_line_searches,
                      value_tolerance=value_tolerance)
    theta = ThetaVector.from_array(result.x)
    return FitResult(theta, theta.to_hyperparameters(), result.value,
                     list(result.trace), result)


def gradient_check(num_instances: int = 20, thetas_per_instance: int = 5,
                   m: int = 20, p: int = 50, b: int = 30,
                   step: float = 1e-6, seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients
    over random instances; the library's self-test."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_instances):
        phi = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        psi = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
        phi_tilde = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        for _ in range(thetas_per_instance):
            theta = ThetaVector.from_array(rng.uniform(-1.5, 1.5, size=5))
            _, analytic = ml.value_and_gradient(theta)
            numeric = central_differences(
                lambda x: ml.value(ThetaVector.from_array(x)),
                theta.to_array(), step)
            scale = np.maximum(np.abs(numeric), np.abs(analytic))
            scale = np.maximum(scale, 1e-10)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    return worst
