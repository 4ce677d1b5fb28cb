"""Negative log marginal likelihood of the boundary-informed model and its
analytic gradient.

The objective is J = (1/2) y^H Q^{-1} y + (1/2) log|Q| over the
reparametrized hyperparameters

    noise_variance = e^a, prior_variance = e^b,
    boundary_weight = e^d, impedance = e^eta (eta complex),

so positivity constraints disappear and the parameters can span orders of
magnitude. Throughout, theta is the optimizer's real 5-array
[a, b, d, Re eta, Im eta]; `to_hyperparameters` is its one map to the model's
`Hyperparameters`, which `MarginalLikelihood.value` and `value_and_gradient`
take, and `fit_hyperparameters` returns the optimizer's `MinimizeResult`,
whose `x` is the fitted theta. Every gradient component is the trace form
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
with w W, W = xi xi^H - Q^{-1}, so no derivative matrix dQ is formed. An
evaluation releases I + mu G G^H once it is factorized and Psi G^H once it
is multiplied, so it holds at most one B x B temporary besides L.

The precompute writes the Grams in place: one preallocated (4, B, B) stack
filled by `np.matmul(..., out=)` and hermitized in place as (X + X^H) * 0.5,
with one conjugated B x P copy alive at a time. It is bit-identical to
stacking the separately hermitized products, and it has to be: a truncated
fit (the benchmark's `max_line_searches` cap) can end 0.13-0.41 dB
elsewhere in NMSE when one input moves by one ulp, so a rounding change in
a Gram can move reported cells. tests/test_marglik.py checks the stack, the
cross products and value_and_gradient against the direct expressions.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import FactorizationError, chol_factor, hermitize
from .bayes import Hyperparameters
from .optimize import MinimizeResult, minimize

__all__ = [
    "to_hyperparameters",
    "MarginalLikelihood",
    "central_differences",
    "initial_theta",
    "fit_hyperparameters",
    "gradient_check",
]

GRADCHECK_SHAPE = (20, 50, 30)   # M, P, B of each gradient_check instance
GRADCHECK_STEP = 1e-6            # its central-difference step


def to_hyperparameters(theta) -> Hyperparameters:
    """Map theta = [a, b, d, Re eta, Im eta] to the constrained parameters.

    Raises ValueError unless theta has five finite components, and
    FactorizationError when the exponentials leave floating-point range (the
    point is then not evaluable and a line search must backtrack).
    """
    x = np.asarray(theta, dtype=float)
    if x.shape != (5,):
        raise ValueError("theta array must have 5 real components")
    a, b, d, eta = float(x[0]), float(x[1]), float(x[2]), complex(x[3], x[4])
    if not all(math.isfinite(v) for v in (a, b, d, eta.real, eta.imag)):
        raise ValueError("theta components must be finite")
    with np.errstate(over="ignore", under="ignore"):
        s2 = math.exp(a) if a < 709 else math.inf
        sa2 = math.exp(b) if b < 709 else math.inf
        mu = math.exp(d) if d < 709 else math.inf
        beta = np.exp(eta) if eta.real < 709 else complex(math.inf)
    if not (0.0 < s2 < math.inf and 0.0 < sa2 < math.inf
            and mu < math.inf and np.isfinite(beta)):
        raise FactorizationError("hyperparameters overflow floating range")
    return Hyperparameters(s2, sa2, mu, complex(beta))


def _hermitize_in_place(x: np.ndarray) -> None:
    """x <- (x + x^H) * 0.5, rounding as `hermitize` does."""
    np.add(x, x.conj().T, out=x)
    np.multiply(x, 0.5, out=x)


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
            del phi_h
            # C = PhiTilde PhiTilde^H, A = Psi Psi^H and the Hermitian and
            # anti-Hermitian parts H, S of Psi PhiTilde^H = H + S, written
            # into one stack with one conjugated (B, P) copy alive at a time
            b = self.num_boundary
            self._grams = grams = np.empty((4, b, b), dtype=complex)
            c, a, h, s = grams
            conj = phi_tilde.conj()
            np.matmul(phi_tilde, conj.T, out=c)
            np.matmul(psi, conj.T, out=h)                  # the cross term
            del conj
            conj = psi.conj()
            np.matmul(psi, conj.T, out=a)
            del conj
            np.subtract(h, h.conj().T, out=s)
            np.multiply(s, 0.5, out=s)
            for gram in (c, a, h):
                _hermitize_in_place(gram)

    def value(self, hp: Hyperparameters) -> float:
        return self._evaluate(hp, with_gradient=False)[0]

    def value_and_gradient(self, hp: Hyperparameters) -> tuple[float, np.ndarray]:
        return self._evaluate(hp, with_gradient=True)

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

        # assembly, value and gradient all run with overflow and invalid
        # operations raising, so an extreme theta is reported as not
        # evaluable instead of printing numpy warnings
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
                    del a        # at most one B x B temporary beside L
                    g_phi = beta * self._psi_phi + self._pt_phi        # G Phi^H
                    v = b_factor.forward(g_phi)                # L^{-1} G Phi^H
                    k -= (sa2 * mu) * (v.conj().T @ v)
                q = k.copy()
                q.flat[::m + 1] += s2
                q_factor = chol_factor(q)

                xi = q_factor.solve(self.y)
                value = (0.5 * float(np.real(self.y.conj() @ xi))
                         + 0.5 * q_factor.logdet())
                if not math.isfinite(value):
                    raise FactorizationError("non-finite objective")
                if not with_gradient:
                    return value, None

                # grad_i = -(1/2) tr(W dQ/dtheta_i), W = xi xi^H - Q^{-1}
                weight = np.outer(xi, xi.conj()) - q_factor.inverse()
                grad = np.zeros(5)
                grad[0] = -0.5 * s2 * float(np.real(np.trace(weight)))
                grad[1] = -0.5 * float(np.real(np.vdot(k, weight)))
                if boundary_active:
                    # dQ/dd = -sa2 mu w^H w and
                    # dQ/deta* = -sa2 mu conj(beta) psi_c^H w with
                    # w = (I + mu G G^H)^{-1} G Phi^H; the traces are inner
                    # products with w W, so no M x M derivative is formed
                    w = b_factor.backward(v)
                    w_weight = w @ weight
                    grad[2] = 0.5 * sa2 * mu * float(
                        np.real(np.vdot(w, w_weight)))
                    # Psi G^H = conj(beta) A + H + S, released once
                    # multiplied
                    psi_g_w = self._combine(
                        np.array([0.0, np.conj(beta), 1.0, 1.0])) @ w
                    psi_c = self._psi_phi - mu * psi_g_w
                    g_eta = (0.5 * sa2 * mu * np.conj(beta)
                             * np.vdot(psi_c, w_weight))
                    grad[3] = 2.0 * float(np.real(g_eta))
                    grad[4] = 2.0 * float(np.imag(g_eta))
            except (FloatingPointError, OverflowError) as exc:
                raise FactorizationError(
                    f"overflow while evaluating J: {exc}") from exc
        if not np.all(np.isfinite(grad)):
            raise FactorizationError("non-finite gradient")
        return value, grad


# -- spec-level operations ------------------------------------------------


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


def initial_theta(y, num_plane_waves: int, psi=None, phi_tilde=None) -> np.ndarray:
    """Data-scaled neutral start theta.

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
    return np.array([math.log(0.1 * power), math.log(power / num_plane_waves),
                     log_weight, 0.0, 0.0])


def fit_hyperparameters(y, phi, psi, phi_tilde,
                        max_line_searches: int = 100) -> MinimizeResult:
    """Minimize J over theta with Polak-Ribiere conjugate gradients from
    `initial_theta`; the result's `x` is the fitted theta.

    Points where the factorization fails are reported to the optimizer as
    non-evaluable, so its line search backtracks past them.
    """
    ml = MarginalLikelihood(y, phi, psi, phi_tilde)

    def fun(x):
        try:
            return ml.value_and_gradient(to_hyperparameters(x))
        except FactorizationError:
            return math.inf, None

    return minimize(fun, initial_theta(y, phi.shape[1], psi, phi_tilde),
                    max_line_searches=max_line_searches)


def gradient_check(num_instances: int = 20, thetas_per_instance: int = 5,
                   seed: int = 0) -> float:
    """Max norm-wise relative error between analytic and finite-difference
    gradients over random instances; the library's self-test.

    Each theta scores ||analytic - numeric|| / max(||numeric||,
    ||analytic||, 1e-10), so a small component's central-difference
    roundoff is measured against the whole gradient, not against itself.
    """
    rng = np.random.default_rng(seed)
    m, p, b = GRADCHECK_SHAPE
    worst = 0.0
    for _ in range(num_instances):
        phi = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        psi = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
        phi_tilde = rng.standard_normal((b, p)) + 1j * rng.standard_normal((b, p))
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        for _ in range(thetas_per_instance):
            theta = rng.uniform(-1.5, 1.5, size=5)
            _, analytic = ml.value_and_gradient(to_hyperparameters(theta))
            numeric = central_differences(
                lambda x: ml.value(to_hyperparameters(x)), theta,
                GRADCHECK_STEP)
            scale = max(np.linalg.norm(numeric), np.linalg.norm(analytic),
                        1e-10)
            worst = max(worst,
                        float(np.linalg.norm(analytic - numeric)) / scale)
    return worst
