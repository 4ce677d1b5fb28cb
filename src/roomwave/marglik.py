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
whose `x` is the fitted theta, with the evaluator. Every gradient component
is the trace form -(1/2) tr((xi xi^H - Q^{-1}) dQ/dtheta_i); the impedance
component is the derivative with respect to eta* of the (non-holomorphic)
real objective, and the real-coordinate gradient is (2 Re g, 2 Im g) for
that complex derivative.

Evaluation works in measurement space: Q is only M x M, and all
boundary-dependent quantities reduce to four B x B Grams, PhiTilde PhiTilde^H,
Psi Psi^H and the Hermitian and anti-Hermitian parts of Psi PhiTilde^H,
precomputed once per geometry. An empty cloud (B = 0) or mu = 0 takes the
same path, on 0 x 0 or zero-weighted terms, and gives the isotropic ridge
objective of Q = sigma_alpha^2 Phi Phi^H + sigma^2 I exactly: empty products
are exact zeros, and K - 0 = K. With G = beta Psi + PhiTilde, one evaluation
of J costs
  - one pass over the Grams for I + mu G G^H,
  - its B x B Cholesky factor L,
  - one B x M forward solve V = L^{-1} G Phi^H, giving
    K = sigma_alpha^2 (Phi Phi^H - mu V^H V), and the M x M Cholesky of Q.
`MarginalLikelihood.prior` forms L, V and K, and `bayes.build_posterior`
the factor of Q = K + sigma^2 I and xi = Q^{-1} y. The posterior after the
fit reads the same two calls at the fitted theta, so it factorizes nothing
the fit did not. The gradient adds the back solve w = L^{-H} V, a second
Gram pass for Psi G^H and one B x B times B x M product; every trace is an
inner product with w W, W = xi xi^H - Q^{-1}, so no derivative matrix dQ is
formed. It is about half an evaluation's cost, and it is skipped where J
exceeds the caller's `cap`: the line search never reads the gradient at
trial points above its starting value. An evaluation releases I + mu G G^H once it is
factorized, L and V once w = L^{-H} V is formed, and Psi G^H once it is
multiplied, so besides the Grams it holds at most two B x B matrices, and
two only while L is being factorized.

The precompute writes the Grams in place, into a preallocated (4, B, B)
stack. Each raw product, C = PhiTilde PhiTilde^H, then A = Psi Psi^H, then
X = Psi PhiTilde^H, is written into the S slot by `_times_h`, one zgemm
call that reads its right operand through BLAS's conjugate-transpose flag,
so no conjugated copy of Psi, PhiTilde, Phi or the prediction rows is made.
The product's conjugate transpose then goes into its own slot by
`np.conjugate(..., out=)`; C and A are finished there in place as
(Y^H + Y) * 0.5, and H = (X + X^H) * 0.5 and S = (X - X^H) * 0.5 one block
of GRAM_BLOCK rows at a time from a copy of that block of X, so no B x B
temporary is made either. Phi Phi^H is the one-shot (Y + Y^H) * 0.5. Each
step is the one-shot expression's own element-wise operation, IEEE addition
is commutative, and the flagged zgemm gives the bytes of
`left @ right.conj().T`, so the stack is bit-identical to stacking the
one-shot expressions, and it has to be: a truncated fit (the benchmark's
`max_line_searches` cap) can end 0.13-0.41 dB elsewhere in NMSE when one
input moves by one ulp, so a rounding change in a Gram can move reported
cells. Where a dimension of a product is below 2, `_times_h` takes
`np.matmul` on the conjugated copy instead: numpy then takes its gemv or
dot path, which rounds differently from zgemm. tests/test_marglik.py
checks the stack, the cross products, the target products and
value_and_gradient against the direct expressions by bytes, at those
small dimensions included.

Psi and PhiTilde are (B, P), the largest arrays of the fit, and nothing after
the precompute reads them: the evaluator keeps only the Grams, the two
(B, M) cross products and Phi Phi^H, and `fit_hyperparameters` releases its
references before the optimizer starts, so the loop holds no (B, P) matrix
unless the caller keeps one. Given the rows phi_r (J, P) of the points to
predict at, the precompute also forms the products that only the posterior
reads: Psi phi_r^H and PhiTilde phi_r^H (B, J), phi_r Phi^H (J, M) and
||phi_r||^2. They are separate products, so the fit's own arrays keep
their bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import zgemm

from ._linalg import FactorizationError, chol_factor
from .bayes import Hyperparameters, build_posterior
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
GRAM_BLOCK = 64                  # rows per block: H/S split, start theta


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


def _times_h(left: np.ndarray, right: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """left @ right^H into `out` (a new array by default): one zgemm call
    on the conjugate-transpose flag, written into out.T in place. Below 2
    in any dimension it is `np.matmul` on the conjugated copy, whose bytes
    there are numpy's gemv or dot path's."""
    if min(left.shape[0], right.shape[0], left.shape[1]) < 2:
        return np.matmul(left, right.conj().T, out=out)
    return zgemm(1.0, right.T, left.T, trans_a=2, overwrite_c=True,
                 c=None if out is None else out.T).T


class MarginalLikelihood:
    """Evaluator bound to one dataset (y, Phi, Psi, PhiTilde) and the rows
    of the prediction points (none by default).

    Construction precomputes the Gram blocks; value() and
    value_and_gradient() may then be called for many hyperparameter
    settings at M/B-space cost.
    """

    def __init__(self, y, phi: np.ndarray, psi: np.ndarray,
                 phi_tilde: np.ndarray, targets: np.ndarray | None = None):
        y = np.asarray(y, dtype=complex).reshape(-1)
        if len(y) < 1:
            raise ValueError("need at least one measurement")
        if phi.shape[0] != len(y):
            raise ValueError("Phi row count must match y")
        if psi.shape != phi_tilde.shape or psi.shape[1] != phi.shape[1]:
            raise ValueError("Psi/PhiTilde shapes inconsistent with Phi")
        if targets is None:
            targets = np.zeros((0, phi.shape[1]), dtype=complex)
        if targets.ndim != 2 or targets.shape[1] != phi.shape[1]:
            raise ValueError("prediction rows inconsistent with Phi")
        self.y = y
        self.num_boundary = b = psi.shape[0]
        g = _times_h(phi, phi)
        self._phi_gram = (g + g.conj().T) * 0.5
        del g
        self._psi_phi = _times_h(psi, phi)                 # (B, M)
        self._pt_phi = _times_h(phi_tilde, phi)            # (B, M)
        # the prediction points' products, which only the posterior reads
        self.targets_phi = _times_h(targets, phi)          # (J, M)
        self.psi_targets = _times_h(psi, targets)          # (B, J)
        self.pt_targets = _times_h(phi_tilde, targets)     # (B, J)
        self.target_power = np.sum(np.abs(targets) ** 2, axis=1)
        # C = PhiTilde PhiTilde^H, A = Psi Psi^H and the Hermitian and
        # anti-Hermitian parts H, S of X = Psi PhiTilde^H = H + S: each raw
        # product goes into S's slot, its conjugate transpose into its own
        # slot (module docstring)
        self._grams = grams = np.empty((4, b, b), dtype=complex)
        c, a, h, s = grams
        for gram, left, right in ((c, phi_tilde, phi_tilde), (a, psi, psi),
                                  (h, psi, phi_tilde)):
            _times_h(left, right, out=s)
            np.conjugate(s.T, out=gram)
            if gram is not h:
                gram += s
                gram *= 0.5
        for i in range(0, b, GRAM_BLOCK):
            rows = slice(i, i + GRAM_BLOCK)
            x = s[rows].copy()
            s[rows] -= h[rows]
            s[rows] *= 0.5
            h[rows] += x
            h[rows] *= 0.5
            del x       # before the next block's copy is made

    def value(self, hp: Hyperparameters) -> float:
        return self._evaluate(hp, cap=-math.inf)[0]

    def value_and_gradient(self, hp: Hyperparameters, cap: float = math.inf):
        """(J, gradient), or (J, None) without computing the gradient when
        J > cap; the value is the same either way."""
        return self._evaluate(hp, cap)

    def prior(self, hp: Hyperparameters):
        """(L, V, K) at `hp`: the Cholesky factor L of I + mu G G^H, formed
        from the Grams, V = L^{-1} G Phi^H and K = sigma_alpha^2 (Phi Phi^H
        - mu V^H V), the prior covariance of the field at the microphones.
        `bayes.build_posterior(y, K, sigma^2)` completes the value path."""
        sa2 = hp.prior_variance
        mu = hp.boundary_weight
        beta = hp.impedance
        # I + mu G G^H with G G^H = C + |beta|^2 A + 2 Re(beta) H
        # + 2i Im(beta) S, every term Hermitian; Cholesky reads only
        # the lower triangle, so no symmetrization is needed
        a = self._combine(mu * np.array(
            [1.0, abs(beta) ** 2, 2.0 * beta.real, 2.0j * beta.imag]))
        a.flat[::self.num_boundary + 1] += 1.0
        b_factor = chol_factor(a)
        del a
        v = b_factor.forward(beta * self._psi_phi + self._pt_phi)
        k = sa2 * self._phi_gram
        k -= (sa2 * mu) * (v.conj().T @ v)
        return b_factor, v, k

    def _combine(self, coefficients) -> np.ndarray:
        """sum_i c_i * Gram_i as one pass over the stacked Grams."""
        return np.tensordot(coefficients, self._grams, axes=1)

    def _evaluate(self, hp: Hyperparameters, cap: float):
        s2 = hp.noise_variance
        sa2 = hp.prior_variance
        mu = hp.boundary_weight
        beta = hp.impedance

        # assembly, value and gradient all run with overflow and invalid
        # operations raising, so an extreme theta is reported as not
        # evaluable instead of printing numpy warnings
        with np.errstate(over="raise", invalid="raise"):
            try:
                b_factor, v, k = self.prior(hp)
                posterior = build_posterior(self.y, k, s2)
                q_factor, xi = posterior.q_factor, posterior.xi
                value = (0.5 * float(np.real(self.y.conj() @ xi))
                         + 0.5 * q_factor.logdet())
                if not math.isfinite(value):
                    raise FactorizationError("non-finite objective")
                if value > cap:
                    return value, None

                # grad_i = -(1/2) tr(W dQ/dtheta_i), W = xi xi^H - Q^{-1};
                # dQ/dd = -sa2 mu w^H w and dQ/deta* = -sa2 mu conj(beta)
                # psi_c^H w with w = (I + mu G G^H)^{-1} G Phi^H, so the
                # boundary traces are inner products with w W and no M x M
                # derivative is formed
                weight = np.outer(xi, xi.conj()) - q_factor.inverse()
                grad = np.zeros(5)
                grad[0] = -0.5 * s2 * float(np.real(np.trace(weight)))
                grad[1] = -0.5 * float(np.real(np.vdot(k, weight)))
                w = b_factor.backward(v)
                del b_factor, v
                w_weight = w @ weight
                grad[2] = 0.5 * sa2 * mu * float(np.real(np.vdot(w, w_weight)))
                # Psi G^H = conj(beta) A + H + S, released once multiplied
                psi_g_w = self._combine(
                    np.array([0.0, np.conj(beta), 1.0, 1.0])) @ w
                psi_c = self._psi_phi - mu * psi_g_w
                g_eta = 0.5 * sa2 * mu * np.conj(beta) * np.vdot(psi_c, w_weight)
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


def initial_theta(y, num_plane_waves: int, psi: np.ndarray,
                  phi_tilde: np.ndarray) -> np.ndarray:
    """Data-scaled neutral start theta.

    Noise starts at a tenth of the signal power and the prior scale makes
    the prior predictive power match the signal power. The boundary weight
    starts at B / ||Psi + PhiTilde||_F^2, i.e. the mean eigenvalue of the
    boundary Gram term is one at the initial unit impedance: a raw weight of
    one would let the boundary term dominate the prior by orders of
    magnitude and reliably trap the optimizer in an all-noise optimum.
    Without a boundary term (an empty cloud) it starts at one.
    """
    power = float(np.mean(np.abs(np.asarray(y)) ** 2))
    power = max(power, 1e-30)
    # |Psi + PhiTilde|^2 filled into one real (B, P) array a block of
    # GRAM_BLOCK rows at a time, then summed as one reduction over the
    # whole array: a blockwise sum would round differently
    squares = np.empty(psi.shape)
    for i in range(0, psi.shape[0], GRAM_BLOCK):
        rows = slice(i, i + GRAM_BLOCK)
        squares[rows] = np.abs(psi[rows] + phi_tilde[rows]) ** 2
    gram_trace = float(np.sum(squares))
    log_weight = math.log(psi.shape[0] / gram_trace) if gram_trace > 0 else 0.0
    return np.array([math.log(0.1 * power), math.log(power / num_plane_waves),
                     log_weight, 0.0, 0.0])


def fit_hyperparameters(y, phi, psi, phi_tilde, max_line_searches: int = 100,
                        targets: np.ndarray | None = None
                        ) -> tuple[MinimizeResult, MarginalLikelihood]:
    """Minimize J over theta with Polak-Ribiere conjugate gradients from
    `initial_theta`; returns the optimizer's result, whose `x` is the fitted
    theta, and the evaluator, built with the prediction rows `targets`
    (J, P), so that `bayes` reads the posterior off it.

    Points where the factorization fails are reported to the optimizer as
    non-evaluable, so its line search backtracks past them. Each optimizer
    evaluation is one `value_and_gradient` call, capped at the line search's
    starting value.

    Psi and PhiTilde are read only before the loop: the start theta first,
    which holds one real (B, P) array plus a block of GRAM_BLOCK rows and
    so does not sit on top of the Gram stack, then the precompute. This
    function then drops its references to both, so the loop holds no
    (B, P) matrix unless the caller keeps one.
    """
    theta0 = initial_theta(y, phi.shape[1], psi, phi_tilde)
    ml = MarginalLikelihood(y, phi, psi, phi_tilde, targets)
    del psi, phi_tilde

    def fun(x, cap):
        try:
            return ml.value_and_gradient(to_hyperparameters(x), cap)
        except FactorizationError:
            return math.inf, None

    return minimize(fun, theta0, max_line_searches=max_line_searches), ml


def gradient_check(num_instances: int = 20, thetas_per_instance: int = 5,
                   seed: int = 0) -> float:
    """Max norm-wise relative error between analytic and finite-difference
    gradients over random instances; the library's self-test.

    Each theta scores ||analytic - numeric|| / max(||numeric||,
    ||analytic||, 1e-10), so a small component's central-difference
    roundoff is measured against the whole gradient, not against itself.
    A count below one raises ValueError: it would check nothing and pass.
    """
    if min(num_instances, thetas_per_instance) < 1:
        raise ValueError("gradient_check needs at least one instance and "
                         "one theta per instance")
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
