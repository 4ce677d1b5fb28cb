import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from roomwave._linalg import FactorizationError
from roomwave.bayes import Hyperparameters
from roomwave.marglik import (MarginalLikelihood, ThetaVector,
                              central_differences, fit_hyperparameters,
                              gradient_check, initial_theta)

THETA0 = ThetaVector(-1.0, 0.5, -0.3, 0.2 - 0.4j)


def dense_objective(theta, y, phi, psi, phi_tilde):
    """Independent dense-eigendecomposition evaluation of the objective."""
    hp = theta.to_hyperparameters()
    p = phi.shape[1]
    g = hp.impedance * psi + phi_tilde
    sigma = hp.prior_variance * np.linalg.inv(
        np.eye(p) + hp.boundary_weight * (g.conj().T @ g))
    q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
    eigvals, eigvecs = np.linalg.eigh(0.5 * (q + q.conj().T))
    z = eigvecs.conj().T @ y
    return 0.5 * float(np.sum(np.abs(z) ** 2 / eigvals)) + 0.5 * float(
        np.sum(np.log(eigvals)))


def dense_gradient(theta, y, phi, psi, phi_tilde):
    """Independent dense evaluation of the five gradient components
    -(1/2) tr((xi xi^H - Q^{-1}) dQ/dtheta_i) from the P x P prior."""
    hp = theta.to_hyperparameters()
    s2, sa2, mu, beta = (hp.noise_variance, hp.prior_variance,
                         hp.boundary_weight, hp.impedance)
    p = phi.shape[1]
    g = beta * psi + phi_tilde
    s = np.linalg.inv(np.eye(p) + mu * (g.conj().T @ g))
    q = s2 * np.eye(len(y)) + sa2 * phi @ s @ phi.conj().T
    q_inv = np.linalg.inv(q)
    xi = q_inv @ y
    weight = np.outer(xi, xi.conj()) - q_inv

    def trace_term(d_q):
        return -0.5 * np.trace(weight @ d_q)

    d_weight = -sa2 * mu * phi @ s @ g.conj().T @ g @ s @ phi.conj().T
    d_eta = (-sa2 * mu * np.conj(beta)
             * phi @ s @ psi.conj().T @ g @ s @ phi.conj().T)
    g_eta = trace_term(d_eta)
    return np.array([trace_term(s2 * np.eye(len(y))).real,
                     trace_term(sa2 * phi @ s @ phi.conj().T).real,
                     trace_term(d_weight).real,
                     2.0 * g_eta.real, 2.0 * g_eta.imag])


class TestThetaVector:
    def test_array_round_trip(self):
        arr = THETA0.to_array()
        npt.assert_array_equal(ThetaVector.from_array(arr).to_array(), arr)

    def test_hyperparameter_round_trip(self):
        hp = THETA0.to_hyperparameters()
        assert hp.noise_variance == pytest.approx(math.exp(-1.0))
        assert hp.prior_variance == pytest.approx(math.exp(0.5))
        assert hp.boundary_weight == pytest.approx(math.exp(-0.3))
        assert hp.impedance == pytest.approx(np.exp(0.2 - 0.4j))
        back = ThetaVector.from_hyperparameters(hp)
        npt.assert_allclose(back.to_array(), THETA0.to_array(), atol=1e-12)

    def test_overflow_is_non_evaluable(self):
        with pytest.raises(FactorizationError):
            ThetaVector(800.0, 0.0, 0.0, 0j).to_hyperparameters()
        with pytest.raises(FactorizationError):
            ThetaVector(0.0, -800.0, 0.0, 0j).to_hyperparameters()

    def test_underflowing_weight_is_zero(self):
        hp = ThetaVector(0.0, 0.0, -800.0, 0j).to_hyperparameters()
        assert hp.boundary_weight == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ThetaVector(math.nan, 0.0, 0.0, 0j)


class TestObjective:
    def test_matches_dense_eigendecomposition(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=15, p=40, b=25, seed=3)
        value = MarginalLikelihood(y, phi, psi, phi_tilde).value(THETA0)
        oracle = dense_objective(THETA0, y, phi, psi, phi_tilde)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_vanishing_prior_limit(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=4)
        theta = ThetaVector(-0.7, -60.0, 0.0, 0j)
        value = MarginalLikelihood(y, phi, psi, phi_tilde).value(theta)
        s2 = math.exp(-0.7)
        expected = (0.5 * float(np.sum(np.abs(y) ** 2)) / s2
                    + 0.5 * len(y) * math.log(s2))
        assert value == pytest.approx(expected, rel=1e-6)

    def test_zero_data_is_half_logdet(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=5)
        ml = MarginalLikelihood(np.zeros_like(y), phi, psi, phi_tilde)
        value = ml.value(THETA0)
        assert math.isfinite(value)
        oracle = dense_objective(THETA0, np.zeros_like(y), phi, psi, phi_tilde)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_phase_invariance(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=14, p=30, b=18, seed=6)
        ml1 = MarginalLikelihood(y, phi, psi, phi_tilde)
        ml2 = MarginalLikelihood(np.exp(0.73j) * y, phi, psi, phi_tilde)
        v1, g1 = ml1.value_and_gradient(THETA0)
        v2, g2 = ml2.value_and_gradient(THETA0)
        assert v1 == pytest.approx(v2, rel=1e-12)
        npt.assert_allclose(g1, g2, rtol=1e-10)

    def test_shape_validation(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(seed=7)
        with pytest.raises(ValueError):
            MarginalLikelihood(y, phi, psi[:, :-1], phi_tilde[:, :-1])
        with pytest.raises(ValueError):
            MarginalLikelihood(y[:-1], phi, psi, phi_tilde)


class TestGradient:
    def test_matches_finite_differences(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=20, p=50, b=30, seed=8)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        value, grad = ml.value_and_gradient(THETA0)
        assert math.isfinite(value) and grad.shape == (5,)
        numeric = central_differences(
            lambda x: ml.value(ThetaVector.from_array(x)), THETA0.to_array(),
            1e-6)
        npt.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-9)

    def test_gradient_check_suite(self):
        start = time.perf_counter()
        worst = gradient_check(num_instances=20, thetas_per_instance=5)
        elapsed = time.perf_counter() - start
        assert worst < 1e-5
        assert elapsed < 10.0

    def test_mu_zero_kills_boundary_gradients(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=9)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        hp = Hyperparameters(0.5, 1.2, 0.0, np.exp(0.3 + 0.1j))
        _, grad = ml.value_and_gradient_at(hp)
        assert grad[2] == 0.0
        assert grad[3] == 0.0 and grad[4] == 0.0

    def test_empty_boundary_matches_mu_zero(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=10)
        ml_empty = MarginalLikelihood(y, phi, psi[:0], phi_tilde[:0])
        v_empty, g_empty = ml_empty.value_and_gradient(THETA0)
        ml_full = MarginalLikelihood(y, phi, psi, phi_tilde)
        hp = THETA0.to_hyperparameters()
        hp0 = Hyperparameters(hp.noise_variance, hp.prior_variance, 0.0,
                              hp.impedance)
        v_mu0, g_mu0 = ml_full.value_and_gradient_at(hp0)
        assert v_empty == pytest.approx(v_mu0, rel=1e-12)
        npt.assert_allclose(g_empty[:2], g_mu0[:2], rtol=1e-10)

    def test_zero_data_noise_gradient(self, complex_instance):
        """With y = 0 the noise-coordinate gradient is half the trace of
        sigma^2 Q^{-1}, evaluated here from the dense inverse."""
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=11)
        zero = np.zeros_like(y)
        ml = MarginalLikelihood(zero, phi, psi, phi_tilde)
        value, grad = ml.value_and_gradient(THETA0)
        hp = THETA0.to_hyperparameters()
        p = phi.shape[1]
        g = hp.impedance * psi + phi_tilde
        sigma = hp.prior_variance * np.linalg.inv(
            np.eye(p) + hp.boundary_weight * (g.conj().T @ g))
        q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
        expected = 0.5 * hp.noise_variance * np.trace(np.linalg.inv(q)).real
        assert grad[0] == pytest.approx(expected, rel=1e-8)
        assert expected > 0


class TestWideBoundary:
    """B = 80 boundary points against P = 60 plane waves: the boundary
    space is wider than the coefficient space, which the B x B evaluation
    must handle at weak, moderate and dominant boundary weights."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])   # mu * ||G||_2^2
    def test_matches_dense_oracle(self, complex_instance, scale):
        y, phi, psi, phi_tilde = complex_instance(m=30, p=60, b=80, seed=17)
        beta = np.exp(0.2 - 0.4j)
        norm = np.linalg.norm(beta * psi + phi_tilde, 2)
        theta = ThetaVector(-1.0, 0.5, math.log(scale / norm ** 2),
                            0.2 - 0.4j)
        value, grad = MarginalLikelihood(y, phi, psi,
                                         phi_tilde).value_and_gradient(theta)
        oracle = dense_gradient(theta, y, phi, psi, phi_tilde)
        assert value == pytest.approx(
            dense_objective(theta, y, phi, psi, phi_tilde), rel=1e-9)
        npt.assert_allclose(grad, oracle, rtol=1e-9,
                            atol=1e-9 * np.abs(oracle).max())

    def test_dense_gradient_oracle_matches_finite_differences(
            self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=20, b=30, seed=18)
        numeric = central_differences(
            lambda x: dense_objective(ThetaVector.from_array(x), y, phi, psi,
                                      phi_tilde), THETA0.to_array(), 1e-6)
        npt.assert_allclose(dense_gradient(THETA0, y, phi, psi, phi_tilde),
                            numeric, rtol=1e-5, atol=1e-8)


class TestFiniteDifferences:
    def test_exact_on_quadratic(self):
        h = np.array([2.0, -1.0, 0.5, 3.0, 1.5])

        def quadratic(x):
            return float(0.5 * x @ (h * x) + x @ np.ones(5))

        x0 = np.array([0.3, -0.2, 0.8, -0.5, 0.1])
        grad = central_differences(quadratic, x0, step=1e-4)
        npt.assert_allclose(grad, h * x0 + 1.0, atol=1e-10)

    def test_quadratic_convergence_in_step(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=12)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        _, analytic = ml.value_and_gradient(THETA0)

        def err(step):
            numeric = central_differences(
                lambda x: ml.value(ThetaVector.from_array(x)),
                THETA0.to_array(), step)
            return np.max(np.abs(numeric - analytic))

        ratio = err(1e-2) / err(1e-3)
        assert 30 < ratio < 300   # ~quadratic until round-off


class TestInitialTheta:
    def test_boundary_weight_scaling(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=13)
        theta = initial_theta(y, phi.shape[1], psi, phi_tilde)
        gram_trace = float(np.sum(np.abs(psi + phi_tilde) ** 2))
        assert math.exp(theta.log_boundary_weight) * gram_trace == pytest.approx(
            psi.shape[0], rel=1e-12)
        assert theta.log_impedance == 0j

    def test_without_boundary(self, complex_instance):
        y, phi, _, _ = complex_instance(seed=14)
        theta = initial_theta(y, phi.shape[1])
        power = float(np.mean(np.abs(y) ** 2))
        assert theta.log_noise_variance == pytest.approx(math.log(0.1 * power))
        assert theta.log_boundary_weight == 0.0


class TestFit:
    def test_fit_improves_and_traces_decrease(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=18, p=40, b=25, seed=15)
        fit = fit_hyperparameters(y, phi, psi, phi_tilde,
                                  max_line_searches=40)
        trace = np.asarray(fit.trace)
        assert np.all(np.diff(trace) <= 0)
        assert fit.value <= trace[0]

    def test_zero_line_searches_returns_initial(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=20, b=12, seed=16)
        initial = initial_theta(y, phi.shape[1], psi, phi_tilde)
        fit = fit_hyperparameters(y, phi, psi, phi_tilde, initial=initial,
                                  max_line_searches=0)
        npt.assert_array_equal(fit.theta.to_array(), initial.to_array())
        assert len(fit.trace) == 1
