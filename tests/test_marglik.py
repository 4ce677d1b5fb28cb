import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave import marglik
from roomwave._linalg import FactorizationError, chol_factor
from roomwave.bayes import Hyperparameters
from roomwave.geometry import RoomSpec, sample_boundary
from roomwave.marglik import (MarginalLikelihood, central_differences,
                              fit_hyperparameters, gradient_check,
                              initial_theta, to_hyperparameters)
from roomwave.optimize import minimize
from roomwave.planewaves import (PlaneWaveDictionary, build_phi,
                                 build_phi_tilde, build_psi,
                                 fibonacci_directions, wavenumber)

THETA0 = np.array([-1.0, 0.5, -0.3, 0.2, -0.4])


def hermitized(x):
    """The one-shot Hermitian part, the oracle of the in-place precompute."""
    return 0.5 * (x + x.conj().T)


def dense_objective(theta, y, phi, psi, phi_tilde):
    """Independent dense-eigendecomposition evaluation of the objective."""
    hp = to_hyperparameters(theta)
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
    hp = to_hyperparameters(theta)
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


def ridge_value_and_gradient(y, phi, hp):
    """J and its gradient for the isotropic prior, evaluated in M space
    from Q = sigma_alpha^2 Phi Phi^H + sigma^2 I alone; the three boundary
    components are zero."""
    k = hp.prior_variance * hermitized(phi @ phi.conj().T)
    q = k.copy()
    q.flat[::len(y) + 1] += hp.noise_variance
    q_factor = chol_factor(q)
    xi = q_factor.solve(y)
    value = 0.5 * float(np.real(y.conj() @ xi)) + 0.5 * q_factor.logdet()
    weight = np.outer(xi, xi.conj()) - q_factor.inverse()
    grad = np.zeros(5)
    grad[0] = -0.5 * hp.noise_variance * float(np.real(np.trace(weight)))
    grad[1] = -0.5 * float(np.real(np.vdot(k, weight)))
    return value, grad


class DirectPrecompute(MarginalLikelihood):
    """Oracle: the precompute as the direct expressions, each Gram a
    separately hermitized product and the four stacked by np.stack."""

    def __init__(self, y, phi, psi, phi_tilde, targets):
        self.y = np.asarray(y, dtype=complex)
        self.num_boundary = psi.shape[0]
        self._phi_gram = hermitized(phi @ phi.conj().T)
        self._psi_phi = psi @ phi.conj().T
        self._pt_phi = phi_tilde @ phi.conj().T
        cross = psi @ phi_tilde.conj().T
        self._grams = np.stack([
            hermitized(phi_tilde @ phi_tilde.conj().T),
            hermitized(psi @ psi.conj().T),
            hermitized(cross),
            0.5 * (cross - cross.conj().T),
        ])
        self.targets_phi = targets @ phi.conj().T
        self.psi_targets = psi @ targets.conj().T
        self.pt_targets = phi_tilde @ targets.conj().T
        self.target_power = np.sum(np.abs(targets) ** 2, axis=1)


def boundary_instance(m, p, b, seed=0):
    """(y, Phi, Psi, PhiTilde) of the room model at 300 Hz."""
    room = RoomSpec()
    dictionary = PlaneWaveDictionary(wavenumber(300.0, 343.0),
                                     fibonacci_directions(p))
    cloud = sample_boundary(room, b, seed=seed)
    rng = np.random.default_rng(seed)
    mics = rng.uniform(0.2, 0.8, (m, 3)) * room.dimensions
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return (y, build_phi(dictionary, mics), build_psi(dictionary, cloud),
            build_phi_tilde(dictionary, cloud))


class TestInPlacePrecompute:
    """The Grams are written in place: each raw product into the stack's
    last slot, its conjugate transpose into its own slot, and the cross
    term split one row block at a time; truncated fits move by tenths of a
    dB when an input moves by one ulp, so they must equal the direct
    expressions byte for byte (signed zeros included)."""

    # B at and beside the 64-row blocks of the H/S split; a B, M, P or J
    # below 2 takes `_times_h`'s matmul path, every other product zgemm's
    @pytest.mark.parametrize("p", [1, 50, 200, 1000])
    @pytest.mark.parametrize("b", [0, 1, 2, 7, 63, 64, 65, 100, 128, 129, 300])
    def test_bit_identical_to_direct_expressions(self, b, p):
        y, phi, psi, phi_tilde = boundary_instance(30, p, b, seed=b)
        rng = np.random.default_rng(b)
        rows = rng.standard_normal((5, p)) + 1j * rng.standard_normal((5, p))
        start = initial_theta(y, p, psi, phi_tilde)
        mu_zero = start + np.array([0.0, 0.0, -800.0, 0.0, 0.0])
        assert to_hyperparameters(mu_zero).boundary_weight == 0.0
        for m, j in itertools.product([1, 2, 30], [0, 1, 5]):
            args = y[:m], phi[:m], psi, phi_tilde, rows[:j]
            ml = MarginalLikelihood(*args)
            oracle = DirectPrecompute(*args)
            for name in ("_phi_gram", "_grams", "_psi_phi", "_pt_phi",
                         "targets_phi", "psi_targets", "pt_targets",
                         "target_power"):
                assert getattr(ml, name).tobytes() == \
                    getattr(oracle, name).tobytes(), (name, m, j)
            for theta in (start,
                          start + np.array([0.5, -0.5, 1.0, 0.3, -0.2]),
                          mu_zero):
                hp = to_hyperparameters(theta)
                value, grad = ml.value_and_gradient(hp)
                oracle_value, oracle_grad = oracle.value_and_gradient(hp)
                assert value == oracle_value, (m, j)
                assert np.array_equal(grad, oracle_grad), (m, j)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_bounded(self):
        """(M, P, B) = (100, 1000, 300), inputs built before tracing; each
        budget is the arrays named below, in bytes, with 5 % slack.

        The precompute holds the (4, B, B) Gram stack, the two (B, M) cross
        products, Phi Phi^H and the H/S split's copy of GRAM_BLOCK rows of
        X: 7.2 MB (15.7 MB for the direct expressions, 11.7 MB with one
        conjugated (B, P) copy). An evaluation holds two B x B matrices
        while it factorizes I + mu G G^H, three (B, M) and four (M, M) work
        arrays: 3.5 MB (7.85 MB keeping I + mu G G^H and Psi G^H alive to
        the end, 5.93 MB keeping L, V and G Phi^H alive beside Psi G^H).
        """
        m, p, b = 100, 1000, 300
        y, phi, psi, phi_tilde = boundary_instance(m, p, b)
        precompute = 16 * (4 * b * b + 2 * b * m + m * m
                           + marglik.GRAM_BLOCK * b)
        assert self._peak(lambda: MarginalLikelihood(
            y, phi, psi, phi_tilde)) <= 1.05 * precompute
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        hp = to_hyperparameters(initial_theta(y, p, psi, phi_tilde))
        assert hp.boundary_weight > 0
        evaluation = 16 * (2 * b * b + 3 * b * m + 4 * m * m)
        assert self._peak(
            lambda: ml.value_and_gradient(hp)) <= 1.05 * evaluation

    @pytest.mark.parametrize("m", [64, 65, 100, 129])
    def test_phi_gram_bit_identical(self, m):
        """Phi Phi^H is the one-shot Hermitian part of its product, byte
        for byte; M = 100 is the workloads' microphone count."""
        y, phi, psi, phi_tilde = boundary_instance(m, 1000, 7, seed=m)
        phi_gram = MarginalLikelihood(y, phi, psi, phi_tilde)._phi_gram
        assert phi_gram.tobytes() == hermitized(phi @ phi.conj().T).tobytes()


class TestThetaVector:
    """theta, the optimizer's 5-array, and its map to_hyperparameters."""

    def test_hyperparameter_round_trip(self):
        hp = to_hyperparameters(THETA0)
        assert hp.noise_variance == pytest.approx(math.exp(-1.0))
        assert hp.prior_variance == pytest.approx(math.exp(0.5))
        assert hp.boundary_weight == pytest.approx(math.exp(-0.3))
        assert hp.impedance == pytest.approx(np.exp(0.2 - 0.4j))
        log_impedance = complex(np.log(hp.impedance))
        back = [math.log(hp.noise_variance), math.log(hp.prior_variance),
                math.log(hp.boundary_weight), log_impedance.real,
                log_impedance.imag]
        npt.assert_allclose(back, THETA0, atol=1e-12)

    def test_overflow_is_non_evaluable(self):
        with pytest.raises(FactorizationError):
            to_hyperparameters([800.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(FactorizationError):
            to_hyperparameters([0.0, -800.0, 0.0, 0.0, 0.0])

    def test_underflowing_weight_is_zero(self):
        hp = to_hyperparameters([0.0, 0.0, -800.0, 0.0, 0.0])
        assert hp.boundary_weight == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            to_hyperparameters([math.nan, 0.0, 0.0, 0.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            to_hyperparameters(THETA0[:4])


class TestObjective:
    def test_matches_dense_eigendecomposition(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=15, p=40, b=25, seed=3)
        value = MarginalLikelihood(y, phi, psi, phi_tilde).value(
            to_hyperparameters(THETA0))
        oracle = dense_objective(THETA0, y, phi, psi, phi_tilde)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_vanishing_prior_limit(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=4)
        hp = to_hyperparameters([-0.7, -60.0, 0.0, 0.0, 0.0])
        value = MarginalLikelihood(y, phi, psi, phi_tilde).value(hp)
        s2 = math.exp(-0.7)
        expected = (0.5 * float(np.sum(np.abs(y) ** 2)) / s2
                    + 0.5 * len(y) * math.log(s2))
        assert value == pytest.approx(expected, rel=1e-6)

    def test_zero_data_is_half_logdet(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=5)
        ml = MarginalLikelihood(np.zeros_like(y), phi, psi, phi_tilde)
        value = ml.value(to_hyperparameters(THETA0))
        assert math.isfinite(value)
        oracle = dense_objective(THETA0, np.zeros_like(y), phi, psi, phi_tilde)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_phase_invariance(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=14, p=30, b=18, seed=6)
        ml1 = MarginalLikelihood(y, phi, psi, phi_tilde)
        ml2 = MarginalLikelihood(np.exp(0.73j) * y, phi, psi, phi_tilde)
        hp = to_hyperparameters(THETA0)
        v1, g1 = ml1.value_and_gradient(hp)
        v2, g2 = ml2.value_and_gradient(hp)
        assert v1 == pytest.approx(v2, rel=1e-12)
        npt.assert_allclose(g1, g2, rtol=1e-10)

    def test_shape_validation(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(seed=7)
        with pytest.raises(ValueError):
            MarginalLikelihood(y, phi, psi[:, :-1], phi_tilde[:, :-1])
        with pytest.raises(ValueError, match="prediction rows"):
            MarginalLikelihood(y, phi, psi, phi_tilde, phi[:, :-1])
        with pytest.raises(ValueError):
            MarginalLikelihood(y[:-1], phi, psi, phi_tilde)


# (M, P, B): square-ish, no boundary, B > P, a single measurement, M > P
EXTREME_SHAPES = [(8, 12, 6), (8, 12, 0), (6, 8, 14), (1, 3, 2), (10, 5, 4)]


def random_evaluator(m, p, b, seed):
    gen = np.random.default_rng(seed)

    def draw(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    return MarginalLikelihood(draw(m), draw(m, p), draw(b, p), draw(b, p))


EXTREME_EVALUATORS = [random_evaluator(*shape, seed=40 + i)
                      for i, shape in enumerate(EXTREME_SHAPES)]
# exp overflows above 709.78 and reaches zero below -745.13
THETA_COMPONENT = st.one_of(
    st.sampled_from([-760.0, -745.2, -745.0, -709.0, 0.0, 354.0, 356.0,
                     709.0, 709.8, 760.0]),
    st.floats(-760.0, 760.0))


class TestExtremeTheta:
    def test_large_impedance_is_non_evaluable(self, complex_instance):
        """|beta|^2 = e^800 overflows while assembling I + mu G G^H."""
        ml = MarginalLikelihood(*complex_instance(m=8, p=12, b=6, seed=19))
        hp = to_hyperparameters([0.0, 0.0, 0.0, 400.0, 0.0])
        with pytest.raises(FactorizationError):
            ml.value_and_gradient(hp)
        with pytest.raises(FactorizationError):
            ml.value(hp)

    @settings(max_examples=300, deadline=None)
    @given(ml=st.sampled_from(EXTREME_EVALUATORS),
           theta=st.lists(THETA_COMPONENT, min_size=5, max_size=5))
    def test_finite_or_non_evaluable(self, ml, theta):
        """Anywhere in [-760, 760]^5 an evaluation is either finite or
        reported as not evaluable, so a line search can back off."""
        try:
            value, grad = ml.value_and_gradient(to_hyperparameters(theta))
        except FactorizationError:
            return
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestGradient:
    def test_matches_finite_differences(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=20, p=50, b=30, seed=8)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)
        value, grad = ml.value_and_gradient(to_hyperparameters(THETA0))
        assert math.isfinite(value) and grad.shape == (5,)
        numeric = central_differences(
            lambda x: ml.value(to_hyperparameters(x)), THETA0, 1e-6)
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
        _, grad = ml.value_and_gradient(hp)
        assert grad[2] == 0.0
        assert grad[3] == 0.0 and grad[4] == 0.0

    def test_empty_boundary_matches_mu_zero(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=10)
        ml_empty = MarginalLikelihood(y, phi, psi[:0], phi_tilde[:0])
        hp = to_hyperparameters(THETA0)
        v_empty, g_empty = ml_empty.value_and_gradient(hp)
        ml_full = MarginalLikelihood(y, phi, psi, phi_tilde)
        hp0 = Hyperparameters(hp.noise_variance, hp.prior_variance, 0.0,
                              hp.impedance)
        v_mu0, g_mu0 = ml_full.value_and_gradient(hp0)
        assert v_empty == pytest.approx(v_mu0, rel=1e-12)
        npt.assert_allclose(g_empty[:2], g_mu0[:2], rtol=1e-10)

    @pytest.mark.parametrize("case", ["empty cloud", "mu = 0"])
    def test_no_boundary_term_is_m_space_ridge_bit_for_bit(
            self, complex_instance, case):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=30, b=20, seed=10)
        hp = to_hyperparameters(THETA0)
        if case == "empty cloud":
            psi, phi_tilde = psi[:0], phi_tilde[:0]
        else:
            hp = dataclasses.replace(hp, boundary_weight=0.0)
        value, grad = MarginalLikelihood(
            y, phi, psi, phi_tilde).value_and_gradient(hp)
        ridge_value, ridge_grad = ridge_value_and_gradient(y, phi, hp)
        assert value == ridge_value
        assert np.array_equal(grad, ridge_grad)

    def test_zero_data_noise_gradient(self, complex_instance):
        """With y = 0 the noise-coordinate gradient is half the trace of
        sigma^2 Q^{-1}, evaluated here from the dense inverse."""
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=11)
        zero = np.zeros_like(y)
        ml = MarginalLikelihood(zero, phi, psi, phi_tilde)
        hp = to_hyperparameters(THETA0)
        value, grad = ml.value_and_gradient(hp)
        p = phi.shape[1]
        g = hp.impedance * psi + phi_tilde
        sigma = hp.prior_variance * np.linalg.inv(
            np.eye(p) + hp.boundary_weight * (g.conj().T @ g))
        q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
        expected = 0.5 * hp.noise_variance * np.trace(np.linalg.inv(q)).real
        assert grad[0] == pytest.approx(expected, rel=1e-8)
        assert expected > 0


class TestGradientCap:
    def test_cap_below_value_returns_value_only(self, complex_instance):
        ml = MarginalLikelihood(*complex_instance(m=12, p=30, b=20, seed=20))
        hp = to_hyperparameters(THETA0)
        value = ml.value(hp)
        capped, grad = ml.value_and_gradient(hp, cap=value - 1e-9)
        assert capped == value and grad is None
        full_value, full_grad = ml.value_and_gradient(hp)
        at_cap = ml.value_and_gradient(hp, cap=value)
        assert at_cap[0] == full_value == value
        assert np.array_equal(at_cap[1], full_grad)

    def test_fit_matches_uncapped_fit(self, complex_instance, monkeypatch):
        """Skipping gradients above the line's start changes no iterate."""
        y, phi, psi, phi_tilde = complex_instance(m=18, p=40, b=25, seed=15)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde)

        def uncapped(x, cap):
            try:
                return ml.value_and_gradient(to_hyperparameters(x))
            except FactorizationError:
                return math.inf, None

        full = minimize(uncapped, initial_theta(y, phi.shape[1], psi,
                                                phi_tilde), 40)
        skipped = [0]
        original = MarginalLikelihood.value_and_gradient

        def counting(self, hp, cap=math.inf):
            value, grad = original(self, hp, cap)
            skipped[0] += grad is None
            return value, grad

        monkeypatch.setattr(marglik.MarginalLikelihood, "value_and_gradient",
                            counting)
        fit, _ = fit_hyperparameters(y, phi, psi, phi_tilde,
                                     max_line_searches=40)
        for name, value in dataclasses.asdict(fit).items():
            npt.assert_array_equal(value, getattr(full, name), name)
        assert skipped[0] > 0


class TestWideBoundary:
    """B = 80 boundary points against P = 60 plane waves: the boundary
    space is wider than the coefficient space, which the B x B evaluation
    must handle at weak, moderate and dominant boundary weights."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])   # mu * ||G||_2^2
    def test_matches_dense_oracle(self, complex_instance, scale):
        y, phi, psi, phi_tilde = complex_instance(m=30, p=60, b=80, seed=17)
        beta = np.exp(0.2 - 0.4j)
        norm = np.linalg.norm(beta * psi + phi_tilde, 2)
        theta = np.array([-1.0, 0.5, math.log(scale / norm ** 2), 0.2, -0.4])
        value, grad = MarginalLikelihood(
            y, phi, psi, phi_tilde).value_and_gradient(to_hyperparameters(theta))
        oracle = dense_gradient(theta, y, phi, psi, phi_tilde)
        assert value == pytest.approx(
            dense_objective(theta, y, phi, psi, phi_tilde), rel=1e-9)
        npt.assert_allclose(grad, oracle, rtol=1e-9,
                            atol=1e-9 * np.abs(oracle).max())

    def test_dense_gradient_oracle_matches_finite_differences(
            self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=12, p=20, b=30, seed=18)
        numeric = central_differences(
            lambda x: dense_objective(x, y, phi, psi, phi_tilde), THETA0,
            1e-6)
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
        _, analytic = ml.value_and_gradient(to_hyperparameters(THETA0))

        def err(step):
            numeric = central_differences(
                lambda x: ml.value(to_hyperparameters(x)), THETA0, step)
            return np.max(np.abs(numeric - analytic))

        ratio = err(1e-2) / err(1e-3)
        assert 30 < ratio < 300   # ~quadratic until round-off


class TestInitialTheta:
    def test_boundary_weight_scaling(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=25, b=15, seed=13)
        theta = initial_theta(y, phi.shape[1], psi, phi_tilde)
        gram_trace = float(np.sum(np.abs(psi + phi_tilde) ** 2))
        assert theta.shape == (5,)
        assert math.exp(theta[2]) * gram_trace == pytest.approx(
            psi.shape[0], rel=1e-12)
        assert theta[3] == 0.0 and theta[4] == 0.0

    @pytest.mark.parametrize("b", [0, 1, 63, 64, 65, 129, 300])
    def test_bit_identical_to_one_line_form(self, b):
        """The start theta fills |Psi + PhiTilde|^2 in row blocks and sums
        it as one reduction, the one-line form's, so the two are equal
        exactly, at the block boundaries included."""
        y, phi, psi, phi_tilde = boundary_instance(20, 200, b, seed=b)
        gram_trace = float(np.sum(np.abs(psi + phi_tilde) ** 2))
        log_weight = math.log(b / gram_trace) if b else 0.0
        theta = initial_theta(y, 200, psi, phi_tilde)
        assert theta[2] == log_weight

    def test_peak_memory_bounded(self):
        """At (B, P) = (300, 1000) the start theta allocates one real (B, P)
        array and the temporaries of one block of GRAM_BLOCK rows (3.9 MB
        measured). The one-line form's complex sum, modulus and square peak
        at 7.2 MB and break the budget."""
        b, p = 300, 1000
        y, _, psi, phi_tilde = boundary_instance(20, p, b, seed=3)
        budget = 8 * b * p + 2 * 16 * marglik.GRAM_BLOCK * p
        tracemalloc.start()
        try:
            initial_theta(y, p, psi, phi_tilde)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * budget, (peak, budget)

    def test_without_boundary(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(seed=14)
        theta = initial_theta(y, phi.shape[1], psi[:0], phi_tilde[:0])
        power = float(np.mean(np.abs(y) ** 2))
        assert theta[0] == pytest.approx(math.log(0.1 * power))
        assert theta[2] == 0.0


class TestFit:
    def test_fit_improves_and_traces_decrease(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=18, p=40, b=25, seed=15)
        fit, _ = fit_hyperparameters(y, phi, psi, phi_tilde,
                                     max_line_searches=40)
        trace = np.asarray(fit.trace)
        assert np.all(np.diff(trace) <= 0)
        assert fit.value <= trace[0]

    def test_zero_line_searches_returns_initial(self, complex_instance):
        y, phi, psi, phi_tilde = complex_instance(m=10, p=20, b=12, seed=16)
        fit, _ = fit_hyperparameters(y, phi, psi, phi_tilde,
                                     max_line_searches=0)
        npt.assert_array_equal(fit.x, initial_theta(y, phi.shape[1], psi,
                                                    phi_tilde))
        assert len(fit.trace) == 1


class TestPredictionRows:
    """The prediction rows add products that only the posterior reads; the
    fit's own arrays and results keep their bytes."""

    @pytest.mark.parametrize("b", [0, 65])
    def test_value_and_gradient_unchanged(self, b):
        y, phi, psi, phi_tilde = boundary_instance(20, 200, b, seed=b)
        rows = np.random.default_rng(b).standard_normal((7, 200)) * (1 + 1j)
        hp = to_hyperparameters(THETA0)
        bare = MarginalLikelihood(y, phi, psi, phi_tilde)
        with_rows = MarginalLikelihood(y, phi, psi, phi_tilde, rows)
        value, grad = bare.value_and_gradient(hp)
        value_rows, grad_rows = with_rows.value_and_gradient(hp)
        assert value == value_rows
        assert grad.tobytes() == grad_rows.tobytes()
        npt.assert_allclose(with_rows.psi_targets, psi @ rows.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(with_rows.pt_targets, phi_tilde @ rows.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(with_rows.targets_phi, rows @ phi.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(with_rows.target_power,
                            np.linalg.norm(rows, axis=1) ** 2, rtol=1e-12)

    def test_fit_unchanged(self):
        y, phi, psi, phi_tilde = boundary_instance(20, 200, 65, seed=3)
        rows = build_phi(PlaneWaveDictionary(wavenumber(300.0, 343.0),
                                             fibonacci_directions(200)),
                         np.full((5, 3), 1.5))
        fit, bare = fit_hyperparameters(y, phi, psi, phi_tilde, 8)
        fit_rows, ml = fit_hyperparameters(y, phi, psi, phi_tilde, 8, rows)
        assert fit.x.tobytes() == fit_rows.x.tobytes()
        assert fit.trace == fit_rows.trace
        assert bare.psi_targets.shape == (65, 0)
        assert ml.psi_targets.shape == (65, 5)
