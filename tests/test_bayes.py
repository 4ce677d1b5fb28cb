import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave._linalg import FactorizationError, chol_factor
from roomwave.bayes import (VARIANCE_CLAMP_ABS, VARIANCE_CLAMP_REL,
                            Hyperparameters, build_posterior,
                            map_coefficients, predict,
                            prior_covariance_from_matrices)
from roomwave.baselines import tikhonov
from roomwave.geometry import (RoomSpec, sample_boundary,
                               sample_microphones)
from roomwave.planewaves import (PlaneWaveDictionary, build_phi,
                                 build_phi_tilde, build_psi, evaluate_field,
                                 fibonacci_directions, wavenumber)

K300 = wavenumber(300.0, 343.0)


@pytest.fixture
def dictionary():
    return PlaneWaveDictionary(K300, fibonacci_directions(60))


@pytest.fixture
def cloud(room):
    return sample_boundary(room, 40, seed=21)


def prior_of(dictionary, cloud, hp):
    """Boundary-informed prior covariance of the dictionary coefficients."""
    return prior_covariance_from_matrices(
        build_psi(dictionary, cloud), build_phi_tilde(dictionary, cloud), hp)


def sigma_matrix(prior):
    """Sigma as a P x P matrix: the prior applied to the identity."""
    return prior.apply(np.eye(prior.dim, dtype=complex))


def dense_sigma(psi, phi_tilde, hp):
    p = psi.shape[1]
    g = hp.impedance * psi + phi_tilde
    a = np.eye(p) + hp.boundary_weight * (g.conj().T @ g)
    return hp.prior_variance * np.linalg.inv(a)


class TestHyperparameters:
    def test_validation(self):
        """Out-of-range values fail, and so do NaN and inf ones."""
        nan, inf = float("nan"), float("inf")
        for args in [(0.0, 1.0, 1.0, 1.0 + 0j), (1.0, -1.0, 1.0, 1.0 + 0j),
                     (1.0, 1.0, -0.1, 1.0 + 0j), (nan, 1.0, 1.0, 1.0 + 0j),
                     (1.0, inf, 1.0, 1.0 + 0j), (1.0, 1.0, nan, 1.0 + 0j),
                     (1.0, 1.0, inf, 1.0 + 0j), (1.0, 1.0, 1.0, complex(nan)),
                     (1.0, 1.0, 1.0, complex(1.0, inf))]:
            with pytest.raises(ValueError):
                Hyperparameters(*args)


class TestPriorCovariance:
    def test_mu_zero_is_isotropic(self, dictionary, cloud):
        hp = Hyperparameters(0.1, 2.5, 0.0, 1.0 + 0j)
        prior = prior_of(dictionary, cloud, hp)
        npt.assert_allclose(sigma_matrix(prior),
                            2.5 * np.eye(dictionary.size), atol=1e-10)

    def test_empty_boundary_is_isotropic(self, dictionary, cloud):
        hp = Hyperparameters(0.1, 0.7, 5.0, 2.0 - 1.0j)
        prior = prior_of(dictionary, cloud.subset(0), hp)
        npt.assert_allclose(sigma_matrix(prior),
                            0.7 * np.eye(dictionary.size), atol=1e-12)

    @pytest.mark.parametrize("case", ["empty cloud", "mu = 0"])
    def test_no_boundary_term_applies_scale_exactly(self, dictionary, cloud,
                                                    rng, case):
        mu = 5.0 if case == "empty cloud" else 0.0
        hp = Hyperparameters(0.1, 0.7, mu, 2.0 - 1.0j)
        prior = prior_of(dictionary,
                         cloud.subset(0) if case == "empty cloud" else cloud,
                         hp)
        x = rng.standard_normal((dictionary.size, 4)) * (1 - 2j)
        assert np.array_equal(prior.apply(x), 0.7 * x)

    def test_matches_dense_inverse(self, dictionary, cloud):
        hp = Hyperparameters(0.1, 1.3, 0.02, 1.5 + 0.5j)
        psi = build_psi(dictionary, cloud)
        phi_tilde = build_phi_tilde(dictionary, cloud)
        prior = prior_covariance_from_matrices(psi, phi_tilde, hp)
        npt.assert_allclose(sigma_matrix(prior),
                            dense_sigma(psi, phi_tilde, hp), rtol=1e-9,
                            atol=1e-12)

    def test_hermitian_and_eigenvalues_shrink(self, dictionary, cloud):
        hp = Hyperparameters(0.1, 1.0, 0.5, 1.0 + 2.0j)
        sigma = sigma_matrix(prior_of(dictionary, cloud, hp))
        npt.assert_allclose(sigma, sigma.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(sigma) / hp.prior_variance
        assert np.all(eigs > 0)
        assert np.all(eigs <= 1.0 + 1e-10)

    def test_apply_matches_matrix(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.1, 1.0, 0.3, 0.5 - 0.2j)
        prior = prior_of(dictionary, cloud, hp)
        x = rng.standard_normal((dictionary.size, 3)) * (1 + 1j)
        npt.assert_allclose(prior.apply(x), sigma_matrix(prior) @ x,
                            rtol=1e-9, atol=1e-12)


def make_problem(room, dictionary, cloud, rng, m=25, noise=0.05, mu=0.1):
    hp = Hyperparameters(noise, 1.2, mu, -2.0 + 1.0j)
    mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(m, 3))
    phi = build_phi(dictionary, mics)
    alpha_true = rng.standard_normal(dictionary.size) * 0.1
    y = phi @ alpha_true + noise ** 0.5 * (
        rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    prior = prior_of(dictionary, cloud, hp)
    posterior = build_posterior(y, phi, prior, hp, dictionary)
    return hp, mics, phi, y, prior, posterior


class TestPosterior:
    def test_q_solve_residual(self, room, dictionary, cloud, rng):
        hp, _, phi, y, prior, posterior = make_problem(room, dictionary,
                                                       cloud, rng)
        q = (hp.noise_variance * np.eye(len(y))
             + phi @ sigma_matrix(prior) @ phi.conj().T)
        residual = np.linalg.norm(q @ posterior.xi - y) / np.linalg.norm(y)
        assert residual < 1e-10

    def test_vanishing_prior_gives_diagonal_q(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.3, 1e-14, 0.0, 1.0 + 0j)
        phi = build_phi(dictionary, rng.uniform(size=(8, 3)))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        prior = prior_of(dictionary, cloud, hp)
        posterior = build_posterior(y, phi, prior, hp, dictionary)
        npt.assert_allclose(posterior.xi, y / hp.noise_variance, rtol=1e-10)

    def test_dimension_check(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.1, 1.0, 0.0, 1.0 + 0j)
        prior = prior_of(dictionary, cloud, hp)
        with pytest.raises(ValueError):
            build_posterior(np.zeros(4), np.zeros((5, dictionary.size)),
                            prior, hp, dictionary)


class TestMapCoefficients:
    def test_zero_data(self, room, dictionary, cloud, rng):
        hp, _, phi, y, prior, _ = make_problem(room, dictionary, cloud, rng)
        posterior = build_posterior(np.zeros_like(y), phi, prior, hp,
                                    dictionary)
        npt.assert_allclose(map_coefficients(posterior), 0.0, atol=1e-15)

    def test_primal_dual_equivalence(self, room, dictionary, cloud, rng):
        """Dual form Sigma Phi^H Q^{-1} y against the primal normal-equation
        form computed independently from the dense prior."""
        hp, _, phi, y, prior, posterior = make_problem(room, dictionary,
                                                       cloud, rng)
        dual = map_coefficients(posterior)
        sigma = sigma_matrix(prior)
        lhs = phi.conj().T @ phi / hp.noise_variance + np.linalg.inv(sigma)
        primal = np.linalg.solve(lhs, phi.conj().T @ y) / hp.noise_variance
        assert np.linalg.norm(dual - primal) / np.linalg.norm(primal) < 1e-8

    def test_noiseless_single_atom_recovery(self, room, dictionary, cloud, rng):
        hp = Hyperparameters(1e-10, 1.0, 0.01, 1.0 + 1.0j)
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(30, 3))
        phi = build_phi(dictionary, mics)
        alpha = np.zeros(dictionary.size, dtype=complex)
        alpha[0] = 1.0
        y = phi @ alpha
        prior = prior_of(dictionary, cloud, hp)
        posterior = build_posterior(y, phi, prior, hp, dictionary)
        reconstructed = phi @ map_coefficients(posterior)
        assert np.linalg.norm(reconstructed - y) / np.linalg.norm(y) < 1e-3


class TestPredict:
    def test_interpolates_at_low_noise(self, room, dictionary, cloud, rng):
        hp, mics, phi, y, prior, _ = make_problem(room, dictionary, cloud,
                                                  rng, noise=1e-10)
        posterior = build_posterior(y, phi, prior, hp, dictionary)
        mean, _ = predict(posterior, mics)
        assert np.linalg.norm(mean - y) / np.linalg.norm(y) < 1e-3

    def test_no_data_rejected(self, dictionary, cloud):
        hp = Hyperparameters(0.1, 1.0, 0.05, 1.0 + 0j)
        prior = prior_of(dictionary, cloud, hp)
        with pytest.raises(ValueError, match="at least one measurement"):
            build_posterior(np.zeros(0), np.zeros((0, dictionary.size)),
                            prior, hp, dictionary)

    def test_mean_equals_field_of_map(self, room, dictionary, cloud, rng):
        hp, _, phi, y, prior, posterior = make_problem(room, dictionary,
                                                       cloud, rng)
        pts = rng.uniform([2.5, 0, 0], [5, 4, 3], size=(9, 3))
        mean, _ = predict(posterior, pts)
        field = evaluate_field(dictionary, map_coefficients(posterior), pts)
        npt.assert_allclose(mean, field, rtol=1e-8)

    def test_variance_nonnegative_and_below_prior(self, room, dictionary,
                                                  cloud, rng):
        hp, _, phi, y, prior, posterior = make_problem(room, dictionary,
                                                       cloud, rng)
        pts = rng.uniform([2.5, 0, 0], [5, 4, 3], size=(40, 3))
        _, variance = predict(posterior, pts)
        assert np.all(variance >= 0)
        phi_r = build_phi(dictionary, pts)
        prior_var = np.einsum("jp,pj->j", phi_r,
                              sigma_matrix(prior) @ phi_r.conj().T).real
        assert np.all(variance <= prior_var + 1e-10)


class TestVarianceClamp:
    """The clamp in `predict`: a negative predictive variance within
    VARIANCE_CLAMP_REL * prior variance + VARIANCE_CLAMP_ABS becomes 0, and
    one beyond it raises."""

    @staticmethod
    def with_q_over(posterior, phi, hp, scale):
        """The posterior with Q replaced by Q / scale, so that every
        variance reduction is multiplied by `scale`."""
        q = phi @ posterior.cross
        q.flat[::len(q) + 1] += hp.noise_variance
        return dataclasses.replace(posterior,
                                   q_factor=chol_factor(q / scale))

    def test_excursion_below_floor_raises(self, room, dictionary, cloud,
                                          rng):
        hp, mics, phi, _, _, posterior = make_problem(room, dictionary,
                                                      cloud, rng)
        with pytest.raises(FactorizationError, match="numerical floor"):
            predict(self.with_q_over(posterior, phi, hp, 10.0), mics[:3])

    def test_excursion_inside_tolerance_clamped(self, room, dictionary,
                                                cloud, rng):
        hp, mics, phi, _, prior, posterior = make_problem(room, dictionary,
                                                          cloud, rng)
        point = mics[:1]
        phi_r = build_phi(dictionary, point)
        prior_var = float(np.real(phi_r @ prior.apply(phi_r.conj().T))[0, 0])
        t = phi_r @ posterior.cross
        reduction = float(np.real(
            t @ posterior.q_factor.solve(t.conj().T))[0, 0])
        tolerance = VARIANCE_CLAMP_REL * prior_var + VARIANCE_CLAMP_ABS
        # the reduction overshoots the prior variance by half the tolerance
        inside = self.with_q_over(posterior, phi, hp,
                                  (prior_var + 0.5 * tolerance) / reduction)
        _, variance = predict(inside, point)
        assert variance.tolist() == [0.0]
        # ... and by twice the tolerance
        outside = self.with_q_over(posterior, phi, hp,
                                   (prior_var + 2.0 * tolerance) / reduction)
        with pytest.raises(FactorizationError, match="numerical floor"):
            predict(outside, point)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mics=st.integers(5, 80),
       log_noise_ratio=st.floats(-12.0, 0.0),
       log_weight=st.floats(-3.0, 3.0))
def test_variance_at_microphones_near_singular_q(seed, mics, log_noise_ratio,
                                                 log_weight):
    """Apart from s2 I, Q = s2 I + Phi Sigma Phi^H has rank at most P = 30,
    so with M > P and s2 down to 1e-12 times the prior variance Q is nearly
    singular. Predicting at the microphones themselves, where the variance
    reduction is largest, gives a finite variance >= 0 or raises
    FactorizationError; never NaN, never negative."""
    gen = np.random.default_rng(seed)
    room = RoomSpec()
    dictionary = PlaneWaveDictionary(K300, fibonacci_directions(30))
    positions = sample_microphones(room, mics, 0.5,
                                   seed=int(gen.integers(2 ** 31)))
    prior_variance = 10.0 ** gen.uniform(-2.0, 2.0)
    hp = Hyperparameters(prior_variance * 10.0 ** log_noise_ratio,
                         prior_variance, 10.0 ** log_weight,
                         complex(gen.uniform(0.5, 2.0), gen.uniform(-1, 1)))
    cloud = sample_boundary(room, 20, seed=int(gen.integers(2 ** 31)))
    phi = build_phi(dictionary, positions)
    y = gen.standard_normal(mics) + 1j * gen.standard_normal(mics)
    try:
        posterior = build_posterior(y, phi, prior_of(dictionary, cloud, hp),
                                    hp, dictionary)
        _, variance = predict(posterior, positions)
    except FactorizationError:
        return
    assert np.all(np.isfinite(variance))
    assert np.all(variance >= 0.0)


class TestTikhonovReduction:
    def test_matches_independent_ridge(self, room, dictionary, cloud, rng):
        """mu = 0 collapses the whole pipeline to ridge regression; the
        posterior (dual) path and the independently coded primal ridge agree
        to near machine precision."""
        hp = Hyperparameters(0.05, 2.0, 0.0, 1.0 + 0j)
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(30, 3))
        phi = build_phi(dictionary, mics)
        y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        prior = prior_of(dictionary, cloud, hp)
        posterior = build_posterior(y, phi, prior, hp, dictionary)
        dual = map_coefficients(posterior)
        ridge = tikhonov(y, phi, hp.noise_variance, hp.prior_variance)
        assert np.linalg.norm(dual - ridge) / np.linalg.norm(ridge) < 1e-10


class TestBoundaryResidualMonotonicity:
    def test_residual_decreases_with_mu(self, room, dictionary, rng):
        """On noiseless data from a coefficient vector in the nullspace of
        the boundary operator, increasing the boundary weight monotonically
        shrinks the boundary residual of the MAP estimate."""
        cloud = sample_boundary(room, 25, seed=33)   # B < P: nullspace exists
        psi = build_psi(dictionary, cloud)
        phi_tilde = build_phi_tilde(dictionary, cloud)
        beta = -39.0 + 0.0j
        g = beta * psi + phi_tilde
        _, _, vh = np.linalg.svd(g)
        alpha0 = vh.conj().T[:, -1]          # smallest singular direction
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(40, 3))
        phi = build_phi(dictionary, mics)
        y = phi @ alpha0
        residuals = []
        for mu in [0.0, 0.01, 0.1, 1.0, 10.0]:
            hp = Hyperparameters(1e-8, 1.0, mu, beta)
            prior = prior_covariance_from_matrices(psi, phi_tilde, hp)
            posterior = build_posterior(y, phi, prior, hp, dictionary)
            residuals.append(np.linalg.norm(g @ map_coefficients(posterior)))
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-9 * residuals[0])


# -- boundary space wider than the dictionary (B > P) ----------------------

BOUNDARY_SCALES = (1e-3, 1.0, 1e4)     # mu * ||G||_2^2


def wide_boundary(room, dictionary, scale):
    """B = 80 boundary points against P = 60 plane waves, with the boundary
    weight set so that mu * ||G||_2^2 equals `scale`."""
    cloud = sample_boundary(room, 80, seed=5)
    psi = build_psi(dictionary, cloud)
    phi_tilde = build_phi_tilde(dictionary, cloud)
    beta = 0.7 - 1.3j
    norm = np.linalg.norm(beta * psi + phi_tilde, 2)
    hp = Hyperparameters(1e-3, 1.7, scale / norm ** 2, beta)
    return psi, phi_tilde, hp


class TestWideBoundary:
    @pytest.mark.parametrize("scale", BOUNDARY_SCALES)
    def test_prior_matches_dense_sigma(self, room, dictionary, scale, rng):
        psi, phi_tilde, hp = wide_boundary(room, dictionary, scale)
        assert psi.shape == (80, 60)
        prior = prior_covariance_from_matrices(psi, phi_tilde, hp)
        dense = dense_sigma(psi, phi_tilde, hp)
        atol = 1e-12 * hp.prior_variance
        npt.assert_allclose(sigma_matrix(prior), dense, rtol=1e-9,
                            atol=atol)
        x = rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4))
        npt.assert_allclose(prior.apply(x), dense @ x, rtol=1e-9,
                            atol=atol * np.abs(x).max())

    def test_variance_nonnegative_at_largest_weight(self, room, dictionary,
                                                    rng):
        """Predictive variance from the boundary-space prior matches the
        dense posterior covariance to within the clamp tolerance, so the
        clamp neither raises nor hides a negative excursion."""
        psi, phi_tilde, hp = wide_boundary(room, dictionary,
                                           BOUNDARY_SCALES[-1])
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(40, 3))
        phi = build_phi(dictionary, mics)
        y = phi @ (rng.standard_normal(60) + 1j * rng.standard_normal(60))
        prior = prior_covariance_from_matrices(psi, phi_tilde, hp)
        posterior = build_posterior(y, phi, prior, hp, dictionary)
        pts = np.vstack([mics[:10], rng.uniform([0, 0, 0], [5, 4, 3],
                                                size=(20, 3))])
        _, variance = predict(posterior, pts)

        sigma = dense_sigma(psi, phi_tilde, hp)
        q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
        cross = sigma @ phi.conj().T
        post = sigma - cross @ np.linalg.solve(q, cross.conj().T)
        phi_r = build_phi(dictionary, pts)
        prior_var = np.einsum("jp,pq,jq->j", phi_r, sigma, phi_r.conj()).real
        expected = np.einsum("jp,pq,jq->j", phi_r, post, phi_r.conj()).real
        assert np.all(variance >= 0)
        tolerance = VARIANCE_CLAMP_REL * prior_var + VARIANCE_CLAMP_ABS
        assert np.all(np.abs(variance - expected) <= tolerance)
