import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave._linalg import FactorizationError, chol_factor
from roomwave.bayes import (VARIANCE_CLAMP_ABS, VARIANCE_CLAMP_REL,
                            Hyperparameters, build_posterior, predict,
                            prior_covariance_from_matrices, target_rows)
from roomwave.baselines import tikhonov
from roomwave.geometry import (RoomSpec, sample_boundary,
                               sample_microphones)
from roomwave.marglik import MarginalLikelihood
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


def chain(y, phi, psi, phi_tilde, rows, hp):
    """(prior, posterior) at `hp` through the evaluator, as
    `experiments.fit_and_predict` reads them after the fit."""
    ml = MarginalLikelihood(y, phi, psi, phi_tilde, rows)
    prior = prior_covariance_from_matrices(ml, hp)
    return prior, build_posterior(y, prior.mics, hp.noise_variance)


def predicted(y, phi, psi, phi_tilde, rows, hp):
    return predict(*chain(y, phi, psi, phi_tilde, rows, hp))


def boundary(dictionary, cloud):
    return build_psi(dictionary, cloud), build_phi_tilde(dictionary, cloud)


def dense_sigma(psi, phi_tilde, hp):
    """Sigma = sigma_alpha^2 (I + mu G^H G)^{-1} as a P x P matrix."""
    p = psi.shape[1]
    g = hp.impedance * psi + phi_tilde
    a = np.eye(p) + hp.boundary_weight * (g.conj().T @ g)
    return hp.prior_variance * np.linalg.inv(a)


def dense_posterior(y, phi, rows, sigma, noise_variance):
    """Predictive mean and variance at `rows` from the dense Sigma."""
    q = noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
    cross = rows @ sigma @ phi.conj().T
    mean = cross @ np.linalg.solve(q, y)
    prior_var = np.einsum("jp,pq,jq->j", rows, sigma, rows.conj()).real
    reduction = np.einsum("jm,mj->j", cross,
                          np.linalg.solve(q, cross.conj().T)).real
    return mean, prior_var - reduction


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


def field_problem(dictionary, rng, m=25, j=9):
    """Microphone rows Phi, prediction rows phi_r and data y."""
    mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(m, 3))
    points = rng.uniform([0.0, 0.0, 0.0], [5.0, 4.0, 3.0], size=(j, 3))
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return build_phi(dictionary, mics), target_rows(dictionary, points), y


class TestPriorCovariance:
    """The field's prior covariance at the microphones (K), between the
    prediction points and the microphones (T) and at the prediction points
    (its diagonal), read off the evaluator."""

    def test_mu_zero_is_isotropic(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.1, 2.5, 0.0, 1.0 + 0j)
        phi, rows, y = field_problem(dictionary, rng)
        prior, _ = chain(y, phi, *boundary(dictionary, cloud), rows, hp)
        npt.assert_allclose(prior.mics, 2.5 * phi @ phi.conj().T, rtol=1e-12)
        npt.assert_allclose(prior.cross, 2.5 * rows @ phi.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(prior.variance, 2.5 * dictionary.size,
                            rtol=1e-12)

    def test_empty_boundary_is_isotropic(self, dictionary, cloud, rng):
        """An empty cloud gives the isotropic prior at any weight; without
        prediction rows the evaluator has J = 0 points to predict at."""
        hp = Hyperparameters(0.1, 0.7, 5.0, 2.0 - 1.0j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, cloud.subset(0))
        prior, _ = chain(y, phi, psi, phi_tilde, rows, hp)
        npt.assert_allclose(prior.mics, 0.7 * phi @ phi.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(prior.cross, 0.7 * rows @ phi.conj().T,
                            rtol=1e-12)
        npt.assert_allclose(prior.variance, 0.7 * dictionary.size,
                            rtol=1e-12)
        bare = prior_covariance_from_matrices(
            MarginalLikelihood(y, phi, psi, phi_tilde), hp)
        assert bare.cross.shape == (0, len(y))
        assert bare.variance.shape == (0,)

    @pytest.mark.parametrize("case", ["empty cloud", "mu = 0"])
    def test_no_boundary_term_applies_scale_exactly(self, dictionary, cloud,
                                                    rng, case):
        """Without a boundary term the prior is the scale times the
        evaluator's products, bit for bit: the boundary terms are empty or
        zero-weighted, and x - 0 = x."""
        mu = 5.0 if case == "empty cloud" else 0.0
        hp = Hyperparameters(0.1, 0.7, mu, 2.0 - 1.0j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(
            dictionary, cloud.subset(0) if case == "empty cloud" else cloud)
        ml = MarginalLikelihood(y, phi, psi, phi_tilde, rows)
        prior = prior_covariance_from_matrices(ml, hp)
        assert np.array_equal(prior.cross, 0.7 * ml.targets_phi)
        assert np.array_equal(prior.variance, 0.7 * ml.target_power)

    def test_matches_dense_inverse(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.1, 1.3, 0.02, 1.5 + 0.5j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, cloud)
        prior, _ = chain(y, phi, psi, phi_tilde, rows, hp)
        sigma = dense_sigma(psi, phi_tilde, hp)
        npt.assert_allclose(prior.mics, phi @ sigma @ phi.conj().T,
                            rtol=1e-9, atol=1e-12)
        npt.assert_allclose(prior.cross, rows @ sigma @ phi.conj().T,
                            rtol=1e-9, atol=1e-12)
        npt.assert_allclose(prior.variance, np.einsum(
            "jp,pq,jq->j", rows, sigma, rows.conj()).real, rtol=1e-9)

    def test_hermitian_and_eigenvalues_shrink(self, dictionary, cloud, rng):
        """K is Hermitian, positive semidefinite and below the isotropic
        sigma_alpha^2 Phi Phi^H: the boundary term only removes prior
        variance."""
        hp = Hyperparameters(0.1, 1.0, 0.5, 1.0 + 2.0j)
        phi, rows, y = field_problem(dictionary, rng)
        prior, _ = chain(y, phi, *boundary(dictionary, cloud), rows, hp)
        k = prior.mics
        npt.assert_allclose(k, k.conj().T, atol=1e-12)
        scale = np.linalg.norm(phi, 2) ** 2
        assert np.linalg.eigvalsh(k).min() >= -1e-12 * scale
        shrink = np.linalg.eigvalsh(phi @ phi.conj().T - k)
        assert shrink.min() >= -1e-12 * scale
        assert np.all(prior.variance <= dictionary.size * (1 + 1e-12))

    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_prior_is_the_fits_and_evaluator_kept(self, dictionary, room,
                                                  rng, count):
        """The posterior conditions the K of the fit's own value path: its
        factor and xi give the evaluator's J bit for bit. Reading the prior
        leaves the evaluator's arrays as they were."""
        hp = Hyperparameters(0.1, 1.3, 0.02, 1.5 + 0.5j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, sample_boundary(room, count,
                                                              seed=21))
        ml = MarginalLikelihood(y, phi, psi, phi_tilde, rows)
        arrays = {name: value.tobytes() for name, value in vars(ml).items()
                  if isinstance(value, np.ndarray)}
        prior = prior_covariance_from_matrices(ml, hp)
        posterior = build_posterior(y, prior.mics, hp.noise_variance)
        value = (0.5 * float(np.real(y.conj() @ posterior.xi))
                 + 0.5 * posterior.q_factor.logdet())
        assert value == ml.value(hp)
        assert {name: getattr(ml, name).tobytes() for name in arrays} == arrays


class TestPosterior:
    def test_q_solve_residual(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, cloud)
        _, posterior = chain(y, phi, psi, phi_tilde, rows, hp)
        q = (hp.noise_variance * np.eye(len(y))
             + phi @ dense_sigma(psi, phi_tilde, hp) @ phi.conj().T)
        residual = np.linalg.norm(q @ posterior.xi - y) / np.linalg.norm(y)
        assert residual < 1e-10

    def test_vanishing_prior_gives_diagonal_q(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.3, 1e-14, 0.0, 1.0 + 0j)
        phi, rows, y = field_problem(dictionary, rng, m=8)
        _, posterior = chain(y, phi, *boundary(dictionary, cloud), rows, hp)
        npt.assert_allclose(posterior.xi, y / hp.noise_variance, rtol=1e-10)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="inconsistent"):
            build_posterior(np.zeros(4), np.eye(5), 0.1)


class TestMapCoefficients:
    """The MAP estimate, checked through the field it predicts: the mean at
    the prediction rows is phi_r alpha_MAP."""

    def test_zero_data(self, dictionary, cloud, rng):
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        phi, rows, y = field_problem(dictionary, rng)
        mean, _ = predicted(np.zeros_like(y), phi,
                            *boundary(dictionary, cloud), rows, hp)
        assert np.array_equal(mean, np.zeros_like(mean))

    def test_primal_dual_equivalence(self, dictionary, cloud, rng):
        """The measurement-space mean T xi against the field of the primal
        normal-equation solution, computed independently from the dense
        prior."""
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        phi, rows, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, cloud)
        mean, _ = predicted(y, phi, psi, phi_tilde, rows, hp)
        sigma = dense_sigma(psi, phi_tilde, hp)
        lhs = phi.conj().T @ phi / hp.noise_variance + np.linalg.inv(sigma)
        primal = np.linalg.solve(lhs, phi.conj().T @ y) / hp.noise_variance
        expected = rows @ primal
        error = np.linalg.norm(mean - expected) / np.linalg.norm(expected)
        assert error < 1e-8

    def test_noiseless_single_atom_recovery(self, dictionary, cloud, rng):
        hp = Hyperparameters(1e-10, 1.0, 0.01, 1.0 + 1.0j)
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(30, 3))
        phi = build_phi(dictionary, mics)
        y = phi[:, 0].copy()        # the field of atom 0 alone
        mean, _ = predicted(y, phi, *boundary(dictionary, cloud), phi, hp)
        assert np.linalg.norm(mean - y) / np.linalg.norm(y) < 1e-3


class TestPredict:
    @pytest.mark.parametrize("case", ["generic", "empty cloud", "mu = 0"])
    def test_matches_dense_posterior(self, dictionary, cloud, rng, case):
        """Mean and variance against Sigma = sigma_alpha^2 (I + mu G^H G)^-1
        formed and inverted densely at P = 60."""
        hp = Hyperparameters(0.05, 1.3, 0.0 if case == "mu = 0" else 0.02,
                             1.5 + 0.5j)
        phi, rows, y = field_problem(dictionary, rng, j=15)
        psi, phi_tilde = boundary(
            dictionary, cloud.subset(0) if case == "empty cloud" else cloud)
        mean, variance = predicted(y, phi, psi, phi_tilde, rows, hp)
        expected_mean, expected_variance = dense_posterior(
            y, phi, rows, dense_sigma(psi, phi_tilde, hp), hp.noise_variance)
        npt.assert_allclose(mean, expected_mean, rtol=1e-9,
                            atol=1e-12 * np.abs(expected_mean).max())
        npt.assert_allclose(variance, expected_variance, rtol=1e-8,
                            atol=1e-10 * hp.prior_variance)

    def test_interpolates_at_low_noise(self, dictionary, cloud, rng):
        hp = Hyperparameters(1e-10, 1.2, 0.1, -2.0 + 1.0j)
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(25, 3))
        phi = build_phi(dictionary, mics)
        y = phi @ (rng.standard_normal(dictionary.size) * 0.1)
        mean, _ = predicted(y, phi, *boundary(dictionary, cloud), phi, hp)
        assert np.linalg.norm(mean - y) / np.linalg.norm(y) < 1e-3

    def test_no_data_rejected(self):
        with pytest.raises(ValueError, match="at least one measurement"):
            build_posterior(np.zeros(0), np.zeros((0, 0)), 0.1)

    def test_mean_equals_field_of_map(self, dictionary, cloud, rng):
        """The mean is the field of the dense MAP coefficients,
        Sigma Phi^H Q^{-1} y, through `evaluate_field`."""
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        phi, _, y = field_problem(dictionary, rng)
        psi, phi_tilde = boundary(dictionary, cloud)
        pts = rng.uniform([2.5, 0, 0], [5, 4, 3], size=(9, 3))
        mean, _ = predicted(y, phi, psi, phi_tilde,
                            target_rows(dictionary, pts), hp)
        sigma = dense_sigma(psi, phi_tilde, hp)
        q = hp.noise_variance * np.eye(len(y)) + phi @ sigma @ phi.conj().T
        alpha = sigma @ phi.conj().T @ np.linalg.solve(q, y)
        npt.assert_allclose(mean, evaluate_field(dictionary, alpha, pts),
                            rtol=1e-8)

    def test_variance_nonnegative_and_below_prior(self, dictionary, cloud,
                                                  rng):
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        phi, rows, y = field_problem(dictionary, rng, j=40)
        prior, posterior = chain(y, phi, *boundary(dictionary, cloud), rows,
                                 hp)
        _, variance = predict(prior, posterior)
        assert np.all(variance >= 0)
        assert np.all(variance <= prior.variance + 1e-10)


class TestVarianceClamp:
    """The clamp in `predict`: a negative predictive variance within
    VARIANCE_CLAMP_REL * prior variance + VARIANCE_CLAMP_ABS becomes 0, and
    one beyond it raises."""

    @staticmethod
    def setup(dictionary, cloud, rng):
        hp = Hyperparameters(0.05, 1.2, 0.1, -2.0 + 1.0j)
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(25, 3))
        phi = build_phi(dictionary, mics)
        y = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        return hp, chain(y, phi, *boundary(dictionary, cloud), phi[:3], hp)

    @staticmethod
    def with_q_over(prior, posterior, hp, scale):
        """The posterior with Q replaced by Q / scale, so that every
        variance reduction is multiplied by `scale`."""
        q = prior.mics.copy()
        q.flat[::len(q) + 1] += hp.noise_variance
        return dataclasses.replace(posterior,
                                   q_factor=chol_factor(q / scale))

    def test_excursion_below_floor_raises(self, dictionary, cloud, rng):
        hp, (prior, posterior) = self.setup(dictionary, cloud, rng)
        with pytest.raises(FactorizationError, match="numerical floor"):
            predict(prior, self.with_q_over(prior, posterior, hp, 10.0))

    def test_excursion_inside_tolerance_clamped(self, dictionary, cloud,
                                                rng):
        hp, (prior, posterior) = self.setup(dictionary, cloud, rng)
        prior = dataclasses.replace(prior, cross=prior.cross[:1],
                                    variance=prior.variance[:1])
        prior_var = float(prior.variance[0])
        t = prior.cross
        reduction = float(np.real(
            t @ posterior.q_factor.solve(t.conj().T))[0, 0])
        tolerance = VARIANCE_CLAMP_REL * prior_var + VARIANCE_CLAMP_ABS
        # the reduction overshoots the prior variance by half the tolerance
        inside = self.with_q_over(prior, posterior, hp,
                                  (prior_var + 0.5 * tolerance) / reduction)
        _, variance = predict(prior, inside)
        assert variance.tolist() == [0.0]
        # ... and by twice the tolerance
        outside = self.with_q_over(prior, posterior, hp,
                                   (prior_var + 2.0 * tolerance) / reduction)
        with pytest.raises(FactorizationError, match="numerical floor"):
            predict(prior, outside)


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
        _, variance = predicted(y, phi, *boundary(dictionary, cloud), phi, hp)
    except FactorizationError:
        return
    assert np.all(np.isfinite(variance))
    assert np.all(variance >= 0.0)


class TestTikhonovReduction:
    def test_matches_independent_ridge(self, dictionary, cloud, rng):
        """mu = 0 collapses the whole pipeline to ridge regression; the
        posterior mean and the field of the independently coded SVD ridge
        agree to near machine precision."""
        hp = Hyperparameters(0.05, 2.0, 0.0, 1.0 + 0j)
        phi, _, y = field_problem(dictionary, rng, m=30)
        pts = rng.uniform([2.5, 0, 0], [5, 4, 3], size=(12, 3))
        mean, _ = predicted(y, phi, *boundary(dictionary, cloud),
                            target_rows(dictionary, pts), hp)
        ridge = evaluate_field(
            dictionary, tikhonov(y, phi, hp.noise_variance,
                                 hp.prior_variance), pts)
        assert np.linalg.norm(mean - ridge) / np.linalg.norm(ridge) < 1e-10


class TestBoundaryResidualMonotonicity:
    def test_residual_decreases_with_mu(self, room, dictionary, rng):
        """On noiseless data from a coefficient vector in the nullspace of
        the boundary operator, increasing the boundary weight monotonically
        shrinks the boundary residual G alpha_MAP of the MAP estimate, read
        as the posterior mean at the rows of G."""
        cloud = sample_boundary(room, 25, seed=33)   # B < P: nullspace exists
        psi, phi_tilde = boundary(dictionary, cloud)
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
            mean, _ = predict(*chain(y, phi, psi, phi_tilde, g, hp))
            residuals.append(np.linalg.norm(mean))
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-9 * residuals[0])


# -- boundary space wider than the dictionary (B > P) ----------------------

BOUNDARY_SCALES = (1e-3, 1.0, 1e4)     # mu * ||G||_2^2


def wide_boundary(room, dictionary, scale):
    """B = 80 boundary points against P = 60 plane waves, with the boundary
    weight set so that mu * ||G||_2^2 equals `scale`."""
    cloud = sample_boundary(room, 80, seed=5)
    psi, phi_tilde = boundary(dictionary, cloud)
    beta = 0.7 - 1.3j
    norm = np.linalg.norm(beta * psi + phi_tilde, 2)
    hp = Hyperparameters(1e-3, 1.7, scale / norm ** 2, beta)
    return psi, phi_tilde, hp


class TestWideBoundary:
    @pytest.mark.parametrize("scale", BOUNDARY_SCALES)
    def test_prior_matches_dense_sigma(self, room, dictionary, scale, rng):
        psi, phi_tilde, hp = wide_boundary(room, dictionary, scale)
        assert psi.shape == (80, 60)
        phi, rows, y = field_problem(dictionary, rng, m=40, j=12)
        prior, _ = chain(y, phi, psi, phi_tilde, rows, hp)
        dense = dense_sigma(psi, phi_tilde, hp)
        atol = 1e-12 * hp.prior_variance * dictionary.size
        npt.assert_allclose(prior.mics, phi @ dense @ phi.conj().T,
                            rtol=1e-9, atol=atol)
        npt.assert_allclose(prior.cross, rows @ dense @ phi.conj().T,
                            rtol=1e-9, atol=atol)
        npt.assert_allclose(prior.variance, np.einsum(
            "jp,pq,jq->j", rows, dense, rows.conj()).real, rtol=1e-9,
            atol=atol)

    def test_variance_nonnegative_at_largest_weight(self, room, dictionary,
                                                    rng):
        """Predictive variance from the evaluator's factorization matches
        the dense posterior covariance to within the clamp tolerance, so the
        clamp neither raises nor hides a negative excursion."""
        psi, phi_tilde, hp = wide_boundary(room, dictionary,
                                           BOUNDARY_SCALES[-1])
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(40, 3))
        phi = build_phi(dictionary, mics)
        y = phi @ (rng.standard_normal(60) + 1j * rng.standard_normal(60))
        pts = np.vstack([mics[:10], rng.uniform([0, 0, 0], [5, 4, 3],
                                                size=(20, 3))])
        rows = target_rows(dictionary, pts)
        _, variance = predicted(y, phi, psi, phi_tilde, rows, hp)

        sigma = dense_sigma(psi, phi_tilde, hp)
        _, expected = dense_posterior(y, phi, rows, sigma, hp.noise_variance)
        prior_var = np.einsum("jp,pq,jq->j", rows, sigma, rows.conj()).real
        assert np.all(variance >= 0)
        tolerance = VARIANCE_CLAMP_REL * prior_var + VARIANCE_CLAMP_ABS
        assert np.all(np.abs(variance - expected) <= tolerance)
