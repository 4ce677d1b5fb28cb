import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave import baselines
from roomwave.baselines import (LassoConfig, default_lambda_grid, lasso,
                                lasso_objective, nearest_neighbor,
                                null_threshold, select_lambda, tikhonov)
from roomwave.bayes import (Hyperparameters, build_posterior,
                            map_coefficients, prior_covariance_from_matrices)
from roomwave.planewaves import PlaneWaveDictionary, fibonacci_directions


def random_system(rng, m, p, noise=0.1, sparse=0):
    phi = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
    if sparse:
        alpha = np.zeros(p, dtype=complex)
        idx = rng.choice(p, size=sparse, replace=False)
        alpha[idx] = rng.standard_normal(sparse) + 1j * rng.standard_normal(sparse)
    else:
        alpha = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    y = phi @ alpha + np.sqrt(noise / 2) * (
        rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return y, phi, alpha


class TestNearestNeighbor:
    def test_exact_mic_position(self, rng):
        mics = rng.uniform(size=(8, 3))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = nearest_neighbor(mics, y, mics[[3]])
        assert out[0] == y[3]

    def test_single_mic_constant_field(self, rng):
        mics = np.array([[0.5, 0.5, 0.5]])
        y = np.array([2.0 - 1.0j])
        out = nearest_neighbor(mics, y, rng.uniform(size=(10, 3)))
        npt.assert_array_equal(out, np.full(10, 2.0 - 1.0j))

    def test_tie_breaks_to_lowest_index(self):
        mics = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        y = np.array([1.0 + 0j, 2.0 + 0j])
        out = nearest_neighbor(mics, y, np.zeros((1, 3)))
        assert out[0] == y[0]


class TestTikhonov:
    def test_zero_data(self, rng):
        y, phi, _ = random_system(rng, 12, 8)
        npt.assert_allclose(tikhonov(np.zeros(12), phi, 0.1, 1.0), 0.0,
                            atol=1e-15)

    def test_vanishing_regularization_is_least_squares(self, rng):
        y, phi, _ = random_system(rng, 30, 10)
        alpha = tikhonov(y, phi, 1.0, 1e12)
        lstsq = np.linalg.lstsq(phi, y, rcond=None)[0]
        npt.assert_allclose(alpha, lstsq, rtol=1e-6, atol=1e-9)

    def test_invalid_variances(self, rng):
        y, phi, _ = random_system(rng, 5, 4)
        with pytest.raises(ValueError):
            tikhonov(y, phi, 0.0, 1.0)

    @pytest.mark.parametrize("m, p", [(12, 40), (40, 12), (20, 20)])
    def test_svd_form_matches_normal_equations(self, rng, m, p):
        y, phi, _ = random_system(rng, m, p)
        noise_variance, prior_variance = 0.2, 1.7
        normal = (phi.conj().T @ phi / noise_variance
                  + np.eye(p) / prior_variance)
        primal = np.linalg.solve(normal, phi.conj().T @ y / noise_variance)
        alpha = tikhonov(y, phi, noise_variance, prior_variance)
        assert np.linalg.norm(alpha - primal) / np.linalg.norm(primal) < 1e-9


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 25), p=st.integers(1, 25),
       seed=st.integers(0, 2 ** 32 - 1),
       log_noise=st.floats(-2.0, 0.0), log_prior=st.floats(-1.0, 1.0))
def test_posterior_mean_without_boundary_is_tikhonov(m, p, seed, log_noise,
                                                     log_prior):
    """At mu = 0 the posterior mean (dual form, through the prior and Q)
    equals the independently coded SVD ridge, on both sides of M = P."""
    y, phi, _ = random_system(np.random.default_rng(seed), m, p)
    hp = Hyperparameters(10.0 ** log_noise, 10.0 ** log_prior, 0.0, 1.0 + 0j)
    empty = np.zeros((0, p), dtype=complex)
    prior = prior_covariance_from_matrices(empty, empty, hp)
    dictionary = PlaneWaveDictionary(1.0, fibonacci_directions(p))
    posterior = build_posterior(y, phi, prior, hp, dictionary)
    ridge = tikhonov(y, phi, hp.noise_variance, hp.prior_variance)
    dual = map_coefficients(posterior)
    assert np.linalg.norm(dual - ridge) <= 1e-9 * np.linalg.norm(ridge)


class TestLasso:
    def test_zero_penalty_full_rank_is_least_squares(self, rng):
        y, phi, _ = random_system(rng, 30, 10)
        result = lasso(y, phi, 1.0, LassoConfig(0.0, max_iterations=20000,
                                                tolerance=1e-14))
        lstsq = np.linalg.lstsq(phi, y, rcond=None)[0]
        npt.assert_allclose(result.coefficients, lstsq, rtol=1e-5, atol=1e-8)

    def test_null_threshold_gives_zero(self, rng):
        y, phi, _ = random_system(rng, 15, 40)
        noise_variance = 0.3
        threshold = null_threshold(y, phi, noise_variance)
        result = lasso(y, phi, noise_variance,
                       LassoConfig(1.0001 * threshold))
        npt.assert_array_equal(result.coefficients, 0.0)
        assert result.converged

    def test_below_threshold_is_nonzero(self, rng):
        y, phi, _ = random_system(rng, 15, 40)
        threshold = null_threshold(y, phi, 0.3)
        result = lasso(y, phi, 0.3, LassoConfig(0.5 * threshold))
        assert np.any(result.coefficients != 0)

    def test_objective_non_increasing_across_iterations(self, rng):
        y, phi, _ = random_system(rng, 15, 40, sparse=5)
        penalty = 0.05 * null_threshold(y, phi, 0.2)
        values = []
        for iterations in range(1, 40):
            result = lasso(y, phi, 0.2,
                           LassoConfig(penalty, max_iterations=iterations,
                                       tolerance=0.0))
            values.append(result.objective)
        assert np.all(np.diff(values) <= 1e-12)

    def test_phase_equivariance(self, rng):
        y, phi, _ = random_system(rng, 12, 30, sparse=4)
        penalty = 0.1 * null_threshold(y, phi, 0.2)
        config = LassoConfig(penalty, max_iterations=3000, tolerance=1e-12)
        base = lasso(y, phi, 0.2, config).coefficients
        rotated = lasso(np.exp(1.1j) * y, phi, 0.2, config).coefficients
        npt.assert_allclose(rotated, np.exp(1.1j) * base, rtol=1e-6,
                            atol=1e-9)

    def test_matches_convex_solver_oracle(self, rng):
        """Small-instance objective check against a general-purpose convex
        solver."""
        cvxpy = pytest.importorskip("cvxpy")
        y, phi, _ = random_system(rng, 10, 20, sparse=3)
        noise_variance = 0.25
        penalty = 0.2 * null_threshold(y, phi, noise_variance)
        ours = lasso(y, phi, noise_variance,
                     LassoConfig(penalty, max_iterations=20000,
                                 tolerance=1e-14))
        a = cvxpy.Variable(20, complex=True)
        objective = cvxpy.Minimize(
            cvxpy.sum_squares(y - phi @ a) / (2 * noise_variance)
            + penalty * cvxpy.norm1(a))
        problem = cvxpy.Problem(objective)
        problem.solve()
        oracle = float(problem.value)
        assert ours.objective == pytest.approx(oracle, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_optimality_conditions(self, seed):
        """KKT conditions of the complex lasso: with the scaled correlation
        g = Phi^H (y - Phi a) / s2, g_p = penalty * a_p / |a_p| on the support
        and |g_p| <= penalty off it."""
        y, phi, _ = random_system(np.random.default_rng(seed), 15, 40,
                                  sparse=4)
        noise_variance = 0.2
        penalty = 0.2 * null_threshold(y, phi, noise_variance)
        result = lasso(y, phi, noise_variance,
                       LassoConfig(penalty, 20000, 1e-14))
        assert result.converged
        a = result.coefficients
        g = phi.conj().T @ (y - phi @ a) / noise_variance
        support = a != 0
        assert np.all(np.abs(g[support] - penalty * a[support]
                             / np.abs(a[support])) <= 1e-5 * penalty)
        assert np.all(np.abs(g[~support]) <= penalty * (1 + 1e-5))

    def test_warm_start(self, rng):
        y, phi, _ = random_system(rng, 12, 30, sparse=4)
        penalty = 0.1 * null_threshold(y, phi, 0.2)
        config = LassoConfig(penalty, max_iterations=5000, tolerance=1e-13)
        cold = lasso(y, phi, 0.2, config)
        warm = lasso(y, phi, 0.2, config, initial=cold.coefficients)
        assert warm.objective <= cold.objective + 1e-12
        assert warm.n_iterations <= cold.n_iterations

    def test_objective_helper(self, rng):
        y, phi, _ = random_system(rng, 8, 12)
        alpha = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        value = lasso_objective(y, phi, 0.5, 0.3, alpha)
        expected = (np.linalg.norm(y - phi @ alpha) ** 2 / (2 * 0.5)
                    + 0.3 * np.sum(np.abs(alpha)))
        assert value == pytest.approx(expected, rel=1e-12)


class TestLipschitzArgument:
    """A caller-supplied Lipschitz constant, computed as `lasso` computes
    it, changes nothing: same coefficients, objective and iteration count,
    bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_result_as_internal(self, seed):
        gen = np.random.default_rng(300 + seed)
        y, phi, _ = random_system(gen, 15, 40, sparse=4)
        noise_variance = 0.2
        penalty = 0.1 * null_threshold(y, phi, noise_variance)
        initial = (None if seed % 2 else
                   gen.standard_normal(40) + 1j * gen.standard_normal(40))
        config = LassoConfig(penalty, max_iterations=3000, tolerance=1e-12)
        lipschitz = float(sla.svdvals(phi)[0] ** 2) / noise_variance
        ours = lasso(y, phi, noise_variance, config, initial,
                     lipschitz=lipschitz)
        reference = lasso(y, phi, noise_variance, config, initial)
        assert np.array_equal(ours.coefficients, reference.coefficients)
        assert ours.objective == reference.objective
        assert ours.n_iterations == reference.n_iterations
        assert ours.converged == reference.converged


def reference_select_lambda(y, phi, noise_variance, grid, folds, seed,
                            max_iterations=2000, tolerance=1e-8):
    """K-fold CV in which every fit computes its own Lipschitz constant;
    returns the chosen penalty and every fit, in call order."""
    order = np.random.default_rng(seed).permutation(len(y))
    penalties = np.asarray(sorted(grid, reverse=True), dtype=float)
    errors = np.zeros(len(penalties))
    fits = []
    for test_idx in np.array_split(order, folds):
        train = np.setdiff1d(order, test_idx, assume_unique=True)
        coefficients = None
        for j, penalty in enumerate(penalties):
            fits.append(lasso(y[train], phi[train], noise_variance,
                              LassoConfig(penalty, max_iterations, tolerance),
                              initial=coefficients))
            coefficients = fits[-1].coefficients
            residual = y[test_idx] - phi[test_idx] @ coefficients
            errors[j] += float(np.sum(np.abs(residual) ** 2))
    return float(penalties[int(np.argmin(errors))]), fits


class TestSelectLambda:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_fit_lipschitz_reference(self, seed, monkeypatch):
        """The per-fold Lipschitz constant gives exactly the penalty and the
        fits of a loop whose fits each take their own SVD."""
        gen = np.random.default_rng(400 + seed)
        y, phi, _ = random_system(gen, 24, 40, sparse=5)
        noise_variance = 0.2
        grid = default_lambda_grid(y, phi, noise_variance, size=6)
        fits = []

        def recording_lasso(*args, **kwargs):
            fits.append(lasso(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(baselines, "lasso", recording_lasso)
        chosen = select_lambda(y, phi, noise_variance, grid=grid, folds=4,
                               seed=seed)
        expected, expected_fits = reference_select_lambda(
            y, phi, noise_variance, grid, folds=4, seed=seed)
        assert chosen == expected
        assert len(fits) == len(expected_fits) == 4 * 6
        for fit, reference in zip(fits, expected_fits):
            assert np.array_equal(fit.coefficients, reference.coefficients)
            assert fit.objective == reference.objective
            assert fit.n_iterations == reference.n_iterations

    def test_one_svd_per_fold(self, rng, monkeypatch):
        y, phi, _ = random_system(rng, 18, 30, sparse=3)
        svds = []
        fits = []
        original_svdvals = baselines.sla.svdvals
        original_lasso = baselines.lasso

        def counting_svdvals(a, *args, **kwargs):
            svds.append(a.shape)
            return original_svdvals(a, *args, **kwargs)

        def counting_lasso(*args, **kwargs):
            fits.append(kwargs.get("lipschitz"))
            return original_lasso(*args, **kwargs)

        monkeypatch.setattr(baselines.sla, "svdvals", counting_svdvals)
        monkeypatch.setattr(baselines, "lasso", counting_lasso)
        select_lambda(y, phi, 0.2, grid=[0.5, 1.0, 2.0, 4.0], folds=3, seed=2)
        assert len(svds) == 3
        assert len(fits) == 3 * 4
        assert None not in fits and len(set(fits)) == 3

    def test_single_grid_point(self, rng):
        y, phi, _ = random_system(rng, 12, 20)
        assert select_lambda(y, phi, 0.2, grid=[0.37], folds=3, seed=0) == 0.37

    def test_deterministic(self, rng):
        y, phi, _ = random_system(rng, 16, 25, sparse=3)
        first = select_lambda(y, phi, 0.2, folds=4, seed=5)
        second = select_lambda(y, phi, 0.2, folds=4, seed=5)
        assert first == second

    def test_pure_noise_selects_largest(self):
        hits = 0
        for seed in range(10):
            gen = np.random.default_rng(100 + seed)
            phi = gen.standard_normal((24, 40)) + 1j * gen.standard_normal((24, 40))
            y = gen.standard_normal(24) + 1j * gen.standard_normal(24)
            grid = default_lambda_grid(y, phi, 1.0, size=6)
            chosen = select_lambda(y, phi, 1.0, grid=grid, folds=4, seed=seed)
            if chosen == np.max(grid):
                hits += 1
        assert hits >= 8

    def test_fold_validation(self, rng):
        y, phi, _ = random_system(rng, 10, 15)
        with pytest.raises(ValueError):
            select_lambda(y, phi, 0.2, folds=1, seed=0)
        with pytest.raises(ValueError):
            select_lambda(y, phi, 0.2, folds=11, seed=0)
