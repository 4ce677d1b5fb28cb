import logging
import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave import baselines
from roomwave.baselines import (LassoResult, _lipschitz, default_lambda_grid,
                                lasso, nearest_neighbor, null_threshold,
                                select_lambda, tikhonov)
from roomwave.bayes import (Hyperparameters, build_posterior, predict,
                            prior_covariance_from_matrices)
from roomwave.marglik import MarginalLikelihood


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


def _soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Complex soft-thresholding: shrink the modulus, keep the phase."""
    mags = np.abs(v)
    scale = np.maximum(1.0 - threshold / np.maximum(mags, 1e-300), 0.0)
    return scale * v


def reference_lasso(y, phi: np.ndarray, noise_variance: float,
                    penalty: float, *, max_iterations: int = 5000,
                    tolerance: float = 1e-10, initial=None,
                    lipschitz: float | None = None) -> LassoResult:
    """The two-vector FISTA loop that `lasso` replaced, kept verbatim as its
    oracle. Minimize ||y - Phi a||^2 / (2 s2) + penalty * sum_p |a_p|.

    FISTA with the fixed step 1 / lipschitz, where lipschitz =
    ||Phi||_2^2 / s2 = lambda_max(Phi^H Phi) / s2; the momentum is restarted
    whenever an accelerated step would increase the objective, so the
    reported objective sequence is non-increasing. Starts from zeros or from
    `initial` (warm start along a penalty path). A caller that fits one Phi
    many times passes its `lipschitz`, ||Phi||_2^2 / s2, to skip the SVD;
    None computes it here. Returns the best iterate with converged=False
    when the tolerance is not reached within the iteration budget.
    """
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    y = np.asarray(y, dtype=complex).reshape(-1)
    m, p = phi.shape
    if len(y) != m:
        raise ValueError("y length must match Phi rows")

    # the objective at a with phi_a = Phi a; ndarray.sum is np.sum without
    # its dispatch (the same pairwise np.add.reduce, the same bits)
    def objective(phi_a, a):
        return (float((np.abs(y - phi_a) ** 2).sum()) / (2 * noise_variance)
                + penalty * float(np.abs(a).sum()))

    if lipschitz is None:
        lipschitz = _lipschitz(phi, noise_variance)
    if lipschitz == 0.0:
        zeros = np.zeros(p, dtype=complex)
        return LassoResult(zeros, objective(phi @ zeros, zeros), 0, True)
    step = 1.0 / lipschitz

    x = (np.zeros(p, dtype=complex) if initial is None
         else np.asarray(initial, dtype=complex).reshape(p).copy())
    phi_x = phi @ x if initial is not None else np.zeros(m, dtype=complex)
    z = x
    phi_z = phi_x
    t = 1.0
    f_x = objective(phi_x, x)
    converged = False
    iterations = 0
    phi_h = phi.conj().T    # the adjoint is formed once, not per iteration

    for iterations in range(1, max_iterations + 1):
        grad = phi_h @ (phi_z - y) / noise_variance
        x_new = _soft_threshold(z - step * grad, step * penalty)
        phi_x_new = phi @ x_new
        f_new = objective(phi_x_new, x_new)
        if f_new > f_x:
            # accelerated step overshot: restart the momentum from x
            grad = phi_h @ (phi_x - y) / noise_variance
            x_new = _soft_threshold(x - step * grad, step * penalty)
            phi_x_new = phi @ x_new
            f_new = objective(phi_x_new, x_new)
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_new
        z = x_new + momentum * (x_new - x)
        phi_z = phi_x_new + momentum * (phi_x_new - phi_x)
        delta = abs(f_x - f_new)
        x, phi_x, f_x, t = x_new, phi_x_new, f_new, t_new
        if delta <= tolerance * max(abs(f_x), 1e-30):
            converged = True
            break

    return LassoResult(x, f_x, iterations, converged)


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
        for variances in [(0.0, 1.0), (float("nan"), 1.0),
                          (1.0, float("nan")), (1.0, float("inf"))]:
            with pytest.raises(ValueError):
                tikhonov(y, phi, *variances)

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
    """At mu = 0 the posterior mean (measurement-space form, through the
    evaluator, the prior and Q) equals the independently coded SVD ridge, on
    both sides of M = P. The prediction rows are the identity, so the mean
    is the coefficient vector itself."""
    y, phi, _ = random_system(np.random.default_rng(seed), m, p)
    hp = Hyperparameters(10.0 ** log_noise, 10.0 ** log_prior, 0.0, 1.0 + 0j)
    empty = np.zeros((0, p), dtype=complex)
    ml = MarginalLikelihood(y, phi, empty, empty, np.eye(p, dtype=complex))
    prior = prior_covariance_from_matrices(ml, hp)
    mean, _ = predict(prior, build_posterior(y, prior.mics,
                                             hp.noise_variance))
    ridge = tikhonov(y, phi, hp.noise_variance, hp.prior_variance)
    assert np.linalg.norm(mean - ridge) <= 1e-9 * np.linalg.norm(ridge)


class TestLasso:
    def test_zero_penalty_full_rank_is_least_squares(self, rng):
        y, phi, _ = random_system(rng, 30, 10)
        result = lasso(y, phi, 1.0, 0.0, max_iterations=20000,
                       tolerance=1e-14)
        lstsq = np.linalg.lstsq(phi, y, rcond=None)[0]
        npt.assert_allclose(result.coefficients, lstsq, rtol=1e-5, atol=1e-8)

    def test_null_threshold_gives_zero(self, rng):
        y, phi, _ = random_system(rng, 15, 40)
        noise_variance = 0.3
        threshold = null_threshold(y, phi, noise_variance)
        result = lasso(y, phi, noise_variance, 1.0001 * threshold)
        npt.assert_array_equal(result.coefficients, 0.0)
        assert result.converged

    def test_below_threshold_is_nonzero(self, rng):
        y, phi, _ = random_system(rng, 15, 40)
        threshold = null_threshold(y, phi, 0.3)
        result = lasso(y, phi, 0.3, 0.5 * threshold)
        assert np.any(result.coefficients != 0)

    def test_objective_non_increasing_across_iterations(self, rng):
        y, phi, _ = random_system(rng, 15, 40, sparse=5)
        penalty = 0.05 * null_threshold(y, phi, 0.2)
        values = []
        for iterations in range(1, 40):
            result = lasso(y, phi, 0.2, penalty, max_iterations=iterations,
                           tolerance=0.0)
            values.append(result.objective)
        assert np.all(np.diff(values) <= 1e-12)

    def test_phase_equivariance(self, rng):
        y, phi, _ = random_system(rng, 12, 30, sparse=4)
        penalty = 0.1 * null_threshold(y, phi, 0.2)
        options = dict(max_iterations=3000, tolerance=1e-12)
        base = lasso(y, phi, 0.2, penalty, **options).coefficients
        rotated = lasso(np.exp(1.1j) * y, phi, 0.2, penalty,
                        **options).coefficients
        npt.assert_allclose(rotated, np.exp(1.1j) * base, rtol=1e-6,
                            atol=1e-9)

    def test_matches_convex_solver_oracle(self, rng):
        """Small-instance objective check against a general-purpose convex
        solver."""
        cvxpy = pytest.importorskip("cvxpy")
        y, phi, _ = random_system(rng, 10, 20, sparse=3)
        noise_variance = 0.25
        penalty = 0.2 * null_threshold(y, phi, noise_variance)
        ours = lasso(y, phi, noise_variance, penalty, max_iterations=20000,
                     tolerance=1e-14)
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
        result = lasso(y, phi, noise_variance, penalty, max_iterations=20000,
                       tolerance=1e-14)
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
        options = dict(max_iterations=5000, tolerance=1e-13)
        cold = lasso(y, phi, 0.2, penalty, **options)
        warm = lasso(y, phi, 0.2, penalty, **options,
                     initial=cold.coefficients)
        assert warm.objective <= cold.objective + 1e-12
        assert warm.n_iterations <= cold.n_iterations

    def test_objective_helper(self, rng):
        """The reported objective is the lasso objective at the returned
        coefficients, from a warm start and after any iteration count."""
        y, phi, _ = random_system(rng, 8, 12)
        initial = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for iterations in (1, 3, 50):
            result = lasso(y, phi, 0.5, 0.3, max_iterations=iterations,
                           tolerance=0.0, initial=initial)
            alpha = result.coefficients
            expected = (np.linalg.norm(y - phi @ alpha) ** 2 / (2 * 0.5)
                        + 0.3 * np.sum(np.abs(alpha)))
            assert result.objective == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix_returns_zero_at_its_objective(self, rng):
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        result = lasso(y, np.zeros((6, 9), dtype=complex), 0.5, 0.3)
        npt.assert_array_equal(result.coefficients, 0.0)
        assert result.converged and result.n_iterations == 0
        assert result.objective == pytest.approx(
            np.linalg.norm(y) ** 2 / (2 * 0.5), rel=1e-12)


    def test_argument_validation(self, rng):
        y, phi, _ = random_system(rng, 6, 9)
        for penalty in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="penalty"):
                lasso(y, phi, 0.5, penalty)
        with pytest.raises(ValueError, match="max_iterations"):
            lasso(y, phi, 0.5, 0.3, max_iterations=0)
        for noise_variance in (0.0, math.inf):
            with pytest.raises(ValueError, match="noise_variance"):
                lasso(y, phi, noise_variance, 0.3)


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
        options = dict(max_iterations=3000, tolerance=1e-12, initial=initial)
        lipschitz = float(sla.svdvals(phi)[0] ** 2) / noise_variance
        ours = lasso(y, phi, noise_variance, penalty, **options,
                     lipschitz=lipschitz)
        reference = lasso(y, phi, noise_variance, penalty, **options)
        assert np.array_equal(ours.coefficients, reference.coefficients)
        assert ours.objective == reference.objective
        assert ours.n_iterations == reference.n_iterations
        assert ours.converged == reference.converged


def assert_same_fit(ours, reference):
    """Same iteration count and convergence flag; coefficients and objective
    equal up to the roundoff of a reordered evaluation."""
    assert ours.n_iterations == reference.n_iterations
    assert ours.converged == reference.converged
    npt.assert_allclose(ours.coefficients, reference.coefficients, rtol=1e-9,
                        atol=0.0)
    assert ours.objective == pytest.approx(reference.objective, rel=1e-12)


class TestAgainstReferenceLoop:
    """The one-state kernel takes the iterations of the two-vector loop it
    replaced: the same restart decisions and the same stopping iteration."""

    @pytest.mark.parametrize("m, p", [(15, 40), (40, 15)])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_cold_and_warm(self, m, p, warm, seed):
        gen = np.random.default_rng(500 + seed)
        y, phi, _ = random_system(gen, m, p, sparse=4)
        penalty = 0.1 * null_threshold(y, phi, 0.2)
        initial = (gen.standard_normal(p) + 1j * gen.standard_normal(p)
                   if warm else None)
        options = dict(max_iterations=3000, tolerance=1e-10, initial=initial)
        assert_same_fit(lasso(y, phi, 0.2, penalty, **options),
                        reference_lasso(y, phi, 0.2, penalty, **options))

    @pytest.mark.parametrize("m, p, config", [
        (40, 15, dict(max_iterations=400, tolerance=1e-12)),
        (15, 40, dict(max_iterations=20, tolerance=0.0))])
    def test_zero_penalty(self, m, p, config):
        """Least squares for M > P; for M < P the objective falls towards
        zero, where a relative stopping test only meets roundoff, so that
        case compares 20 iterations (objective still 5e-3)."""
        y, phi, _ = random_system(np.random.default_rng(7), m, p)
        assert_same_fit(lasso(y, phi, 0.5, 0.0, **config),
                        reference_lasso(y, phi, 0.5, 0.0, **config))

    # past about 150 iterations this fit sits at the roundoff floor, where
    # tolerance 0 stops on whichever iteration first repeats an objective
    @pytest.mark.parametrize("iterations", [1, 2, 5, 30, 100])
    def test_fixed_iteration_counts(self, iterations):
        y, phi, _ = random_system(np.random.default_rng(11), 15, 40,
                                  sparse=5)
        penalty = 0.05 * null_threshold(y, phi, 0.2)
        options = dict(max_iterations=iterations, tolerance=0.0)
        ours = lasso(y, phi, 0.2, penalty, **options)
        assert ours.n_iterations == iterations and not ours.converged
        assert_same_fit(ours, reference_lasso(y, phi, 0.2, penalty, **options))

    def test_momentum_restarts(self, monkeypatch):
        """A fit whose accelerated step overshoots: the restart branch of the
        reference runs (a second thresholding in the same iteration)."""
        thresholds = []
        original = _soft_threshold

        def counting(v, threshold):
            thresholds.append(threshold)
            return original(v, threshold)

        monkeypatch.setitem(reference_lasso.__globals__, "_soft_threshold",
                            counting)
        y, phi, _ = random_system(np.random.default_rng(3), 20, 60, sparse=6)
        penalty = 0.02 * null_threshold(y, phi, 0.2)
        options = dict(max_iterations=3000, tolerance=1e-12)
        reference = reference_lasso(y, phi, 0.2, penalty, **options)
        assert len(thresholds) > reference.n_iterations
        assert_same_fit(lasso(y, phi, 0.2, penalty, **options), reference)

    def test_select_lambda_picks_the_same_penalty(self, monkeypatch):
        chosen = []
        for seed in range(12):
            gen = np.random.default_rng(600 + seed)
            y, phi, _ = random_system(gen, 30, 60, sparse=5, noise=0.5)
            grid = default_lambda_grid(y, phi, 0.5, size=10)
            with monkeypatch.context() as patch:
                patch.setattr(baselines, "lasso", reference_lasso)
                expected = select_lambda(y, phi, 0.5, grid, folds=3,
                                         seed=seed)
            chosen.append(select_lambda(y, phi, 0.5, grid, folds=3, seed=seed))
            assert chosen[-1] == expected
        assert len(set(chosen)) > 1


class TestBuffers:
    """Every call owns its buffers: the caller's arrays are left alone and
    no result aliases another or the warm start."""

    def test_initial_and_phi_unmodified(self, rng):
        y, phi, _ = random_system(rng, 12, 30, sparse=4)
        initial = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        saved_initial, saved_phi = initial.copy(), phi.copy()
        result = lasso(y, phi, 0.2, 0.1, max_iterations=50, tolerance=0.0,
                       initial=initial)
        assert np.array_equal(initial, saved_initial)
        assert np.array_equal(phi, saved_phi)
        assert not np.shares_memory(result.coefficients, initial)

    def test_real_phi_unmodified(self, rng):
        """A real Phi is not scaled in place: same fit as its complex copy."""
        phi = rng.standard_normal((12, 30))
        saved = phi.copy()
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        options = dict(max_iterations=100, tolerance=0.0)
        ours = lasso(y, phi, 0.2, 0.1, **options)
        assert np.array_equal(phi, saved)
        npt.assert_allclose(ours.coefficients,
                            lasso(y, phi.astype(complex), 0.2, 0.1,
                                  **options).coefficients, rtol=1e-9)

    def test_warm_started_path_shares_nothing(self, rng):
        y, phi, _ = random_system(rng, 12, 30, sparse=4)
        top = null_threshold(y, phi, 0.2)
        initial = np.zeros(30, dtype=complex)
        arrays = [initial]
        coefficients = initial
        for penalty in top * np.array([0.5, 0.2, 0.1, 0.05]):
            fit = lasso(y, phi, 0.2, penalty, max_iterations=200,
                        tolerance=1e-8, initial=coefficients)
            coefficients = fit.coefficients
            arrays.append(coefficients)
        arrays.append(lasso(y, phi, 0.2, 0.1, initial=None).coefficients)
        arrays.append(lasso(y, np.zeros((12, 30), dtype=complex), 0.2,
                            0.1).coefficients)
        assert not np.any(initial)
        for i, a in enumerate(arrays):
            assert a.base is None     # owns its memory, no view of a buffer
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


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
            fits.append(lasso(y[train], phi[train], noise_variance, penalty,
                              max_iterations=max_iterations,
                              tolerance=tolerance, initial=coefficients))
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

    @staticmethod
    def recorded_call(monkeypatch, caplog, seed=3, **label):
        """select_lambda on one small system, with `label` passed on;
        (fits, warnings)."""
        gen = np.random.default_rng(seed)
        y, phi, _ = random_system(gen, 24, 40, sparse=5)
        grid = default_lambda_grid(y, phi, 0.2, size=6)
        fits = []

        def recording_lasso(*args, **kwargs):
            fits.append(lasso(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(baselines, "lasso", recording_lasso)
        with caplog.at_level(logging.WARNING, logger=baselines.__name__):
            chosen = select_lambda(y, phi, 0.2, grid=grid, folds=4, seed=seed,
                                   **label)
        expected, _ = reference_select_lambda(
            y, phi, 0.2, grid, folds=4, seed=seed,
            max_iterations=baselines.CV_MAX_ITERATIONS)
        assert chosen == expected       # the warning changes no output
        return fits, [r.getMessage() for r in caplog.records]

    def test_unconverged_fits_counted_in_one_warning(self, monkeypatch,
                                                     caplog):
        monkeypatch.setattr(baselines, "CV_MAX_ITERATIONS", 2)
        fits, messages = self.recorded_call(monkeypatch, caplog)
        unconverged = sum(not fit.converged for fit in fits)
        assert 0 < unconverged <= len(fits) == 24
        assert messages == [f"select_lambda: {unconverged} of 24 "
                            "cross-validation lasso fits did not converge "
                            "in 2 iterations"]

    def test_warning_starts_with_the_label(self, monkeypatch, caplog):
        monkeypatch.setattr(baselines, "CV_MAX_ITERATIONS", 2)
        label = "run 1 at 300 Hz, microphones shifted 0.1 m"
        fits, messages = self.recorded_call(monkeypatch, caplog, label=label)
        unconverged = sum(not fit.converged for fit in fits)
        assert messages == [f"{label}: {unconverged} of 24 cross-validation "
                            "lasso fits did not converge in 2 iterations"]

    def test_converged_call_logs_nothing(self, monkeypatch, caplog):
        fits, messages = self.recorded_call(monkeypatch, caplog)
        assert all(fit.converged for fit in fits) and len(fits) == 24
        assert messages == []

    def test_single_grid_point(self, rng):
        y, phi, _ = random_system(rng, 12, 20)
        assert select_lambda(y, phi, 0.2, grid=[0.37], folds=3, seed=0) == 0.37

    def test_deterministic(self, rng):
        y, phi, _ = random_system(rng, 16, 25, sparse=3)
        grid = default_lambda_grid(y, phi, 0.2, 8)
        first = select_lambda(y, phi, 0.2, grid, folds=4, seed=5)
        second = select_lambda(y, phi, 0.2, grid, folds=4, seed=5)
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
            select_lambda(y, phi, 0.2, [0.1], folds=1, seed=0)
        with pytest.raises(ValueError):
            select_lambda(y, phi, 0.2, [0.1], folds=11, seed=0)
        with pytest.raises(ValueError, match="grid"):
            select_lambda(y, phi, 0.2, [], folds=2, seed=0)

    @pytest.mark.parametrize("noise_variance", [0.0, -0.2, math.nan, math.inf])
    def test_noise_variance_must_be_positive(self, rng, noise_variance):
        """A noiseless snapshot (sigma^2 = 0) fails with the lasso's own
        message, not a division by zero or an all-inf grid."""
        y, phi, _ = random_system(rng, 10, 15)
        with pytest.raises(ValueError, match="noise_variance"):
            default_lambda_grid(y, phi, noise_variance, 5)
        with pytest.raises(ValueError, match="noise_variance"):
            select_lambda(y, phi, noise_variance, [0.1], folds=2, seed=0)
