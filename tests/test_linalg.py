import numpy as np
import numpy.testing as npt
import pytest

from roomwave import _linalg
from roomwave._linalg import MAX_REL_JITTER, FactorizationError, chol_factor


def random_pd(rng, n=6):
    """Complex Hermitian positive-definite matrix, well conditioned."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T + n * np.eye(n)


def rank_one(n=4):
    """v v^H with entries of modulus one: exactly singular PSD, so the
    second Cholesky pivot is exactly zero."""
    v = np.array([1, 1j, -1, -1j])[:n]
    return np.outer(v, v.conj())


class TestJitter:
    def test_positive_definite_needs_none(self, rng):
        a = random_pd(rng)
        factor = chol_factor(a)
        assert factor.jitter == 0.0
        npt.assert_allclose(factor.lower @ factor.lower.conj().T, a,
                            rtol=1e-12, atol=1e-12)

    def test_rank_deficient_gets_bounded_jitter(self):
        a = rank_one()
        scale = float(np.mean(np.real(np.diag(a))))
        factor = chol_factor(a)
        assert 0.0 < factor.jitter <= MAX_REL_JITTER * scale
        npt.assert_allclose(factor.lower @ factor.lower.conj().T,
                            a + factor.jitter * np.eye(len(a)),
                            rtol=0, atol=1e-12)

    def test_smallest_sufficient_power_of_ten(self):
        """A -1e-9 eigenvalue next to 1: relative jitter 1e-9 of the mean
        diagonal (about 0.5) is too small, 1e-8 is the first that works."""
        a = np.diag([1.0, -1e-9])
        factor = chol_factor(a)
        assert factor.jitter == pytest.approx(1e-8 * np.mean(np.diag(a)),
                                              rel=1e-12)

    @pytest.mark.parametrize("negative, ok", [(0.9, True), (1.1, False)])
    def test_largest_jitter_is_the_limit(self, negative, ok):
        """An eigenvalue just inside -MAX_REL_JITTER * mean diagonal is
        absorbed; one just outside raises. The escalation must reach the
        bound itself, not stop one factor of 10 short of it."""
        a = np.diag([1.0, -negative * MAX_REL_JITTER * 0.5])
        if ok:
            assert chol_factor(a).jitter == pytest.approx(
                MAX_REL_JITTER * np.mean(np.diag(a)), rel=1e-12)
        else:
            with pytest.raises(FactorizationError):
                chol_factor(a)

    def test_indefinite_raises(self):
        with pytest.raises(FactorizationError, match="not positive definite"):
            chol_factor(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_before_factorizing(self, rng, monkeypatch,
                                                  bad):
        calls = []
        original = _linalg.sla.cholesky

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(_linalg.sla, "cholesky", counting)
        a = random_pd(rng)
        a[2, 3] = bad
        with pytest.raises(FactorizationError, match="non-finite"):
            chol_factor(a)
        assert calls == []


class TestFactorOperations:
    def test_forward_backward_compose_to_solve(self, rng):
        factor = chol_factor(random_pd(rng))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        npt.assert_allclose(factor.backward(factor.forward(b)),
                            factor.solve(b), rtol=1e-12, atol=1e-14)

    def test_solve_inverse_and_logdet_match_numpy(self, rng):
        a = random_pd(rng)
        factor = chol_factor(a)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        npt.assert_allclose(factor.solve(b), np.linalg.solve(a, b),
                            rtol=1e-10)
        npt.assert_allclose(factor.inverse(), np.linalg.inv(a), rtol=1e-10,
                            atol=1e-14)
        sign, logdet = np.linalg.slogdet(a)
        assert sign == pytest.approx(1.0)
        assert factor.logdet() == pytest.approx(logdet, rel=1e-12)
