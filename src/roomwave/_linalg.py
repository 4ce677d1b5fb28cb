"""Hermitian positive-definite factorization helpers shared by the Bayesian
model and the marginal-likelihood machinery."""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = ["FactorizationError", "CholeskyFactor", "chol_factor"]

MAX_REL_JITTER = 1e-6    # largest diagonal jitter, relative to the mean diagonal


class FactorizationError(np.linalg.LinAlgError):
    """Hermitian factorization failed even after maximal diagonal jitter."""


class CholeskyFactor:
    """Lower Cholesky factor of a Hermitian positive-definite matrix."""

    def __init__(self, lower: np.ndarray, jitter: float = 0.0):
        self.lower = lower
        self.jitter = jitter

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        return sla.cho_solve((self.lower, True), b, check_finite=False)

    def forward(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b: half of solve(), enough for quadratic forms b^H A^{-1} b."""
        return sla.solve_triangular(self.lower, b, lower=True,
                                    check_finite=False)

    def backward(self, b: np.ndarray) -> np.ndarray:
        """L^{-H} b, so that backward(forward(b)) == solve(b)."""
        return sla.solve_triangular(self.lower, b, trans="C", lower=True,
                                    check_finite=False)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.dim, dtype=self.lower.dtype))

    def logdet(self) -> float:
        """log|A| from the factor: 2 * sum(log diag(L)); real for Hermitian PD."""
        return 2.0 * float(np.sum(np.log(np.real(np.diag(self.lower)))))


def chol_factor(a: np.ndarray) -> CholeskyFactor:
    """Cholesky with escalating diagonal jitter.

    Starts at 1e-12 times the mean diagonal and grows by factors of 10 up to
    MAX_REL_JITTER times the mean diagonal before raising
    FactorizationError. Non-finite input fails immediately.
    """
    a = np.ascontiguousarray(a)
    if not np.all(np.isfinite(a)):
        raise FactorizationError("matrix contains non-finite entries")
    try:
        return CholeskyFactor(sla.cholesky(a, lower=True, check_finite=False))
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.real(np.diag(a))))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    rel = 1e-12
    eye = np.eye(a.shape[0], dtype=a.dtype)
    while rel <= MAX_REL_JITTER:
        try:
            factor = sla.cholesky(a + (rel * scale) * eye, lower=True,
                                  check_finite=False)
            return CholeskyFactor(factor, jitter=rel * scale)
        except np.linalg.LinAlgError:
            rel *= 10.0
    raise FactorizationError(
        f"matrix not positive definite after jitter {MAX_REL_JITTER:.0e} * mean diag")
