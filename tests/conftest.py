"""Shared fixtures: the default room and small reusable instances."""

# roomwave first: its import sets one BLAS thread, which OpenBLAS reads only
# when numpy loads it, and the fits here are slower on more threads
import roomwave  # noqa: F401

import numpy as np
import pytest

from roomwave.geometry import RoomSpec


@pytest.fixture
def room():
    return RoomSpec(np.array([5.0, 4.0, 3.0]), 0.95,
                    np.array([1.0, 2.0, 1.5]))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def complex_instance(rng):
    """Random complex (y, phi, psi, phi_tilde) of modest size."""

    def make(m=20, p=50, b=30, seed=None):
        gen = np.random.default_rng(seed) if seed is not None else rng
        phi = gen.standard_normal((m, p)) + 1j * gen.standard_normal((m, p))
        psi = gen.standard_normal((b, p)) + 1j * gen.standard_normal((b, p))
        phi_tilde = gen.standard_normal((b, p)) + 1j * gen.standard_normal((b, p))
        y = gen.standard_normal(m) + 1j * gen.standard_normal(m)
        return y, phi, psi, phi_tilde

    return make


@pytest.fixture
def in_process(monkeypatch):
    """Every measurement and fit in this process, where monkeypatches
    apply."""
    from roomwave import experiments
    monkeypatch.setattr(experiments, "_worker_count", lambda tasks: 1)
