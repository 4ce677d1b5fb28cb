"""Plane-wave dictionary: near-uniform directions on the sphere and the
basis matrices used by the measurement and boundary models.

A dictionary holds P unit propagation directions and a wavenumber k; the
basis atoms are e^{i k_p . r} with k_p = k * direction_p. The spatial kernel
is paired with the e^{-i omega t} time convention, so e^{+ikd}/(4 pi d) is
the matching outgoing point-source field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryCloud, _as_points

__all__ = [
    "PlaneWaveDictionary",
    "wavenumber",
    "fibonacci_directions",
    "build_phi",
    "build_psi",
    "build_phi_tilde",
    "evaluate_field",
]

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def wavenumber(frequency_hz: float, speed_of_sound: float) -> float:
    """k = 2*pi*f / c in rad/m."""
    # written as `not a < x < b` so that NaN fails too
    if not (0.0 < frequency_hz < math.inf and 0.0 < speed_of_sound < math.inf):
        raise ValueError("frequency and speed of sound must be positive "
                         "and finite")
    return 2.0 * np.pi * frequency_hz / speed_of_sound


def fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic Fibonacci lattice of `count` unit vectors.

    Uses the half-offset variant: z_i = 1 - 2(i+0.5)/P with azimuth
    i * pi * (3 - sqrt(5)), which keeps points off the poles.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    azimuth = i * GOLDEN_ANGLE
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)


@dataclass(frozen=True)
class PlaneWaveDictionary:
    """P plane-wave atoms: unit directions (P, 3) and a wavenumber k > 0."""

    wavenumber: float
    directions: np.ndarray

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=float).reshape(-1, 3)
        if not 0.0 < self.wavenumber < math.inf:
            raise ValueError("wavenumber must be positive and finite")
        if len(dirs) < 1:
            raise ValueError("need at least one direction")
        if np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) > 1e-12:
            raise ValueError("directions must be unit vectors")
        object.__setattr__(self, "directions", dirs)

    @property
    def size(self) -> int:
        return len(self.directions)

    @property
    def wave_vectors(self) -> np.ndarray:
        """k_p = k * direction_p, shape (P, 3)."""
        return self.wavenumber * self.directions


def build_phi(dictionary: PlaneWaveDictionary, points) -> np.ndarray:
    """Measurement matrix, entry (m, p) = exp(i k_p . r_m). Shape (M, P)."""
    pts = _as_points(points)
    return np.exp(1j * (pts @ dictionary.wave_vectors.T))


def _boundary_phase(dictionary: PlaneWaveDictionary,
                    cloud: BoundaryCloud) -> np.ndarray:
    """exp(i k_p . r_b) written into the one complex (B, P) array that the
    boundary builders scale in place and return."""
    phase = np.multiply(1j, cloud.points @ dictionary.wave_vectors.T)
    return np.exp(phase, out=phase)


def build_psi(dictionary: PlaneWaveDictionary, cloud: BoundaryCloud) -> np.ndarray:
    """Normal-derivative matrix at the boundary cloud.

    Entry (b, p) = i (k_p . n_b) exp(i k_p . r_b): the derivative of atom p
    along the outward normal at boundary point b. Shape (B, P).

    The phase is scaled in place, with the operands in the order of the
    direct expression `1j * (N @ K.T) * exp(1j * (R @ K.T))`, so the result
    is that expression bit for bit. Bit identity matters: some truncated
    marginal-likelihood fits move by tenths of a dB when an input moves by
    one ulp, and tests/test_planewaves.py checks it against the direct form.
    """
    out = _boundary_phase(dictionary, cloud)
    return np.multiply(1j * (cloud.normals @ dictionary.wave_vectors.T), out,
                       out=out)


def build_phi_tilde(dictionary: PlaneWaveDictionary, cloud: BoundaryCloud) -> np.ndarray:
    """Pressure part of the impedance boundary operator.

    Entry (b, p) = i k exp(i k_p . r_b). Shape (B, P).

    Like `build_psi`, the phase is scaled in place and equals the direct
    expression `1j * k * exp(1j * (R @ K.T))` bit for bit.
    """
    out = _boundary_phase(dictionary, cloud)
    return np.multiply(1j * dictionary.wavenumber, out, out=out)


def evaluate_field(dictionary: PlaneWaveDictionary, coefficients, points) -> np.ndarray:
    """Field u(r) = sum_p alpha_p exp(i k_p . r) at the given points."""
    alpha = np.asarray(coefficients)
    if alpha.shape != (dictionary.size,):
        raise ValueError(
            f"expected {dictionary.size} coefficients, got shape {alpha.shape}")
    return build_phi(dictionary, points) @ alpha
