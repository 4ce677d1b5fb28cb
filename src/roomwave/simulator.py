"""Frequency-domain image-source simulation of a shoebox room.

Ground truth for the benchmarks: the field of a unit point source is the sum
of mirrored image sources, each contributing amplitude * e^{ikd}/(4 pi d)
with amplitude rho^order for uniform wall reflection coefficient rho. The
sum is evaluated directly at the target wavenumber; no time-domain synthesis
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MicArray, RoomSpec, _as_points
from .planewaves import wavenumber

__all__ = [
    "SimSnapshot",
    "image_lattice",
    "field_at_points",
    "simulate_snapshot",
]

MIN_SOURCE_DISTANCE = 1e-9


def _axis_images(source: float, length: float, max_order: int):
    """1-D mirror lattice: coordinates (1-2p)*s + 2*m*L with reflection count
    |m - p| + |m|, for p in {0, 1}."""
    coords, costs = [], []
    m_span = max_order // 2 + 1
    for p in (0, 1):
        for m in range(-m_span, m_span + 1):
            cost = abs(m - p) + abs(m)
            if cost <= max_order:
                coords.append((1 - 2 * p) * source + 2 * m * length)
                costs.append(cost)
    return np.array(coords), np.array(costs)


def image_lattice(room: RoomSpec, max_order: int):
    """All image positions with total reflection order <= max_order.

    Returns (positions (n, 3), orders (n,)) sorted by order then position,
    so the enumeration is deterministic.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    per_axis = [_axis_images(room.source_position[a], room.dimensions[a], max_order)
                for a in range(3)]
    cx, cy, cz = (p[1] for p in per_axis)
    total = cx[:, None, None] + cy[None, :, None] + cz[None, None, :]
    keep = total <= max_order
    ix, iy, iz = np.nonzero(keep)
    positions = np.stack(
        [per_axis[0][0][ix], per_axis[1][0][iy], per_axis[2][0][iz]], axis=1)
    orders = total[keep]
    key = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0], orders))
    return positions[key], orders[key].astype(int)


def field_at_points(room: RoomSpec, receivers, k: float, max_order: int = 80) -> np.ndarray:
    """Complex pressure of the image-source sum at each receiver.

    Raises ValueError if any receiver coincides with an image source
    (distance below 1e-9 m).
    """
    recv = _as_points(receivers, "receivers")
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    positions, orders = image_lattice(room, max_order)
    amplitudes = room.reflection_coefficient ** orders.astype(float)

    out = np.empty(len(recv), dtype=complex)
    # chunk receivers to bound the (n_receivers x n_images) distance matrix
    chunk = max(1, int(2_000_000 / max(len(positions), 1)))
    for start in range(0, len(recv), chunk):
        block = recv[start:start + chunk]
        d = np.linalg.norm(block[:, None, :] - positions[None, :, :], axis=2)
        if np.min(d) < MIN_SOURCE_DISTANCE:
            raise ValueError("receiver coincides with an image source")
        out[start:start + chunk] = (amplitudes * np.exp(1j * k * d) / (4.0 * np.pi * d)).sum(axis=1)
    return out


@dataclass(frozen=True)
class SimSnapshot:
    """Single-frequency measurement: clean field, noisy copy, noise variance."""

    frequency_hz: float
    clean: np.ndarray
    noisy: np.ndarray
    noise_variance: float

    def __post_init__(self):
        clean = np.asarray(self.clean, dtype=complex)
        noisy = np.asarray(self.noisy, dtype=complex)
        if clean.shape != noisy.shape:
            raise ValueError("clean and noisy fields must have equal length")
        # written as `not a < x < b` so that NaN fails too
        if not 0.0 < self.frequency_hz < math.inf:
            raise ValueError("frequency must be positive and finite")
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise variance must be >= 0 and finite")
        object.__setattr__(self, "clean", clean)
        object.__setattr__(self, "noisy", noisy)


def simulate_snapshot(
    room: RoomSpec,
    mics: MicArray,
    frequency_hz: float,
    speed_of_sound: float = 343.0,
    snr_db: float = 20.0,
    max_order: int = 80,
    seed: int = 0,
) -> SimSnapshot:
    """Simulate microphone measurements at one frequency.

    The noise variance is set from the average clean signal power across the
    array: sigma^2 = mean(|u|^2) * 10^(-snr/10); the noise is circularly
    symmetric complex Gaussian (variance sigma^2/2 per real component).
    `snr_db=inf` yields a noiseless snapshot.
    """
    k = wavenumber(frequency_hz, speed_of_sound)
    clean = field_at_points(room, mics.positions, k, max_order)
    if math.isinf(snr_db):
        return SimSnapshot(frequency_hz, clean, clean.copy(), 0.0)
    sigma2 = float(np.mean(np.abs(clean) ** 2) * 10.0 ** (-snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(len(clean))
                                     + 1j * rng.standard_normal(len(clean)))
    return SimSnapshot(frequency_hz, clean, clean + noise, sigma2)
