"""Frequency-domain image-source simulation of a shoebox room.

Ground truth for the benchmarks: the field of a unit point source is the sum
of mirrored image sources, each contributing amplitude * e^{ikd}/(4 pi d)
with amplitude rho^order for uniform wall reflection coefficient rho. The
sum is evaluated directly at the target wavenumber; no time-domain synthesis
is involved.

`field_at_points` sums over blocks of receiver rows, sized so that a block
holds about PAIR_BUDGET receiver-image pairs (at least one row, whatever the
image count), so memory stays flat in the receiver count and no (receivers,
images, 3) difference array is formed. Each block is computed as the direct
expression

    d = sqrt(((bx - x)^2 + (by - y)^2) + (bz - z)^2)
    (amplitudes * np.exp(1j*k*d) / (4*pi*d)).sum(axis=1)

over the image coordinates x, y, z. The squared differences are added in
the order np.linalg.norm(axis=-1) adds them, so d has the bytes of
np.linalg.norm(receivers[:, None] - images[None], axis=2). Blocks split
receivers, never images, so each row is one sum(axis=1) over all images and
keeps numpy's pairwise-summation tree. The bytes matter: some benchmark
cells (truncated marginal-likelihood fits) move by 0.13-0.41 dB when the
snapshot moves by one ulp, and tests/test_simulator.py checks the sum
against that direct expression bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import RoomSpec, _as_points
from .planewaves import wavenumber

__all__ = [
    "SimSnapshot",
    "image_lattice",
    "field_at_points",
    "simulate_snapshot",
]

MIN_SOURCE_DISTANCE = 1e-9
# receivers per block times image sources: a peak of about 2.8 MB at
# order 20 (100 receivers, traced)
PAIR_BUDGET = 65_536


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


@functools.lru_cache(maxsize=1)
def image_lattice(room: RoomSpec, max_order: int):
    """All image positions with total reflection order <= max_order.

    Returns (positions (n, 3), orders (n,)) sorted by order then position,
    so the enumeration is deterministic. The arrays are read-only: the last
    (room, max_order) is cached, since a benchmark simulates one room at one
    order throughout. The cache holds about 22 MB at order 80 and 0.4 MB at
    order 20, per process.

    Only kept images are enumerated: the (x, y) index pairs whose order
    leaves room for a z image (the z axis always has one of order 0), and
    for each pair the z indices of the cheapest z images, found by one
    searchsorted over the sorted z orders. No dense (x, y, z) order cube is
    formed, so memory grows with the image count, not with the cube. The
    final sort on (order, x, y, z) makes the result independent of the
    enumeration order: rows that tie on all four keys are equal.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    (x, cx), (y, cy), (z, cz) = (
        _axis_images(room.source_position[a], room.dimensions[a], max_order)
        for a in range(3))
    z_rank = np.argsort(cz, kind="stable")
    cxy = cx[:, None] + cy[None, :]
    ix, iy = np.nonzero(cxy <= max_order)
    cxy = cxy[ix, iy]
    counts = np.searchsorted(cz[z_rank], max_order - cxy, side="right")
    # pair j takes z_rank[:counts[j]], indexed by a ramp that restarts at
    # every pair
    iz = z_rank[np.arange(counts.sum())
                - np.repeat(np.cumsum(counts) - counts, counts)]
    orders = np.repeat(cxy, counts) + cz[iz]
    positions = np.stack(
        [x[np.repeat(ix, counts)], y[np.repeat(iy, counts)], z[iz]], axis=1)
    key = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0], orders))
    positions, orders = positions[key], orders[key].astype(int)
    positions.flags.writeable = orders.flags.writeable = False
    return positions, orders


def field_at_points(room: RoomSpec, receivers, k: float, max_order: int = 80) -> np.ndarray:
    """Complex pressure of the image-source sum at each receiver.

    Raises ValueError if the wavenumber is not positive and finite, or if any
    receiver coincides with an image source (distance below 1e-9 m).
    """
    recv = _as_points(receivers, "receivers")
    # written as `not a < x < b` so that NaN fails too
    if not 0.0 < k < math.inf:
        raise ValueError("wavenumber must be positive and finite")
    positions, orders = image_lattice(room, max_order)
    amplitudes = room.reflection_coefficient ** orders.astype(float)
    x, y, z = np.ascontiguousarray(positions.T)
    rows = max(1, PAIR_BUDGET // len(amplitudes))
    out = np.empty(len(recv), dtype=complex)
    for start in range(0, len(recv), rows):
        bx, by, bz = recv[start:start + rows].T[:, :, None]
        d = np.sqrt(((bx - x) ** 2 + (by - y) ** 2) + (bz - z) ** 2)
        if np.min(d) < MIN_SOURCE_DISTANCE:
            raise ValueError("receiver coincides with an image source")
        out[start:start + rows] = (amplitudes * np.exp(1j * k * d)
                                   / (4.0 * np.pi * d)).sum(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class SimSnapshot:
    """One single-frequency measurement, the record that `simulate_snapshot`
    returns and `fileio` writes and reads: the room, the microphone positions
    (M, 3), pairwise distinct, the clean field and a noisy copy at each
    microphone, the noise variance and the seed of the noise."""

    room: RoomSpec
    mics: np.ndarray
    frequency_hz: float
    clean: np.ndarray
    noisy: np.ndarray
    noise_variance: float
    seed: int

    def __post_init__(self):
        mics = _as_points(self.mics, "microphone positions")
        if len(mics) < 1:
            raise ValueError("need at least one microphone")
        ordered = mics[np.lexsort(mics.T)]
        if np.any(np.all(np.diff(ordered, axis=0) == 0.0, axis=1)):
            raise ValueError("microphone positions must be pairwise distinct")
        clean = np.asarray(self.clean, dtype=complex)
        noisy = np.asarray(self.noisy, dtype=complex)
        if clean.shape != (len(mics),) or noisy.shape != (len(mics),):
            raise ValueError("need one clean and one noisy value per microphone")
        if not (np.all(np.isfinite(clean)) and np.all(np.isfinite(noisy))):
            raise ValueError("clean and noisy fields must be finite")
        # written as `not a < x < b` so that NaN fails too
        if not 0.0 < self.frequency_hz < math.inf:
            raise ValueError("frequency must be positive and finite")
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise variance must be >= 0 and finite")
        object.__setattr__(self, "mics", mics)
        object.__setattr__(self, "clean", clean)
        object.__setattr__(self, "noisy", noisy)


def simulate_snapshot(
    room: RoomSpec,
    mics,
    frequency_hz: float,
    speed_of_sound: float = 343.0,
    snr_db: float = 20.0,
    max_order: int = 80,
    seed: int = 0,
) -> SimSnapshot:
    """Simulate measurements at the microphone positions `mics` (M, 3) at one
    frequency, with noise drawn from `seed`.

    The noise variance is set from the average clean signal power across the
    array: sigma^2 = mean(|u|^2) * 10^(-snr/10); the noise is circularly
    symmetric complex Gaussian (variance sigma^2/2 per real component).
    `snr_db` is finite or +inf, which gives sigma^2 = 0 and a noiseless
    snapshot; -inf, NaN and an SNR low enough (about -3082.5 dB) that
    10^(-snr/10) overflows a float raise ValueError.
    """
    # written so that NaN fails too
    if not -snr_db / 10.0 < math.log10(np.finfo(float).max):
        raise ValueError("snr_db must be +inf or a number whose noise ratio "
                         "10^(-snr_db/10) is a finite float")
    k = wavenumber(frequency_hz, speed_of_sound)
    clean = field_at_points(room, mics, k, max_order)
    sigma2 = float(np.mean(np.abs(clean) ** 2) * 10.0 ** (-snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = np.sqrt(sigma2 / 2.0) * (rng.standard_normal(len(clean))
                                     + 1j * rng.standard_normal(len(clean)))
    return SimSnapshot(room, mics, frequency_hz, clean, clean + noise, sigma2,
                       seed)
