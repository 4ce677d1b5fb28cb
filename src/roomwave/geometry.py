"""Shoebox room geometry and seeded random sampling of microphone, validation
and boundary points.

All positions are metric, stored as float64 arrays of shape (n, 3), and every
point set is checked by `_as_points`. Microphone and validation points are
plain arrays, drawn by one rejection loop; a measurement
(`simulator.SimSnapshot`) requires its microphone positions to be pairwise
distinct. Sampling functions are pure: the same arguments and seed always
produce the same points, and every call uses its own local generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RoomSpec",
    "BoundaryCloud",
    "sample_microphones",
    "sample_validation_points",
    "sample_boundary",
    "perturb_positions",
]

UNIT_NORM_TOL = 1e-12


def _as_points(points, name: str = "points") -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be finite")
    return pts


@dataclass(frozen=True)
class RoomSpec:
    """Axis-aligned shoebox room [0, Lx] x [0, Ly] x [0, Lz] with a point
    source strictly inside and a single pressure reflection coefficient
    shared by all six walls. The defaults are the office-scale room that
    configs/default.yaml lists; any 3-sequence is stored as a tuple of
    floats, so rooms compare and hash by value."""

    dimensions: tuple = (5.0, 4.0, 3.0)
    reflection_coefficient: float = 0.95
    source_position: tuple = (1.0, 2.0, 1.5)

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=float)
        src = np.asarray(self.source_position, dtype=float)
        if dims.shape != (3,) or not np.all((dims > 0) & (dims < np.inf)):
            raise ValueError("room dimensions must be 3 positive finite lengths")
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError("reflection coefficient must be in [0, 1]")
        if src.shape != (3,) or not np.all((src > 0) & (src < dims)):
            raise ValueError("source must lie strictly inside the room")
        object.__setattr__(self, "dimensions", tuple(dims.tolist()))
        object.__setattr__(self, "source_position", tuple(src.tolist()))

    @property
    def mic_half_center(self) -> np.ndarray:
        """Centroid of the microphone half of the room (x > Lx/2)."""
        c = np.asarray(self.dimensions) / 2.0
        c[0] = 0.75 * self.dimensions[0]
        return c


@dataclass(frozen=True, eq=False)
class BoundaryCloud:
    """Boundary sample points with outward unit normals (pointing out of the
    acoustic domain, into the wall). May be empty."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points, "boundary points")
        nrm = _as_points(self.normals, "normals")
        if len(pts) != len(nrm):
            raise ValueError("points and normals must have equal length")
        if len(nrm) and np.max(np.abs(np.linalg.norm(nrm, axis=1) - 1.0)) > UNIT_NORM_TOL:
            raise ValueError("normals must have unit norm")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, count: int) -> "BoundaryCloud":
        """First `count` samples; a prefix of an i.i.d. sample is itself a
        uniform sample of the smaller size."""
        if not 0 <= count <= len(self):
            raise ValueError(f"subset size {count} out of range 0..{len(self)}")
        return BoundaryCloud(self.points[:count], self.normals[:count])


def _random_unit_vectors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic unit vectors via normalized Gaussians."""
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _rejection_sample(count: int, lo, hi, keep, min_batch: int,
                      seed: int) -> np.ndarray:
    """`count` points drawn uniformly from the box [lo, hi) and kept where
    `keep(draws)` is true, in batches of four times the shortfall (at least
    `min_batch`). Raises RuntimeError once a million draws keep fewer than
    one in a million."""
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    attempts = 0
    n_found = 0
    while n_found < count:
        batch = max(4 * (count - n_found), min_batch)
        draw = rng.uniform(lo, hi, size=(batch, 3))
        attempts += batch
        accepted.append(draw[keep(draw)][: count - n_found])
        n_found += len(accepted[-1])
        if attempts >= 1_000_000 and n_found / attempts < 1e-6:
            raise RuntimeError(
                "rejection sampling: admissible region has negligible volume "
                f"(acceptance rate {n_found / attempts:.2e})")
    return np.concatenate(accepted, axis=0)


def sample_microphones(room: RoomSpec, count: int,
                       exclusion_radius: float = 0.5,
                       seed: int = 0) -> np.ndarray:
    """Uniform microphone positions, shape (count, 3), in the half-room
    x > Lx/2, excluding the open ball of `exclusion_radius` around the
    centroid of that half.
    Rejection sampling; raises RuntimeError when the admissible region is
    negligibly small (acceptance rate below 1e-6).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if exclusion_radius < 0:
        raise ValueError("exclusion radius must be >= 0")
    center = room.mic_half_center
    lo = np.array([room.dimensions[0] / 2.0, 0.0, 0.0])
    return _rejection_sample(
        count, lo, room.dimensions,
        lambda draw: np.linalg.norm(draw - center, axis=1) >= exclusion_radius,
        128, seed)


def sample_validation_points(room: RoomSpec, count: int,
                             radius: float = 0.5,
                             seed: int = 0) -> np.ndarray:
    """Uniform positions, shape (count, 3), in the open ball of `radius`
    around the microphone-half centroid, the ball that `sample_microphones`
    excludes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    return room.mic_half_center + _rejection_sample(
        count, -radius, radius,
        lambda draw: np.linalg.norm(draw, axis=1) < radius, 64, seed)


# face order: (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz)
_FACE_AXIS = np.array([0, 0, 1, 1, 2, 2])
_FACE_SIDE = np.array([0, 1, 0, 1, 0, 1])


def face_areas(room: RoomSpec) -> np.ndarray:
    """Areas of the six faces in the fixed face order above."""
    lx, ly, lz = room.dimensions
    return np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])


def sample_boundary(room: RoomSpec, count: int, seed: int = 0) -> BoundaryCloud:
    """Uniform samples on the surface of the room: faces chosen with
    probability proportional to area, uniform within each face, normals
    pointing out of the room; a zero count gives the empty cloud."""
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    areas = face_areas(room)
    faces = rng.choice(6, size=count, p=areas / areas.sum())

    points = rng.uniform(0.0, 1.0, size=(count, 3)) * room.dimensions
    normals = np.zeros((count, 3))
    axis = _FACE_AXIS[faces]
    side = _FACE_SIDE[faces]
    rows = np.arange(count)
    points[rows, axis] = side * np.asarray(room.dimensions)[axis]
    normals[rows, axis] = 2.0 * side - 1.0
    return BoundaryCloud(points, normals)


def perturb_positions(points, magnitude: float, seed: int = 0) -> np.ndarray:
    """Displace each point by exactly `magnitude` along its own isotropic
    random direction, drawn independently per point."""
    if not 0 <= magnitude < np.inf:
        raise ValueError("magnitude must be >= 0 and finite")
    pts = _as_points(points)
    rng = np.random.default_rng(seed)
    return pts + magnitude * _random_unit_vectors(len(pts), rng)
