"""Shoebox room geometry and seeded random sampling of microphone, validation
and boundary points.

All positions are metric, stored as float64 arrays of shape (n, 3). Sampling
functions are pure: the same arguments and seed always produce the same
points, and every call uses its own local generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RoomSpec",
    "MicArray",
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
    configs/default.yaml lists; any 3-sequence is stored as an array."""

    dimensions: np.ndarray = (5.0, 4.0, 3.0)
    reflection_coefficient: float = 0.95
    source_position: np.ndarray = (1.0, 2.0, 1.5)

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=float)
        src = np.asarray(self.source_position, dtype=float)
        if dims.shape != (3,) or not np.all(dims > 0):
            raise ValueError("room dimensions must be 3 positive lengths")
        if not 0.0 <= self.reflection_coefficient <= 1.0:
            raise ValueError("reflection coefficient must be in [0, 1]")
        if src.shape != (3,) or not np.all((src > 0) & (src < dims)):
            raise ValueError("source must lie strictly inside the room")
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "source_position", src)

    @property
    def mic_half_center(self) -> np.ndarray:
        """Centroid of the microphone half of the room (x > Lx/2)."""
        c = self.dimensions / 2.0
        c[0] = 0.75 * self.dimensions[0]
        return c


@dataclass(frozen=True)
class MicArray:
    """Positions of M receivers, shape (M, 3), pairwise distinct."""

    positions: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.positions, "positions")
        if len(pts) < 1:
            raise ValueError("need at least one microphone")
        if len(pts) > 1:
            ordered = pts[np.lexsort(pts.T)]
            if np.any(np.all(np.diff(ordered, axis=0) == 0.0, axis=1)):
                raise ValueError("microphone positions must be pairwise distinct")
        object.__setattr__(self, "positions", pts)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class BoundaryCloud:
    """Boundary sample points with outward unit normals (pointing out of the
    acoustic domain, into the wall). May be empty."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        nrm = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if len(pts) != len(nrm):
            raise ValueError("points and normals must have equal length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(nrm))):
            raise ValueError("boundary points and normals must be finite")
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

    @classmethod
    def empty(cls) -> "BoundaryCloud":
        return cls(np.zeros((0, 3)), np.zeros((0, 3)))


def _random_unit_vectors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic unit vectors via normalized Gaussians."""
    v = rng.standard_normal((count, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):  # pragma: no cover - probability zero
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def sample_microphones(
    room: RoomSpec,
    count: int,
    exclusion_center: Sequence[float] | None = None,
    exclusion_radius: float = 0.5,
    seed: int = 0,
) -> MicArray:
    """Uniform microphone positions in the half-room x > Lx/2, excluding the
    open ball of `exclusion_radius` around `exclusion_center` (default: the
    centroid of that half). Rejection sampling; raises RuntimeError when the
    admissible region is negligibly small (acceptance rate below 1e-6).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if exclusion_radius < 0:
        raise ValueError("exclusion radius must be >= 0")
    center = (room.mic_half_center if exclusion_center is None
              else np.asarray(exclusion_center, dtype=float))
    rng = np.random.default_rng(seed)
    lo = np.array([room.dimensions[0] / 2.0, 0.0, 0.0])
    hi = room.dimensions

    accepted: list[np.ndarray] = []
    attempts = 0
    n_found = 0
    while n_found < count:
        batch = max(4 * (count - n_found), 128)
        draw = rng.uniform(lo, hi, size=(batch, 3))
        attempts += batch
        keep = np.linalg.norm(draw - center, axis=1) >= exclusion_radius
        picked = draw[keep][: count - n_found]
        if len(picked):
            accepted.append(picked)
            n_found += len(picked)
        if attempts >= 1_000_000 and n_found / attempts < 1e-6:
            raise RuntimeError(
                "microphone sampling: admissible region has negligible volume "
                f"(acceptance rate {n_found / attempts:.2e})"
            )
    return MicArray(np.concatenate(accepted, axis=0))


def sample_validation_points(
    room: RoomSpec,
    count: int,
    center: Sequence[float] | None = None,
    radius: float = 0.5,
    seed: int = 0,
) -> MicArray:
    """Uniform positions in the open ball of `radius` around `center`
    (default: the microphone-half centroid)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    c = room.mic_half_center if center is None else np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)

    accepted: list[np.ndarray] = []
    n_found = 0
    while n_found < count:
        batch = max(4 * (count - n_found), 64)
        draw = rng.uniform(-radius, radius, size=(batch, 3))
        keep = np.linalg.norm(draw, axis=1) < radius
        picked = draw[keep][: count - n_found]
        if len(picked):
            accepted.append(c + picked)
            n_found += len(picked)
    return MicArray(np.concatenate(accepted, axis=0))


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
    pointing out of the room."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    areas = face_areas(room)
    faces = rng.choice(6, size=count, p=areas / areas.sum())

    points = rng.uniform(0.0, 1.0, size=(count, 3)) * room.dimensions
    normals = np.zeros((count, 3))
    axis = _FACE_AXIS[faces]
    side = _FACE_SIDE[faces]
    rows = np.arange(count)
    points[rows, axis] = side * room.dimensions[axis]
    normals[rows, axis] = 2.0 * side - 1.0
    return BoundaryCloud(points, normals)


def perturb_positions(
    points,
    magnitude: float,
    seed: int = 0,
    shared_direction: bool = False,
) -> np.ndarray:
    """Displace each point by exactly `magnitude` along a random direction.

    Directions are independent per point by default; with
    `shared_direction=True` a single random direction displaces every point
    (the alternative reading of a "constant perturbation").
    """
    if magnitude < 0:
        raise ValueError("magnitude must be >= 0")
    pts = _as_points(points)
    if magnitude == 0.0:
        return pts.copy()
    rng = np.random.default_rng(seed)
    if shared_direction:
        direction = np.broadcast_to(_random_unit_vectors(1, rng), pts.shape)
    else:
        direction = _random_unit_vectors(len(pts), rng)
    return pts + magnitude * direction
