"""On-disk formats: point clouds, microphone arrays, simulation snapshots,
reconstruction output, optimizer traces and benchmark CSVs.

All floating-point values are written with shortest round-trip decimal
encoding (Python repr), so write-then-read reproduces in-memory values
bit-exactly and benchmark outputs are byte-stable. Files are written
atomically (temporary file + rename).
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiments import to_db
from .geometry import BoundaryCloud, MicArray, RoomSpec
from .marglik import to_hyperparameters
from .simulator import SimSnapshot

__all__ = [
    "FormatError",
    "atomic_write",
    "write_point_cloud",
    "read_point_cloud",
    "write_mic_array",
    "read_mic_array",
    "SnapshotFile",
    "write_snapshot",
    "read_snapshot",
    "write_reconstruction",
    "write_theta_json",
    "write_trace_csv",
    "write_runs_csv",
    "write_aggregate_csv",
]


class FormatError(ValueError):
    """An input file does not hold what its reader expects."""


def _fmt(value) -> str:
    """Shortest round-trip decimal for a float."""
    return repr(float(value))


@contextmanager
def atomic_write(path):
    """Write to <path>.tmp.<pid> and rename into place on success."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    handle = open(tmp, "w", encoding="utf-8", newline="")
    try:
        yield handle
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _parsing(path):
    """Re-raise a ValueError from parsing `path` as a FormatError naming it."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _rows(lines, columns: int, layout: str) -> np.ndarray:
    """Whitespace-separated rows of `columns` numbers, as an (n, columns)
    array."""
    rows = [[float(token) for token in line.split()] for line in lines]
    if any(len(row) != columns for row in rows):
        raise ValueError(f"expected rows of {columns} columns ({layout})")
    return np.array(rows, dtype=float).reshape(-1, columns)


def _data_lines(path) -> list:
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                lines.append(line)
    return lines


def write_point_cloud(path, cloud: BoundaryCloud) -> None:
    """One record per line: x y z nx ny nz."""
    with atomic_write(path) as handle:
        for point, normal in zip(cloud.points, cloud.normals):
            handle.write(" ".join(_fmt(v) for v in (*point, *normal)) + "\n")


def read_point_cloud(path) -> BoundaryCloud:
    with _parsing(path):
        data = _rows(_data_lines(path), 6, "x y z nx ny nz")
        return BoundaryCloud(data[:, :3], data[:, 3:])


def write_mic_array(path, mics: MicArray) -> None:
    """One record per line: x y z."""
    with atomic_write(path) as handle:
        for point in mics.positions:
            handle.write(" ".join(_fmt(v) for v in point) + "\n")


def read_mic_array(path) -> MicArray:
    with _parsing(path):
        return MicArray(_rows(_data_lines(path), 3, "x y z"))


@dataclass
class SnapshotFile:
    """A snapshot file: measurement data plus the provenance header."""

    room: RoomSpec
    mics: MicArray
    snapshot: SimSnapshot
    seed: int


def write_snapshot(path, room: RoomSpec, mics: MicArray,
                   snapshot: SimSnapshot, seed: int) -> None:
    """Header records frequency, noise variance, seed and room; rows are
    `x y z re_clean im_clean re_noisy im_noisy` per microphone."""
    with atomic_write(path) as handle:
        handle.write(f"# frequency_hz {_fmt(snapshot.frequency_hz)}\n")
        handle.write(f"# noise_variance {_fmt(snapshot.noise_variance)}\n")
        handle.write(f"# seed {int(seed)}\n")
        handle.write("# room_dimensions "
                     + " ".join(_fmt(v) for v in room.dimensions) + "\n")
        handle.write("# room_reflection_coefficient "
                     + _fmt(room.reflection_coefficient) + "\n")
        handle.write("# room_source_position "
                     + " ".join(_fmt(v) for v in room.source_position) + "\n")
        for pos, clean, noisy in zip(mics.positions, snapshot.clean,
                                     snapshot.noisy):
            row = (*pos, clean.real, clean.imag, noisy.real, noisy.imag)
            handle.write(" ".join(_fmt(v) for v in row) + "\n")


def read_snapshot(path) -> SnapshotFile:
    header = {}
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line.startswith("#"):
                key, _, rest = line[1:].strip().partition(" ")
                header[key] = rest.strip()
            elif line:
                rows.append(line)
    required = ("frequency_hz", "noise_variance", "seed", "room_dimensions",
                "room_reflection_coefficient", "room_source_position")
    with _parsing(path):
        missing = [key for key in required if key not in header]
        if missing:
            raise ValueError(f"missing header fields {missing}")
        data = _rows(rows, 7, "x y z re_clean im_clean re_noisy im_noisy")
        room = RoomSpec(
            np.array([float(v) for v in header["room_dimensions"].split()]),
            float(header["room_reflection_coefficient"]),
            np.array([float(v) for v in
                      header["room_source_position"].split()]))
        snapshot = SimSnapshot(
            frequency_hz=float(header["frequency_hz"]),
            clean=data[:, 3] + 1j * data[:, 4],
            noisy=data[:, 5] + 1j * data[:, 6],
            noise_variance=float(header["noise_variance"]),
        )
        return SnapshotFile(room, MicArray(data[:, :3]), snapshot,
                            int(header["seed"]))


def write_reconstruction(path, points, mean, std) -> None:
    """Rows `x y z re_mean im_mean std` at the prediction points."""
    points = np.asarray(points, dtype=float)
    mean = np.asarray(mean, dtype=complex)
    std = np.asarray(std, dtype=float)
    with atomic_write(path) as handle:
        handle.write("# columns x y z re_mean im_mean std\n")
        for pos, value, sd in zip(points, mean, std):
            row = (*pos, value.real, value.imag, sd)
            handle.write(" ".join(_fmt(v) for v in row) + "\n")


def write_theta_json(path, fit) -> None:
    """Fitted hyperparameters of a `fit_hyperparameters` result in both
    coordinate systems, with its objective and convergence message."""
    hp = to_hyperparameters(fit.x)
    a, b, d, re_eta, im_eta = (float(v) for v in fit.x)
    payload = {
        "log_noise_variance": a,
        "log_prior_variance": b,
        "log_boundary_weight": d,
        "log_impedance_re": re_eta,
        "log_impedance_im": im_eta,
        "noise_variance": hp.noise_variance,
        "prior_variance": hp.prior_variance,
        "boundary_weight": hp.boundary_weight,
        "impedance_re": hp.impedance.real,
        "impedance_im": hp.impedance.imag,
        "objective": fit.value,
        "converged": fit.converged,
        "message": fit.message,
    }
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_trace_csv(path, values, points) -> None:
    """Optimizer trace rows `iter,J,a,b,d,re_eta,im_eta`."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["iter", "J", "a", "b", "d", "re_eta", "im_eta"])
        for i, (value, point) in enumerate(zip(values, points)):
            writer.writerow([i, _fmt(value)] + [_fmt(v) for v in point])


def write_runs_csv(path, results) -> None:
    """Per-run rows `sweep,method,value,run,nmse_linear,nmse_db,seconds`."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["sweep", "method", "value", "run", "nmse_linear",
                         "nmse_db", "seconds"])
        for result in results:
            for run, (error, seconds) in enumerate(
                    zip(result.nmse_per_run, result.seconds_per_run)):
                writer.writerow([
                    result.sweep, result.method, _fmt(result.value), run,
                    _fmt(error), _fmt(to_db(error)), _fmt(seconds),
                ])


def write_aggregate_csv(path, results) -> None:
    """Mean NMSE per (sweep value, method); no timing columns so repeated
    runs of the same configuration are byte-identical."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["sweep", "method", "value", "runs", "nmse_linear",
                         "nmse_db"])
        for result in results:
            writer.writerow([
                result.sweep, result.method, _fmt(result.value),
                len(result.nmse_per_run), _fmt(result.nmse_linear),
                _fmt(result.nmse_db),
            ])
