"""On-disk formats: point clouds, point tables, simulation snapshots,
reconstruction output, optimizer traces and benchmark CSVs.

Point clouds, point tables (microphone or prediction positions), snapshots
and reconstructions share one table format: optional `# key value` header
lines, then one row of numbers per line, where any run of whitespace
separates a key from its value and one number from the next. A snapshot
file holds one `SimSnapshot`: `write_snapshot` takes it and `read_snapshot`
returns it. Traces and benchmark results are CSV files with a header row.
All floating-point values are written with shortest round-trip decimal
encoding (Python repr), so write-then-read reproduces in-memory values
bit-exactly and benchmark outputs are byte-stable. Files are written
atomically (temporary file + rename), and a reader that cannot parse its
file raises a FormatError naming it.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .experiments import to_db
from .geometry import BoundaryCloud, RoomSpec, _as_points
from .marglik import to_hyperparameters
from .simulator import SimSnapshot

__all__ = [
    "FormatError",
    "atomic_write",
    "write_point_cloud",
    "read_point_cloud",
    "write_points",
    "read_points",
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


def _write_table(path, rows, header=()) -> None:
    """Each `header` line as a `#` comment, then one line per row."""
    with atomic_write(path) as handle:
        for line in header:
            handle.write(f"# {line}\n")
        for row in rows:
            handle.write(" ".join(_fmt(v) for v in row) + "\n")


def _read_table(path, columns: int, layout: str) -> tuple:
    """(`# key value` header lines as a dict, data rows as an
    (n, columns) array)."""
    header, rows = {}, []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line.startswith("#"):
                # the key ends at the first run of whitespace
                key, *rest = line[1:].split(None, 1) or [""]
                header[key] = "".join(rest)
            elif line:
                rows.append([float(token) for token in line.split()])
    if any(len(row) != columns for row in rows):
        raise ValueError(f"expected rows of {columns} columns ({layout})")
    return header, np.array(rows, dtype=float).reshape(-1, columns)


def _write_csv(path, header, rows) -> None:
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_point_cloud(path, cloud: BoundaryCloud) -> None:
    """One record per line: x y z nx ny nz."""
    _write_table(path, np.hstack([cloud.points, cloud.normals]))


def read_point_cloud(path) -> BoundaryCloud:
    with _parsing(path):
        data = _read_table(path, 6, "x y z nx ny nz")[1]
        return BoundaryCloud(data[:, :3], data[:, 3:])


def write_points(path, points) -> None:
    """One record per line: x y z."""
    _write_table(path, points)


def read_points(path) -> np.ndarray:
    """Points, one `x y z` row each, as a finite (n, 3) array with at least
    one row; they may repeat (a snapshot's microphones may not)."""
    with _parsing(path):
        points = _as_points(_read_table(path, 3, "x y z")[1])
        if not len(points):
            raise ValueError("expected at least one x y z row")
        return points


def write_snapshot(path, snapshot: SimSnapshot) -> None:
    """Header records frequency, noise variance, seed and room; rows are
    `x y z re_clean im_clean re_noisy im_noisy` per microphone."""
    room = snapshot.room
    header = (
        f"frequency_hz {_fmt(snapshot.frequency_hz)}",
        f"noise_variance {_fmt(snapshot.noise_variance)}",
        f"seed {int(snapshot.seed)}",
        "room_dimensions " + " ".join(_fmt(v) for v in room.dimensions),
        f"room_reflection_coefficient {_fmt(room.reflection_coefficient)}",
        "room_source_position "
        + " ".join(_fmt(v) for v in room.source_position))
    _write_table(path, np.column_stack([
        snapshot.mics, snapshot.clean.real, snapshot.clean.imag,
        snapshot.noisy.real, snapshot.noisy.imag]), header)


def read_snapshot(path) -> SimSnapshot:
    required = ("frequency_hz", "noise_variance", "seed", "room_dimensions",
                "room_reflection_coefficient", "room_source_position")
    with _parsing(path):
        header, data = _read_table(
            path, 7, "x y z re_clean im_clean re_noisy im_noisy")
        missing = [key for key in required if key not in header]
        if missing:
            raise ValueError(f"missing header fields {missing}")
        room = RoomSpec(
            np.array([float(v) for v in header["room_dimensions"].split()]),
            float(header["room_reflection_coefficient"]),
            np.array([float(v) for v in
                      header["room_source_position"].split()]))
        return SimSnapshot(
            room, data[:, :3], frequency_hz=float(header["frequency_hz"]),
            clean=data[:, 3] + 1j * data[:, 4],
            noisy=data[:, 5] + 1j * data[:, 6],
            noise_variance=float(header["noise_variance"]),
            seed=int(header["seed"]))


def write_reconstruction(path, points, mean, std) -> None:
    """Rows `x y z re_mean im_mean std` at the prediction points."""
    _write_table(path, np.column_stack([points, np.real(mean), np.imag(mean),
                                        std]),
                 ("columns x y z re_mean im_mean std",))


def write_theta_json(path, fit) -> None:
    """Fitted hyperparameters of a `fit_hyperparameters` result in both
    coordinate systems, with its objective, convergence message, number of
    objective evaluations and number of accepted line searches (the rows of
    its trace after the first)."""
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
        "evaluations": fit.n_evaluations,
        "line_searches": len(fit.trace) - 1,
    }
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_trace_csv(path, values, points) -> None:
    """Optimizer trace rows `iter,J,a,b,d,re_eta,im_eta`."""
    _write_csv(path, ["iter", "J", "a", "b", "d", "re_eta", "im_eta"],
               ([i, _fmt(value), *(_fmt(v) for v in point)]
                for i, (value, point) in enumerate(zip(values, points))))


def write_runs_csv(path, results) -> None:
    """Per-run rows `sweep,method,value,run,nmse_linear,nmse_db,seconds`.

    `seconds` is the time of the fit behind the row. A fit that several
    cells share (a baseline under every boundary count, say) records its one
    time under each of them, so summing `seconds` over cells overstates the
    compute spent; count each distinct fit once instead."""
    _write_csv(path, ["sweep", "method", "value", "run", "nmse_linear",
                      "nmse_db", "seconds"],
               ([result.sweep, result.method, _fmt(result.value), run,
                 _fmt(error), _fmt(to_db(error)), _fmt(seconds)]
                for result in results
                for run, (error, seconds) in enumerate(
                    zip(result.nmse_per_run, result.seconds_per_run))))


def write_aggregate_csv(path, results) -> None:
    """Mean NMSE per (sweep value, method) over the runs that did not fail,
    and the number that did; no timing columns so repeated runs of the same
    configuration are byte-identical."""
    _write_csv(path, ["sweep", "method", "value", "runs", "nmse_linear",
                      "nmse_db", "failed"],
               ([result.sweep, result.method, _fmt(result.value),
                 len(result.nmse_per_run), _fmt(result.nmse_linear),
                 _fmt(result.nmse_db), result.failed] for result in results))
