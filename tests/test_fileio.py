import dataclasses

import numpy.testing as npt
import pytest

from roomwave.fileio import (FormatError, atomic_write, read_point_cloud,
                             read_points, read_snapshot, write_point_cloud,
                             write_points, write_snapshot)
from roomwave.geometry import RoomSpec, sample_boundary, sample_microphones
from roomwave.simulator import SimSnapshot, simulate_snapshot


def test_point_cloud_round_trip_is_bit_exact(room, tmp_path):
    cloud = sample_boundary(room, 50, seed=3)
    write_point_cloud(tmp_path / "cloud.txt", cloud)
    back = read_point_cloud(tmp_path / "cloud.txt")
    npt.assert_array_equal(back.points, cloud.points)
    npt.assert_array_equal(back.normals, cloud.normals)


def test_mic_array_round_trip_is_bit_exact(room, tmp_path):
    mics = sample_microphones(room, 30, seed=4)
    write_points(tmp_path / "mics.txt", mics)
    npt.assert_array_equal(read_points(tmp_path / "mics.txt"), mics)


@pytest.mark.parametrize("text", ["", "# columns x y z\n", "1 2 nan\n"],
                         ids=["empty", "header_only", "nan"])
def test_read_points_needs_finite_rows(tmp_path, text):
    path = tmp_path / "points.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match="points.txt"):
        read_points(path)


def assert_same_snapshot(a, b):
    """Every field equal, bit for bit; rooms compare by value."""
    assert a.room == b.room
    for f in dataclasses.fields(SimSnapshot):
        if f.name != "room":
            npt.assert_array_equal(getattr(a, f.name), getattr(b, f.name),
                                   err_msg=f.name)


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    room = RoomSpec([5.5, 4.25, 3.0], 0.8, [1.25, 2.0, 1.5])
    mics = sample_microphones(room, 12, seed=5)
    snapshot = simulate_snapshot(room, mics, 300.0, max_order=4, seed=6)
    write_snapshot(tmp_path / "snap.txt", snapshot)
    back = read_snapshot(tmp_path / "snap.txt")
    assert isinstance(back, SimSnapshot)
    assert back.seed == 6
    assert_same_snapshot(back, snapshot)


def test_snapshot_header_may_use_tabs(room, tmp_path):
    mics = sample_microphones(room, 12, seed=5)
    snapshot = simulate_snapshot(room, mics, 300.0, max_order=4, seed=6)
    path = tmp_path / "snap.txt"
    write_snapshot(path, snapshot)
    text = path.read_text(encoding="utf-8")
    tabbed = "".join(line.replace(" ", "\t") if line.startswith("#") else line
                     for line in text.splitlines(keepends=True))
    assert "# frequency_hz 300.0" in text and "#\tfrequency_hz\t300.0" in tabbed
    path.write_text(tabbed, encoding="utf-8")
    assert_same_snapshot(read_snapshot(path), snapshot)


def test_atomic_write_keeps_old_file_when_body_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as handle:
            handle.write("new\n")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.glob("*.tmp.*")) == []

    with atomic_write(path) as handle:
        handle.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert list(tmp_path.glob("*.tmp.*")) == []
