import numpy.testing as npt
import pytest

from roomwave.fileio import (FormatError, atomic_write, read_point_cloud,
                             read_points, read_snapshot, write_mic_array,
                             write_point_cloud, write_snapshot)
from roomwave.geometry import sample_boundary, sample_microphones
from roomwave.simulator import simulate_snapshot


def test_point_cloud_round_trip_is_bit_exact(room, tmp_path):
    cloud = sample_boundary(room, 50, seed=3)
    write_point_cloud(tmp_path / "cloud.txt", cloud)
    back = read_point_cloud(tmp_path / "cloud.txt")
    npt.assert_array_equal(back.points, cloud.points)
    npt.assert_array_equal(back.normals, cloud.normals)


def test_mic_array_round_trip_is_bit_exact(room, tmp_path):
    mics = sample_microphones(room, 30, seed=4)
    write_mic_array(tmp_path / "mics.txt", mics)
    npt.assert_array_equal(read_points(tmp_path / "mics.txt"),
                           mics.positions)


@pytest.mark.parametrize("text", ["", "# columns x y z\n", "1 2 nan\n"],
                         ids=["empty", "header_only", "nan"])
def test_read_points_needs_finite_rows(tmp_path, text):
    path = tmp_path / "points.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match="points.txt"):
        read_points(path)


def test_snapshot_round_trip_is_bit_exact(room, tmp_path):
    mics = sample_microphones(room, 12, seed=5)
    snapshot = simulate_snapshot(room, mics, 300.0, max_order=4, seed=6)
    write_snapshot(tmp_path / "snap.txt", room, mics, snapshot, seed=6)
    back = read_snapshot(tmp_path / "snap.txt")
    assert back.seed == 6
    npt.assert_array_equal(back.room.dimensions, room.dimensions)
    npt.assert_array_equal(back.room.source_position, room.source_position)
    assert back.room.reflection_coefficient == room.reflection_coefficient
    npt.assert_array_equal(back.mics.positions, mics.positions)
    assert back.snapshot.frequency_hz == snapshot.frequency_hz
    assert back.snapshot.noise_variance == snapshot.noise_variance
    npt.assert_array_equal(back.snapshot.clean, snapshot.clean)
    npt.assert_array_equal(back.snapshot.noisy, snapshot.noisy)


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
