import numpy as np
import numpy.testing as npt
import pytest

from roomwave.geometry import (BoundaryCloud, RoomSpec, face_areas,
                               perturb_positions, sample_boundary,
                               sample_microphones, sample_validation_points)
from roomwave.planewaves import PlaneWaveDictionary
from roomwave.simulator import SimSnapshot


def reference_microphones(room, count, exclusion_radius, seed):
    """The microphone sampling loop that the shared rejection loop replaced,
    kept verbatim as its oracle."""
    center = room.mic_half_center
    rng = np.random.default_rng(seed)
    lo = np.array([room.dimensions[0] / 2.0, 0.0, 0.0])
    hi = room.dimensions
    accepted = []
    n_found = 0
    while n_found < count:
        batch = max(4 * (count - n_found), 128)
        draw = rng.uniform(lo, hi, size=(batch, 3))
        keep = np.linalg.norm(draw - center, axis=1) >= exclusion_radius
        picked = draw[keep][: count - n_found]
        if len(picked):
            accepted.append(picked)
            n_found += len(picked)
    return np.concatenate(accepted, axis=0)


def reference_validation_points(room, count, radius, seed):
    """The validation sampling loop that the shared rejection loop replaced,
    kept verbatim as its oracle."""
    c = room.mic_half_center
    rng = np.random.default_rng(seed)
    accepted = []
    n_found = 0
    while n_found < count:
        batch = max(4 * (count - n_found), 64)
        draw = rng.uniform(-radius, radius, size=(batch, 3))
        keep = np.linalg.norm(draw, axis=1) < radius
        picked = draw[keep][: count - n_found]
        if len(picked):
            accepted.append(c + picked)
            n_found += len(picked)
    return np.concatenate(accepted, axis=0)


# one batch, several batches, and counts either side of both minimum batches
# (128 for microphones, 64 for validation points)
SAMPLE_COUNTS = (1, 16, 17, 32, 33, 500)


class TestRoomSpec:
    def test_valid(self, room):
        npt.assert_allclose(np.asarray(room.dimensions) / 2.0, [2.5, 2.0, 1.5])
        npt.assert_allclose(room.mic_half_center, [3.75, 2.0, 1.5])

    def test_compares_and_hashes_by_value(self, room):
        """Any 3-sequence is stored as a tuple of floats, so the fixture's
        arrays, the defaults and integer lists give one room."""
        same = RoomSpec([5, 4, 3], 0.95, [1, 2, 1.5])
        assert room.dimensions == (5.0, 4.0, 3.0)
        assert room == RoomSpec() == same
        assert hash(room) == hash(same)
        assert len({room, RoomSpec(), same}) == 1
        assert room != RoomSpec(reflection_coefficient=0.5)
        assert room != RoomSpec(source_position=(1.0, 2.0, 1.0))

    @pytest.mark.parametrize("dims", [(0.0, 4, 3), (5, -1, 3), (5, 4),
                                      (np.inf, 4, 3), (5, 4, np.nan)])
    def test_bad_dimensions(self, dims):
        with pytest.raises(ValueError):
            RoomSpec(np.asarray(dims, dtype=float), 0.5, np.array([1.0, 1, 1]))

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_bad_reflection(self, rho):
        with pytest.raises(ValueError):
            RoomSpec(np.array([5.0, 4, 3]), rho, np.array([1.0, 1, 1]))

    @pytest.mark.parametrize("src", [(0.0, 2, 1), (5.0, 2, 1), (1, 2, 3.5)])
    def test_source_must_be_interior(self, src):
        with pytest.raises(ValueError):
            RoomSpec(np.array([5.0, 4, 3]), 0.5, np.asarray(src, dtype=float))


class TestMicSampling:
    def test_inside_half_room_outside_ball(self, room):
        pts = sample_microphones(room, 100, exclusion_radius=0.5, seed=7)
        assert len(pts) == 100
        assert np.all(pts[:, 0] >= room.dimensions[0] / 2)
        assert np.all(pts <= room.dimensions)
        dist = np.linalg.norm(pts - room.mic_half_center, axis=1)
        assert np.all(dist >= 0.5)

    def test_zero_radius_plain_uniform(self, room):
        pts = sample_microphones(room, 200, exclusion_radius=0.0, seed=3)
        assert pts.shape == (200, 3)
        assert np.all(pts[:, 0] >= room.dimensions[0] / 2)

    def test_deterministic(self, room):
        a = sample_microphones(room, 25, seed=42)
        b = sample_microphones(room, 25, seed=42)
        npt.assert_array_equal(a, b)
        c = sample_microphones(room, 25, seed=43)
        assert not np.array_equal(a, c)

    def test_negligible_region_fails(self, room):
        with pytest.raises(RuntimeError, match="negligible"):
            sample_microphones(room, 1, exclusion_radius=50.0, seed=0)

    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    def test_same_points_as_the_reference_loop(self, room, count):
        for seed in range(40):
            assert np.array_equal(
                sample_microphones(room, count, 0.5, seed),
                reference_microphones(room, count, 0.5, seed))

    def test_count_validation(self, room):
        with pytest.raises(ValueError):
            sample_microphones(room, 0, seed=0)
        # NaN and inf used to draw 10^6 points and then raise RuntimeError
        for radius in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="exclusion radius"):
                sample_microphones(room, 3, exclusion_radius=radius, seed=0)


class TestValidationSampling:
    def test_inside_ball(self, room):
        pts = sample_validation_points(room, 20, radius=0.5, seed=5)
        dist = np.linalg.norm(pts - room.mic_half_center, axis=1)
        assert len(pts) == 20
        assert np.all(dist < 0.5)

    def test_degenerate_ball_hits_center(self, room):
        pts = sample_validation_points(room, 1, radius=1e-9, seed=1)
        npt.assert_allclose(pts[0], room.mic_half_center, atol=1e-9)

    def test_mean_converges_to_center(self, room):
        n = 100_000
        pts = sample_validation_points(room, n, radius=0.5, seed=11)
        # per-coordinate std of uniform ball is R/sqrt(5)
        tol = 3.0 * 0.5 / np.sqrt(5 * n)
        npt.assert_allclose(pts.mean(axis=0), room.mic_half_center, atol=tol)

    @pytest.mark.parametrize("radius", [1e-9, 0.5])
    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    def test_same_points_as_the_reference_loop(self, room, count, radius):
        for seed in range(40):
            pts = sample_validation_points(room, count, radius, seed)
            assert type(pts) is np.ndarray and pts.shape == (count, 3)
            assert np.array_equal(
                pts, reference_validation_points(room, count, radius, seed))

    def test_bad_radius(self, room):
        # NaN and inf used to raise numpy's OverflowError
        for radius in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                sample_validation_points(room, 5, radius=radius, seed=0)


class TestBoundarySampling:
    def test_face_probabilities(self, room):
        areas = face_areas(room)
        npt.assert_allclose(areas, [12, 12, 15, 15, 20, 20])
        n = 30_000
        cloud = sample_boundary(room, n, seed=9)
        # identify the face of each sample from its normal
        axis = np.argmax(np.abs(cloud.normals), axis=1)
        side = (np.take_along_axis(cloud.normals, axis[:, None], 1) > 0).ravel()
        counts = np.zeros(6)
        for a in range(3):
            counts[2 * a] = np.sum((axis == a) & ~side)
            counts[2 * a + 1] = np.sum((axis == a) & side)
        probs = areas / areas.sum()
        sigma = np.sqrt(n * probs * (1 - probs))
        npt.assert_array_less(np.abs(counts - n * probs), 5 * sigma)

    def test_points_on_surface_with_outward_normals(self, room):
        cloud = sample_boundary(room, 500, seed=2)
        on_face = np.isclose(cloud.points, 0.0) | np.isclose(
            cloud.points, room.dimensions)
        assert np.all(on_face.any(axis=1))
        outward = np.einsum("ij,ij->i", cloud.normals,
                            cloud.points - np.asarray(room.dimensions) / 2.0)
        assert np.all(outward > 0)

    def test_single_point_axis_aligned_normal(self, room):
        cloud = sample_boundary(room, 1, seed=4)
        normal = cloud.normals[0]
        assert np.sum(normal == 0) == 2
        assert np.abs(normal).max() == 1.0

    def test_zero_count_is_empty_cloud(self, room):
        cloud = sample_boundary(room, 0, seed=4)
        assert len(cloud) == 0
        assert cloud.points.shape == cloud.normals.shape == (0, 3)
        with pytest.raises(ValueError):
            sample_boundary(room, -1, seed=4)

    def test_deterministic(self, room):
        a = sample_boundary(room, 50, seed=8)
        b = sample_boundary(room, 50, seed=8)
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.normals, b.normals)


class TestPerturbation:
    def test_zero_magnitude_identity(self, rng):
        pts = rng.uniform(size=(40, 3))
        npt.assert_array_equal(perturb_positions(pts, 0.0, seed=1), pts)

    def test_exact_displacement_norm(self, rng):
        pts = rng.uniform(size=(200, 3))
        moved = perturb_positions(pts, 0.1, seed=3)
        npt.assert_allclose(np.linalg.norm(moved - pts, axis=1), 0.1,
                            atol=1e-12)

    def test_isotropy(self, rng):
        n = 100_000
        pts = np.zeros((n, 3))
        moved = perturb_positions(pts, 1.0, seed=5)
        mean = moved.mean(axis=0)
        assert np.linalg.norm(mean) < 4.0 / np.sqrt(n)

    def test_negative_magnitude(self):
        """Negative, NaN and infinite magnitudes all fail."""
        for magnitude in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                perturb_positions(np.zeros((2, 3)), magnitude, seed=0)


class TestContainers:
    def test_mic_array_validation(self, room):
        """A measurement record needs at least one microphone and distinct
        microphone positions."""
        with pytest.raises(ValueError, match="at least one"):
            SimSnapshot(room, np.zeros((0, 3)), 300.0, np.zeros(0),
                        np.zeros(0), 0.1, 0)
        with pytest.raises(ValueError, match="distinct"):
            SimSnapshot(room, np.array([[0.0, 0, 0], [0.0, 0, 0]]), 300.0,
                        np.zeros(2), np.zeros(2), 0.1, 0)

    def test_array_records_compare_by_identity(self, room):
        """Records holding arrays compare and hash by identity; comparing
        two with equal contents gives False instead of raising."""
        mics = np.array([[3.0, 2.0, 1.0], [4.0, 1.0, 2.0]])
        for make in (
                lambda: SimSnapshot(room, mics, 300.0, np.zeros(2),
                                    np.zeros(2), 0.1, 0),
                lambda: BoundaryCloud(mics, np.eye(3)[:2]),
                lambda: PlaneWaveDictionary(5.0, np.eye(3))):
            record, twin = make(), make()
            assert record == record
            assert record != twin
            assert len({record, twin}) == 2

    def test_boundary_cloud_validation(self):
        with pytest.raises(ValueError):
            BoundaryCloud(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            BoundaryCloud(np.zeros((1, 3)), np.array([[1.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["points", "normals"])
    def test_boundary_cloud_rejects_non_finite(self, field, bad):
        arrays = {"points": np.zeros((2, 3)),
                  "normals": np.array([[0.0, 0, 1], [1.0, 0, 0]])}
        arrays[field][1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            BoundaryCloud(**arrays)

    def test_boundary_cloud_rejects_flat_arrays(self):
        """A flat 6-vector is not read as two points."""
        with pytest.raises(ValueError, match="shape"):
            BoundaryCloud(np.zeros(6), np.array([0.0, 0, 1, 1, 0, 0]))

    def test_empty_boundary_cloud(self):
        cloud = BoundaryCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        assert len(cloud) == 0
        assert cloud.points.shape == cloud.normals.shape == (0, 3)

    def test_boundary_cloud_subset(self, room):
        cloud = sample_boundary(room, 20, seed=1)
        sub = cloud.subset(5)
        assert len(sub) == 5
        npt.assert_array_equal(sub.points, cloud.points[:5])
        empty = cloud.subset(0)
        assert len(empty) == 0
        with pytest.raises(ValueError):
            cloud.subset(21)
