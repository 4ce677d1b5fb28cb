import numpy as np
import numpy.testing as npt
import pytest

from roomwave.geometry import (BoundaryCloud, MicArray, RoomSpec, face_areas,
                               perturb_positions, sample_boundary,
                               sample_microphones, sample_validation_points)


class TestRoomSpec:
    def test_valid(self, room):
        npt.assert_allclose(room.dimensions / 2.0, [2.5, 2.0, 1.5])
        npt.assert_allclose(room.mic_half_center, [3.75, 2.0, 1.5])

    @pytest.mark.parametrize("dims", [(0.0, 4, 3), (5, -1, 3), (5, 4)])
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
        mics = sample_microphones(room, 100, exclusion_radius=0.5, seed=7)
        pts = mics.positions
        assert len(pts) == 100
        assert np.all(pts[:, 0] >= room.dimensions[0] / 2)
        assert np.all(pts <= room.dimensions)
        dist = np.linalg.norm(pts - room.mic_half_center, axis=1)
        assert np.all(dist >= 0.5)

    def test_zero_radius_plain_uniform(self, room):
        mics = sample_microphones(room, 200, exclusion_radius=0.0, seed=3)
        assert np.all(mics.positions[:, 0] >= room.dimensions[0] / 2)

    def test_deterministic(self, room):
        a = sample_microphones(room, 25, seed=42)
        b = sample_microphones(room, 25, seed=42)
        npt.assert_array_equal(a.positions, b.positions)
        c = sample_microphones(room, 25, seed=43)
        assert not np.array_equal(a.positions, c.positions)

    def test_negligible_region_fails(self, room):
        with pytest.raises(RuntimeError, match="negligible"):
            sample_microphones(room, 1, exclusion_radius=50.0, seed=0)

    def test_count_validation(self, room):
        with pytest.raises(ValueError):
            sample_microphones(room, 0, seed=0)
        with pytest.raises(ValueError):
            sample_microphones(room, 3, exclusion_radius=-1.0, seed=0)


class TestValidationSampling:
    def test_inside_ball(self, room):
        pts = sample_validation_points(room, 20, radius=0.5, seed=5).positions
        dist = np.linalg.norm(pts - room.mic_half_center, axis=1)
        assert len(pts) == 20
        assert np.all(dist < 0.5)

    def test_degenerate_ball_hits_center(self, room):
        pts = sample_validation_points(room, 1, radius=1e-9, seed=1).positions
        npt.assert_allclose(pts[0], room.mic_half_center, atol=1e-9)

    def test_mean_converges_to_center(self, room):
        n = 100_000
        pts = sample_validation_points(room, n, radius=0.5, seed=11).positions
        # per-coordinate std of uniform ball is R/sqrt(5)
        tol = 3.0 * 0.5 / np.sqrt(5 * n)
        npt.assert_allclose(pts.mean(axis=0), room.mic_half_center, atol=tol)

    def test_bad_radius(self, room):
        with pytest.raises(ValueError):
            sample_validation_points(room, 5, radius=0.0, seed=0)


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
                            cloud.points - room.dimensions / 2.0)
        assert np.all(outward > 0)

    def test_single_point_axis_aligned_normal(self, room):
        cloud = sample_boundary(room, 1, seed=4)
        normal = cloud.normals[0]
        assert np.sum(normal == 0) == 2
        assert np.abs(normal).max() == 1.0

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

    def test_shared_direction(self, rng):
        pts = rng.uniform(size=(30, 3))
        moved = perturb_positions(pts, 0.05, seed=6, shared_direction=True)
        displacement = moved - pts
        npt.assert_allclose(displacement - displacement[0], 0.0, atol=1e-14)

    def test_negative_magnitude(self):
        with pytest.raises(ValueError):
            perturb_positions(np.zeros((2, 3)), -0.1, seed=0)


class TestContainers:
    def test_mic_array_validation(self):
        with pytest.raises(ValueError):
            MicArray(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            MicArray(np.array([[0.0, 0, 0], [0.0, 0, 0]]))

    def test_boundary_cloud_validation(self):
        with pytest.raises(ValueError):
            BoundaryCloud(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            BoundaryCloud(np.zeros((1, 3)), np.array([[1.0, 1.0, 0.0]]))

    def test_boundary_cloud_subset(self, room):
        cloud = sample_boundary(room, 20, seed=1)
        sub = cloud.subset(5)
        assert len(sub) == 5
        npt.assert_array_equal(sub.points, cloud.points[:5])
        empty = cloud.subset(0)
        assert len(empty) == 0
        with pytest.raises(ValueError):
            cloud.subset(21)
