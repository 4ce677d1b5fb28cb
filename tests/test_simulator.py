import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from roomwave.geometry import RoomSpec
from roomwave.planewaves import wavenumber
from roomwave.simulator import (PAIR_BUDGET, SimSnapshot, _axis_images,
                                field_at_points, image_lattice,
                                simulate_snapshot)


def bfs_image_positions(room, max_order):
    """Independent oracle: breadth-first mirroring across the six walls,
    deduplicating positions at their minimal reflection count."""
    dims = room.dimensions
    start = tuple(room.source_position)
    seen = {start: 0}
    frontier = [start]
    for order in range(1, max_order + 1):
        new_frontier = []
        for pos in frontier:
            for axis in range(3):
                for wall in (0.0, dims[axis]):
                    mirrored = list(pos)
                    mirrored[axis] = 2.0 * wall - mirrored[axis]
                    key = tuple(mirrored)
                    if key not in seen:
                        seen[key] = order
                        new_frontier.append(key)
        frontier = new_frontier
    return seen


def dense_lattice(room, max_order):
    """Oracle: keep the images of a dense (x, y, z) reflection-order cube,
    then sort them by order and position."""
    per_axis = [_axis_images(room.source_position[a], room.dimensions[a],
                             max_order) for a in range(3)]
    cx, cy, cz = (p[1] for p in per_axis)
    total = cx[:, None, None] + cy[None, :, None] + cz[None, None, :]
    keep = total <= max_order
    ix, iy, iz = np.nonzero(keep)
    positions = np.stack(
        [per_axis[0][0][ix], per_axis[1][0][iy], per_axis[2][0][iz]], axis=1)
    orders = total[keep]
    key = np.lexsort((positions[:, 2], positions[:, 1], positions[:, 0],
                      orders))
    return positions[key], orders[key].astype(int)


OFF_CENTRE_ROOM = RoomSpec(np.array([3.1, 7.3, 2.2]), 0.9,
                           np.array([0.4, 5.9, 1.7]))


def chunked_field(room, receivers, k, max_order):
    """Oracle: the direct image-source sum, chunked over receivers only to
    bound its (receivers, images, 3) difference array."""
    positions, orders = image_lattice(room, max_order)
    amplitudes = room.reflection_coefficient ** orders.astype(float)
    out = np.empty(len(receivers), dtype=complex)
    chunk = max(1, int(2_000_000 / max(len(positions), 1)))
    for start in range(0, len(receivers), chunk):
        block = receivers[start:start + chunk]
        d = np.linalg.norm(block[:, None, :] - positions[None, :, :], axis=2)
        out[start:start + chunk] = (amplitudes * np.exp(1j * k * d)
                                    / (4.0 * np.pi * d)).sum(axis=1)
    return out


def block_rows(room, max_order):
    """Receiver rows per block of field_at_points at this image order."""
    return max(1, PAIR_BUDGET // len(image_lattice(room, max_order)[1]))


class TestImageEnumeration:
    def test_order_zero_is_source(self, room):
        positions, orders = image_lattice(room, 0)
        assert len(positions) == 1
        npt.assert_array_equal(positions[0], room.source_position)
        assert orders[0] == 0
        # amplitude one: the order-0 field is the free field of the source
        receiver = np.array([3.0, 2.5, 1.0])
        d = np.linalg.norm(receiver - room.source_position)
        npt.assert_allclose(field_at_points(room, [receiver], 5.0, 0),
                            np.exp(5j * d) / (4 * np.pi * d), rtol=1e-14)

    def test_order_one_has_seven_sources(self, room):
        assert len(image_lattice(room, 1)[0]) == 7

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_counts_and_positions_match_bfs_oracle(self, room, order):
        positions, orders = image_lattice(room, order)
        oracle = bfs_image_positions(room, order)
        assert len(positions) == len(oracle)
        for pos, o in zip(positions, orders):
            key = tuple(pos)
            assert key in oracle
            assert oracle[key] == o

    def test_amplitudes_are_powers_of_reflection(self, room):
        """The field sums rho^order e^{ikd} / (4 pi d) over the lattice."""
        positions, orders = image_lattice(room, 4)
        receivers = np.array([[4.0, 3.0, 2.0], [3.0, 1.0, 1.0]])
        k = wavenumber(300.0, 343.0)
        d = np.linalg.norm(receivers[:, None] - positions[None], axis=2)
        amplitudes = room.reflection_coefficient ** orders.astype(float)
        expected = (amplitudes * np.exp(1j * k * d) / (4 * np.pi * d)).sum(1)
        npt.assert_allclose(field_at_points(room, receivers, k, 4), expected,
                            rtol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 10, 20, 31, 80])
    def test_identical_to_dense_cube(self, room, order):
        positions, orders = image_lattice(room, order)
        oracle_positions, oracle_orders = dense_lattice(room, order)
        assert np.array_equal(positions, oracle_positions)
        assert np.array_equal(orders, oracle_orders)
        assert orders.dtype == oracle_orders.dtype

    @pytest.mark.parametrize("order", [0, 3, 17, 40])
    def test_identical_to_dense_cube_off_centre(self, order):
        positions, orders = image_lattice(OFF_CENTRE_ROOM, order)
        oracle_positions, oracle_orders = dense_lattice(OFF_CENTRE_ROOM, order)
        assert np.array_equal(positions, oracle_positions)
        assert np.array_equal(orders, oracle_orders)

    def test_peak_memory_bounded(self, room):
        """Order 80 (695,681 images): the dense cube and its mask peak at
        110 MB under tracemalloc, the per-pair enumeration at 62 MB."""
        image_lattice.cache_clear()     # measure a build, not a cache hit
        tracemalloc.start()
        try:
            image_lattice(room, 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80e6

    def test_last_lattice_cached_read_only(self, room):
        """One (room, order) is kept per process, as read-only arrays equal
        to a fresh build; another order replaces it."""
        first = image_lattice(room, 6)
        assert all(a is b for a, b in zip(image_lattice(room, 6), first))
        for array in first:
            with pytest.raises(ValueError):
                array[0] = 0
        fresh = image_lattice.__wrapped__(room, 6)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in fresh]
        image_lattice(room, 5)
        assert image_lattice.cache_info().currsize == 1
        assert image_lattice(room, 6)[0] is not first[0]

    def test_negative_order_rejected(self, room):
        with pytest.raises(ValueError):
            image_lattice(room, -1)
        with pytest.raises(ValueError):
            field_at_points(room, [[4.0, 3.0, 2.0]], 5.0, -1)


class TestBlockedKernel:
    """field_at_points streams the sum over blocks of receivers; benchmark
    cells can move by tenths of a dB when the truth moves by one ulp, so the
    blocked kernel must reproduce the direct expression bit for bit."""

    @pytest.mark.parametrize("order", [0, 1, 4, 10, 20])
    def test_bit_identical_to_direct_sum(self, room, order):
        rows = block_rows(room, order)
        rng = np.random.default_rng(order)
        for count in sorted({1, max(rows - 1, 1), rows, rows + 1, 100}):
            receivers = rng.uniform(0.05, 0.95, (count, 3)) * room.dimensions
            for k in (wavenumber(300.0, 343.0), wavenumber(777.7, 343.0)):
                assert np.array_equal(field_at_points(room, receivers, k, order),
                                      chunked_field(room, receivers, k, order))

    def test_peak_memory_bounded(self, room):
        """100 receivers at order 20 (11,521 images): the direct form's
        (100, 11521, 3) differences and complex temporaries peak at 74 MB
        under tracemalloc; the blocked kernel at 2.6 MB."""
        receivers = np.random.default_rng(0).uniform(
            0.05, 0.95, (100, 3)) * room.dimensions
        k = wavenumber(300.0, 343.0)
        tracemalloc.start()
        try:
            field_at_points(room, receivers, k, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_coincidence_in_last_block_rejected(self, room):
        order = 20
        rows = block_rows(room, order)
        receivers = np.random.default_rng(3).uniform(
            0.05, 0.95, (rows + 1, 3)) * room.dimensions
        k = wavenumber(300.0, 343.0)
        field_at_points(room, receivers, k, order)
        receivers[-1] = image_lattice(room, order)[0][5]
        with pytest.raises(ValueError, match="coincides"):
            field_at_points(room, receivers, k, order)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_wavenumber_outside_positive_finite_rejected(self, room, k):
        with pytest.raises(ValueError, match="wavenumber"):
            field_at_points(room, [[4.0, 3.0, 2.0]], k, 2)


class TestTransferFunction:
    """The source-to-receiver transfer function is field_at_points at a
    single receiver."""

    def test_free_field(self):
        room = RoomSpec(np.array([5.0, 4.0, 3.0]), 0.0,
                        np.array([1.0, 2.0, 1.5]))
        receiver = np.array([3.0, 2.5, 1.0])
        k = wavenumber(300.0, 343.0)
        d = np.linalg.norm(receiver - room.source_position)
        expected = np.exp(1j * k * d) / (4 * np.pi * d)
        value = field_at_points(room, [receiver], k, max_order=10)[0]
        npt.assert_allclose(value, expected, rtol=1e-14)

    def test_free_field_modulus_at_unit_distance(self):
        room = RoomSpec(np.array([5.0, 4.0, 3.0]), 0.0,
                        np.array([1.0, 2.0, 1.5]))
        receiver = room.source_position + np.array([1.0, 0.0, 0.0])
        value = field_at_points(room, [receiver], 5.0, max_order=0)[0]
        assert abs(value) == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)

    def test_reciprocity(self, room):
        k = wavenumber(250.0, 343.0)
        a = np.array([1.0, 2.0, 1.5])
        b = np.array([3.7, 1.1, 2.2])
        room_a = RoomSpec(room.dimensions, 0.7, a)
        room_b = RoomSpec(room.dimensions, 0.7, b)
        forward = field_at_points(room_a, [b], k, max_order=8)
        backward = field_at_points(room_b, [a], k, max_order=8)
        npt.assert_allclose(forward, backward, rtol=1e-12)

    def test_receiver_at_source_rejected(self, room):
        with pytest.raises(ValueError, match="coincides"):
            field_at_points(room, [room.source_position], 5.0, max_order=2)

    def test_truncation_tail_bound(self, room):
        """Raising the order changes the field by no more than the summed
        amplitude of the added images."""
        k = wavenumber(300.0, 343.0)
        receiver = np.array([4.0, 3.0, 2.0])
        u20 = field_at_points(room, [receiver], k, max_order=20)[0]
        u40 = field_at_points(room, [receiver], k, max_order=40)[0]
        positions, orders = image_lattice(room, 40)
        added = orders > 20
        dist = np.linalg.norm(positions[added] - receiver, axis=1)
        amps = room.reflection_coefficient ** orders[added].astype(float)
        tail = float(np.sum(amps / (4 * np.pi * dist)))
        assert abs(u40 - u20) <= tail

    def test_default_order_adequate(self, room):
        """The default truncation order captures the field at the default
        reflection coefficient to within a few percent (the series converges
        slowly at 0.95: order 30 still has >50% field error)."""
        k = wavenumber(300.0, 343.0)
        receivers = np.array([[4.0, 3.0, 2.0], [3.0, 1.0, 1.0]])
        u80 = field_at_points(room, receivers, k, max_order=80)
        u110 = field_at_points(room, receivers, k, max_order=110)
        assert np.max(np.abs(u110 - u80)) / np.mean(np.abs(u110)) < 0.08


class TestSnapshot:
    def test_noise_variance_from_snr(self, room):
        mics = np.array([[3.0, 2.0, 1.0], [4.0, 3.0, 2.0]])
        snap = simulate_snapshot(room, mics, 300.0, snr_db=20.0, max_order=5,
                                 seed=0)
        expected = np.mean(np.abs(snap.clean) ** 2) * 10 ** (-2.0)
        assert snap.noise_variance == pytest.approx(expected, rel=1e-12)

    def test_infinite_snr_is_noiseless(self, room):
        mics = np.array([[3.0, 2.0, 1.0]])
        snap = simulate_snapshot(room, mics, 300.0, snr_db=np.inf, max_order=4,
                                 seed=1)
        npt.assert_array_equal(snap.clean, snap.noisy)
        assert snap.noise_variance == 0.0

    def test_deterministic(self, room):
        mics = np.array([[3.0, 2.0, 1.0], [4.0, 1.0, 2.0]])
        one = simulate_snapshot(room, mics, 300.0, seed=9, max_order=4)
        two = simulate_snapshot(room, mics, 300.0, seed=9, max_order=4)
        npt.assert_array_equal(one.noisy, two.noisy)

    def test_empirical_snr_and_circularity(self, room, rng):
        mics = rng.uniform([2.5, 0.2, 0.2], [4.8, 3.8, 2.8], size=(50, 3))
        noise_samples = []
        for seed in range(200):
            snap = simulate_snapshot(room, mics, 300.0, snr_db=20.0,
                                     max_order=2, seed=seed)
            noise_samples.append(snap.noisy - snap.clean)
        noise = np.concatenate(noise_samples)
        clean_power = np.mean(np.abs(snap.clean) ** 2)
        snr_db = 10 * np.log10(clean_power / np.mean(np.abs(noise) ** 2))
        assert snr_db == pytest.approx(20.0, abs=0.1)
        # circular symmetry: pseudo-covariance E[eps^2] vanishes
        pseudo = np.mean(noise ** 2)
        assert abs(pseudo) / np.mean(np.abs(noise) ** 2) < 0.05

    def test_records_its_room_microphones_and_seed(self, room):
        mics = np.array([[3.0, 2.0, 1.0], [4.0, 1.0, 2.0]])
        snap = simulate_snapshot(room, mics, 300.0, seed=9, max_order=4)
        assert snap.room is room
        npt.assert_array_equal(snap.mics, mics)
        assert snap.seed == 9
        assert snap.clean.shape == snap.noisy.shape == (2,)

    def test_validation(self, room):
        """Each case fails with its own message; the valid record beside
        them builds. `simulate_snapshot` rejects an SNR of -inf or NaN."""
        mics = np.array([[3.0, 2.0, 1.0], [4.0, 1.0, 2.0]])
        cases = [
            (mics, np.zeros(3), np.zeros(2), 0.1, "per microphone"),
            (mics, np.zeros(3), np.zeros(3), 0.1, "per microphone"),
            (mics[:1], np.zeros(2), np.zeros(2), 0.1, "per microphone"),
            (mics, np.zeros(2), np.zeros(2), -1.0, "noise variance"),
            (np.zeros((0, 3)), np.zeros(0), np.zeros(0), 0.1, "at least one"),
            (np.zeros((2, 3)), np.zeros(2), np.zeros(2), 0.1, "distinct"),
            (mics[[0, 1, 0]], np.zeros(3), np.zeros(3), 0.1, "distinct"),
            ([[3.0, 2.0, np.nan], [4.0, 1.0, 2.0]], np.zeros(2),
             np.zeros(2), 0.1, "finite"),
            ([[3.0, 2.0, 1.0], [np.inf, 1.0, 2.0]], np.zeros(2),
             np.zeros(2), 0.1, "finite"),
            (mics.ravel(), np.zeros(2), np.zeros(2), 0.1, "shape"),
        ]
        for positions, clean, noisy, noise_variance, match in cases:
            with pytest.raises(ValueError, match=match):
                SimSnapshot(room, positions, 300.0, clean, noisy,
                            noise_variance, 0)
        SimSnapshot(room, mics, 300.0, np.zeros(2), np.zeros(2), 0.1, 0)
        # below about -3082.5 dB, 10^(-snr/10) overflows a float
        for snr_db in (-math.inf, math.nan, -4000.0, -3082.55):
            with pytest.raises(ValueError, match="snr_db"):
                simulate_snapshot(room, mics, 300.0, snr_db=snr_db,
                                  max_order=2)

