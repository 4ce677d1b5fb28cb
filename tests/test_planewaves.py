import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomwave.geometry import BoundaryCloud, sample_boundary
from roomwave.planewaves import (PlaneWaveDictionary, build_phi,
                                 build_phi_tilde, build_psi, evaluate_field,
                                 fibonacci_directions, wavenumber)

K300 = wavenumber(300.0, 343.0)


class TestWavenumber:
    def test_value_at_300hz(self):
        assert K300 == pytest.approx(2 * np.pi * 300 / 343)
        assert K300 == pytest.approx(5.4955, abs=1e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            wavenumber(0.0, 343.0)
        with pytest.raises(ValueError):
            wavenumber(100.0, -1.0)

    @pytest.mark.parametrize("frequency, speed", [
        (np.nan, 343.0), (np.inf, 343.0), (300.0, np.nan), (300.0, np.inf)])
    def test_not_finite_rejected(self, frequency, speed):
        with pytest.raises(ValueError, match="finite"):
            wavenumber(frequency, speed)


class TestFibonacciDirections:
    def test_single_direction_is_x_axis(self):
        npt.assert_allclose(fibonacci_directions(1), [[1.0, 0.0, 0.0]],
                            atol=1e-15)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_unit_norm(self, count):
        dirs = fibonacci_directions(count)
        npt.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_near_uniform_coverage(self):
        dirs = fibonacci_directions(1000)
        assert np.linalg.norm(dirs.mean(axis=0)) < 0.01

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            fibonacci_directions(0)


@pytest.fixture
def dictionary():
    return PlaneWaveDictionary(K300, fibonacci_directions(64))


class TestDictionary:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneWaveDictionary(-1.0, fibonacci_directions(4))
        with pytest.raises(ValueError):
            PlaneWaveDictionary(1.0, np.array([[2.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        directions = fibonacci_directions(4)
        directions[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            PlaneWaveDictionary(1.0, directions)

    def test_flat_directions_rejected(self):
        """A flat 6-vector is not read as two directions."""
        with pytest.raises(ValueError, match="shape"):
            PlaneWaveDictionary(1.0, np.array([0.0, 0, 1, 1, 0, 0]))

    @pytest.mark.parametrize("k", [0.0, np.nan, np.inf])
    def test_wavenumber_outside_positive_finite_rejected(self, k):
        with pytest.raises(ValueError, match="wavenumber"):
            PlaneWaveDictionary(k, fibonacci_directions(4))

    def test_wave_vectors(self, dictionary):
        npt.assert_allclose(np.linalg.norm(dictionary.wave_vectors, axis=1),
                            K300, atol=1e-12)


class TestBuildPhi:
    def test_origin_row_is_one(self, dictionary):
        phi = build_phi(dictionary, np.zeros((1, 3)))
        npt.assert_allclose(phi, 1.0, atol=1e-15)

    def test_unit_modulus(self, dictionary, rng):
        phi = build_phi(dictionary, rng.uniform(size=(7, 3)))
        npt.assert_allclose(np.abs(phi), 1.0, atol=1e-12)

    def test_explicit_entry(self, dictionary):
        r = np.array([[0.3, -0.2, 0.9]])
        phi = build_phi(dictionary, r)
        expected = np.exp(1j * dictionary.wave_vectors @ r[0])
        npt.assert_allclose(phi[0], expected, rtol=1e-14)


class TestBuildPsi:
    def test_orthogonal_normal_gives_zero(self):
        d = PlaneWaveDictionary(2.0, np.array([[0.0, 0.0, 1.0]]))
        cloud = BoundaryCloud(np.array([[0.2, 0.4, 0.1]]),
                              np.array([[1.0, 0.0, 0.0]]))
        psi = build_psi(d, cloud)
        npt.assert_allclose(psi, 0.0, atol=1e-15)

    def test_modulus_bounded_by_wavenumber(self, dictionary, room):
        cloud = sample_boundary(room, 40, seed=3)
        psi = build_psi(dictionary, cloud)
        assert np.all(np.abs(psi) <= dictionary.wavenumber + 1e-12)

    def test_matches_directional_derivative(self, dictionary, room):
        cloud = sample_boundary(room, 10, seed=4)
        psi = build_psi(dictionary, cloud)
        h = 1e-5
        up = build_phi(dictionary, cloud.points + h * cloud.normals)
        down = build_phi(dictionary, cloud.points - h * cloud.normals)
        fd = (up - down) / (2 * h)
        npt.assert_allclose(psi, fd, rtol=1e-6,
                            atol=1e-6 * dictionary.wavenumber)


class TestBuildPhiTilde:
    def test_modulus_is_wavenumber(self, dictionary, room):
        cloud = sample_boundary(room, 25, seed=5)
        pt = build_phi_tilde(dictionary, cloud)
        npt.assert_allclose(np.abs(pt), dictionary.wavenumber, atol=1e-12)

    def test_origin_entry(self, dictionary):
        cloud = BoundaryCloud(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
        pt = build_phi_tilde(dictionary, cloud)
        npt.assert_allclose(pt, 1j * dictionary.wavenumber, atol=1e-14)

    def test_is_ik_times_phi_at_boundary(self, dictionary, room):
        cloud = sample_boundary(room, 30, seed=6)
        pt = build_phi_tilde(dictionary, cloud)
        phi_b = build_phi(dictionary, cloud.points)
        npt.assert_allclose(pt, 1j * dictionary.wavenumber * phi_b, rtol=1e-14)


@pytest.mark.parametrize("p", [50, 1000])
@pytest.mark.parametrize("b", [0, 1, 7, 100, 300])
def test_boundary_builders_bit_identical_to_direct_expressions(room, b, p):
    """build_phi returns, and build_psi and build_phi_tilde scale in place,
    one phase array; the marginal-likelihood fit is sensitive to one-ulp
    input changes, so all three must equal the direct expressions exactly,
    for an empty cloud too."""
    dictionary = PlaneWaveDictionary(wavenumber(777.7, 343.0),
                                     fibonacci_directions(p))
    cloud = sample_boundary(room, b, seed=b)
    kvecs = dictionary.wave_vectors
    phase = np.exp(1j * (cloud.points @ kvecs.T))
    assert np.array_equal(build_phi(dictionary, cloud.points), phase)
    assert np.array_equal(build_psi(dictionary, cloud),
                          1j * (cloud.normals @ kvecs.T) * phase)
    assert np.array_equal(build_phi_tilde(dictionary, cloud),
                          1j * dictionary.wavenumber * phase)


class TestEvaluateField:
    def test_one_hot_coefficient(self, dictionary, rng):
        alpha = np.zeros(dictionary.size, dtype=complex)
        alpha[0] = 1.0
        pts = rng.uniform(size=(5, 3))
        field = evaluate_field(dictionary, alpha, pts)
        npt.assert_allclose(field, np.exp(1j * pts @ dictionary.wave_vectors[0]),
                            rtol=1e-14)

    def test_zero_coefficients(self, dictionary, rng):
        field = evaluate_field(dictionary, np.zeros(dictionary.size),
                               rng.uniform(size=(4, 3)))
        npt.assert_allclose(field, 0.0)

    def test_dimension_mismatch(self, dictionary):
        with pytest.raises(ValueError):
            evaluate_field(dictionary, np.zeros(3), np.zeros((1, 3)))

    def test_helmholtz_stencil_residual(self, dictionary, rng):
        """Any dictionary field solves the homogeneous Helmholtz equation up
        to stencil truncation."""
        alpha = rng.standard_normal(dictionary.size) * np.exp(
            2j * np.pi * rng.uniform(size=dictionary.size))
        pts = rng.uniform(0.5, 2.5, size=(20, 3))
        h = 1e-3
        k2 = dictionary.wavenumber ** 2
        u = evaluate_field(dictionary, alpha, pts)
        lap = -6.0 * u
        for axis in range(3):
            for sign in (-1.0, 1.0):
                shifted = pts.copy()
                shifted[:, axis] += sign * h
                lap += evaluate_field(dictionary, alpha, shifted)
        lap /= h * h
        residual = np.abs(lap + k2 * u)
        scale = k2 * np.mean(np.abs(u))
        assert np.max(residual) / scale < 1e-4


class TestBoundaryOperatorIdentity:
    def test_reproduces_impedance_residual(self, dictionary, room, rng):
        """(beta Psi + PhiTilde) alpha equals beta n.grad(u) + i k u at the
        boundary points, with the gradient taken by central differences."""
        cloud = sample_boundary(room, 12, seed=7)
        alpha = rng.standard_normal(dictionary.size) + 1j * rng.standard_normal(
            dictionary.size)
        beta = 1.7 - 0.4j
        combined = (beta * build_psi(dictionary, cloud)
                    + build_phi_tilde(dictionary, cloud)) @ alpha
        h = 1e-5
        up = evaluate_field(dictionary, alpha, cloud.points + h * cloud.normals)
        down = evaluate_field(dictionary, alpha, cloud.points - h * cloud.normals)
        normal_derivative = (up - down) / (2 * h)
        u = evaluate_field(dictionary, alpha, cloud.points)
        expected = beta * normal_derivative + 1j * dictionary.wavenumber * u
        npt.assert_allclose(combined, expected, rtol=1e-5, atol=1e-8)
