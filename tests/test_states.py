"""Tests for polarization states and Stokes/density conversions."""

import math

import numpy as np
import pytest

from fiberpol import (
    DensityMatrix,
    InvalidInputError,
    NumericalFailureError,
    PureStateAngles,
    StokesVector,
    density_from_stokes,
    purity,
    stokes_from_angles,
    stokes_from_density,
)
from fiberpol.states import PAULI


def test_pauli_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k
    eye = np.eye(2, dtype=complex)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for i in range(3):
        for j in range(3):
            expected = (i == j) * eye + 1j * sum(eps[i, j, k] * PAULI[k] for k in range(3))
            assert np.allclose(PAULI[i] @ PAULI[j], expected, atol=1e-15)
    for i in range(3):
        assert abs(np.trace(PAULI[i])) == 0.0
        assert np.allclose(PAULI[i], PAULI[i].conj().T, atol=0.0)


def test_stokes_from_angles_frozen_states():
    horizontal = stokes_from_angles(PureStateAngles(0.0, 0.0))
    assert np.allclose(horizontal.as_array(), [1.0, 0.0, 0.0], atol=1e-15)

    vertical = stokes_from_angles(PureStateAngles(math.pi / 2, 0.0))
    assert np.allclose(vertical.as_array(), [-1.0, 0.0, 0.0], atol=1e-15)

    diagonal = stokes_from_angles(PureStateAngles(math.pi / 4, 0.0))
    assert np.allclose(diagonal.as_array(), [0.0, 1.0, 0.0], atol=1e-15)

    left = stokes_from_angles(PureStateAngles(math.pi / 4, -math.pi / 2))
    assert np.allclose(left.as_array(), [0.0, 0.0, -1.0], atol=1e-15)


def test_stokes_from_angles_vs_projector_oracle():
    # independent route: build the circular-basis spinor, form the projector,
    # and read the components off traces against the Pauli matrices
    rng = np.random.default_rng(20240811)
    for _ in range(200):
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c_plus = math.cos(theta)
        c_minus = math.sin(theta) * np.exp(1j * phi)
        spinor = np.array(
            [(c_plus - 1j * c_minus) / math.sqrt(2.0), (c_plus + 1j * c_minus) / math.sqrt(2.0)]
        )
        projector = np.outer(spinor, spinor.conj())
        expected = [np.trace(projector @ PAULI[i]).real for i in range(3)]

        s = stokes_from_angles(PureStateAngles(theta, phi))
        assert np.allclose(s.as_array(), expected, atol=1e-14)
        assert abs(s.norm() - 1.0) < 1e-12
        assert abs(purity(s) - 1.0) < 1e-12


def test_density_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0.0, 1.0) * direction
        s = StokesVector.from_array(r)
        dm = density_from_stokes(s)
        back = stokes_from_density(dm)
        assert np.allclose(back.as_array(), r, atol=1e-14)
        trace = (dm.matrix[0, 0] + dm.matrix[1, 1]).real
        assert trace == 1.0


def test_density_eigenvalues_match_norm():
    rng = np.random.default_rng(13)
    for _ in range(200):
        r = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(r) > 1.0:
            r /= np.linalg.norm(r) * 1.25
        dm = density_from_stokes(StokesVector.from_array(r))
        nrm = np.linalg.norm(r)
        assert np.allclose(dm.eigenvalues(), [(1.0 - nrm) / 2.0, (1.0 + nrm) / 2.0], atol=1e-12)
        assert dm.is_physical()


def test_density_matrix_reconstruction_identity():
    # rho = (I + r . sigma) / 2 must reproduce density_from_stokes entrywise
    rng = np.random.default_rng(99)
    for _ in range(50):
        r = rng.uniform(-0.57, 0.57, size=3)
        dm = density_from_stokes(StokesVector.from_array(r))
        direct = 0.5 * (np.eye(2) + r[0] * PAULI[0] + r[1] * PAULI[1] + r[2] * PAULI[2])
        assert np.allclose(dm.matrix, direct, atol=1e-15)


def test_density_validation():
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 0.2], [0.3, 0.5]]))
    with pytest.raises(InvalidInputError, match="trace"):
        DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(InvalidInputError, match="2x2"):
        DensityMatrix(np.eye(3))


def test_density_nan_entries_fail_the_tolerance_checks():
    # NaN compares false both ways, so each check reads "within the band"
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, math.nan], [math.nan, 0.5]]))
    with pytest.raises(InvalidInputError, match="trace"):
        DensityMatrix(np.array([[math.nan, 0.0], [0.0, 0.5]]))
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        DensityMatrix(np.array([[complex(0.5, math.nan), 0.0], [0.0, 0.5]]))


def test_unphysical_density_is_representable():
    # positivity is a query, not a construction constraint
    dm = density_from_stokes(StokesVector(1.2, 0.0, 0.0))
    assert not dm.is_physical()
    assert dm.eigenvalues()[0] < -0.09


def test_stokes_physicality_boundaries():
    assert StokesVector(1.0, 0.0, 0.0).is_physical()
    assert StokesVector(0.0, 0.0, 0.0).is_physical()
    # squared norm 1 + 5e-13 sits inside the default 1e-12 band
    inside = StokesVector(math.sqrt(1.0 + 5e-13), 0.0, 0.0)
    assert inside.is_physical()
    outside = StokesVector(math.sqrt(1.0 + 5e-12), 0.0, 0.0)
    assert not outside.is_physical()
    # a component whose square overflows is outside the ball, not an error
    assert not StokesVector(1e200, 0.0, 0.0).is_physical()


def test_norm_and_purity_of_large_components():
    # squares beyond the float range: the norm still fits, the purity does not
    assert StokesVector(1e200, 0.0, 0.0).norm() == 1e200
    assert StokesVector(0.0, -3.0 * 2.0**600, 4.0 * 2.0**600).norm() == 5.0 * 2.0**600
    with pytest.raises(NumericalFailureError, match="norm"):
        StokesVector(1.7e308, 1.7e308, 1.7e308).norm()
    with pytest.raises(NumericalFailureError, match="purity"):
        purity(StokesVector(1e200, 0.0, 0.0))


def test_stokes_from_array_contract():
    s = StokesVector.from_array([0.1, -0.2, 0.3])
    assert (s.rho1, s.rho2, s.rho3) == (0.1, -0.2, 0.3)
    with pytest.raises(InvalidInputError, match="3 components"):
        StokesVector.from_array([1.0, 2.0])
    arr = s.as_array()
    arr[0] = 5.0  # as_array hands out a copy
    assert s.rho1 == 0.1


def test_stokes_from_density_accepts_raw_arrays():
    raw = np.array([[0.75, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]])
    s = stokes_from_density(raw)
    assert np.allclose(s.as_array(), [0.2, -0.4, 0.5], atol=1e-15)
    with pytest.raises(InvalidInputError, match="Hermitian"):
        stokes_from_density(np.array([[0.5, 0.3], [0.1, 0.5]]))


def test_purity_values():
    assert purity(StokesVector(0.0, 0.0, 0.0)) == 0.5
    assert abs(purity(StokesVector(0.6, 0.0, 0.0)) - 0.68) < 1e-15
    assert purity(StokesVector(0.0, 0.0, 1.0)) == 1.0
