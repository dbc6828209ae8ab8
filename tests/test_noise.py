"""Tests for the noise model: correlations, damping matrix, effective precession."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from fiberpol import (
    CMatrix,
    FreePrecession,
    InvalidInputError,
    NoiseSpec,
    NumericalFailureError,
    UnsupportedConfigurationError,
    c_matrix_closed,
    c_matrix_quadrature,
    correlation,
    effective_hamiltonian,
    is_completely_positive,
    lambda_weights,
    noise_cp_condition,
    params_from_kossakowski,
    pauli_rotation,
    simplified_params,
)
from fiberpol.states import PAULI


def random_unit(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def test_noise_spec_validation():
    spec = NoiseSpec(g=(1.0, 2.0, 3.0), lam=(0.5, 1.0, 2.0))
    assert spec.mean == (0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError, match=r"g\[1\] must be non-negative"):
        NoiseSpec(g=(1.0, -1.0, 1.0), lam=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError, match=r"lam\[1\] must be positive"):
        NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1.0, 0.0, 1.0))
    with pytest.raises(InvalidInputError, match="3 components"):
        NoiseSpec(g=(1.0, 1.0), lam=(1.0, 1.0, 1.0))


def test_free_precession_validation():
    fp = FreePrecession(omega0=2.0)
    assert fp.n == (0.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="unit vector"):
        FreePrecession(omega0=1.0, n=(1.0, 1.0, 0.0))
    with pytest.raises(InvalidInputError, match="unit vector"):
        FreePrecession(omega0=1.0, n=(1e200, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match="3 components"):
        FreePrecession(omega0=1.0, n=(1.0, 0.0))
    # NaN has no norm: it fails the finite rule before the unit-norm band
    with pytest.raises(InvalidInputError, match=r"n\[0\] must be a finite number"):
        FreePrecession(omega0=1.0, n=(math.nan, 0.0, 1.0))
    with pytest.raises(InvalidInputError, match="omega0 must be a finite number"):
        FreePrecession(omega0=math.nan)


def test_correlation_values():
    spec = NoiseSpec(g=(2.0, 3.0, 4.0), lam=(1.0, 2.0, 0.5))
    assert abs(correlation(spec, 1, 1, 0.7) - 2.0 * math.exp(-0.7)) < 1e-15
    assert abs(correlation(spec, 3, 3, 2.0) - 4.0 * math.exp(-1.0)) < 1e-15
    assert correlation(spec, 1, 2, 0.3) == 0.0
    assert correlation(spec, 2, 2, -1.3) == correlation(spec, 2, 2, 1.3)
    with pytest.raises(InvalidInputError, match="axis labels"):
        correlation(spec, 0, 1, 0.0)
    with pytest.raises(InvalidInputError, match="axis labels"):
        correlation(spec, 1, 4, 0.0)


def test_pauli_rotation_vs_conjugation_oracle():
    # independent route: Heisenberg-rotate each Pauli matrix by the 2x2
    # matrix exponential and project back onto the Pauli basis
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = random_unit(rng)
        omega0 = rng.uniform(-3.0, 3.0)
        t = rng.uniform(-2.0, 2.0)
        fp = FreePrecession(omega0=omega0, n=n)
        ham = 0.5 * omega0 * (n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2])
        u2 = expm(1j * t * ham)
        expected = np.empty((3, 3))
        for i in range(3):
            rotated = u2 @ PAULI[i] @ u2.conj().T
            for j in range(3):
                expected[i, j] = 0.5 * np.trace(rotated @ PAULI[j]).real
        assert np.allclose(pauli_rotation(fp, t), expected, atol=1e-12)


def test_pauli_rotation_group_properties():
    rng = np.random.default_rng(43)
    for _ in range(20):
        fp = FreePrecession(omega0=rng.uniform(-4.0, 4.0), n=random_unit(rng))
        t, s = rng.uniform(-3.0, 3.0, size=2)
        u_t = pauli_rotation(fp, t)
        assert np.allclose(u_t @ u_t.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(u_t) - 1.0) < 1e-12
        assert np.allclose(pauli_rotation(fp, t + s), u_t @ pauli_rotation(fp, s), atol=1e-10)


def test_lambda_weights():
    spec = NoiseSpec(g=(1.01, 0.505, 0.7575), lam=(10.0, 10.0, 10.0))
    fp = FreePrecession(omega0=1.0)
    assert np.allclose(lambda_weights(spec, fp), [0.01, 0.005, 0.0075], atol=1e-15)
    fp0 = FreePrecession(omega0=0.0)
    assert np.allclose(lambda_weights(spec, fp0), np.array(spec.g) / 100.0, atol=1e-15)


def test_c_matrix_closed_axis3_structure():
    # for n along axis 3 the damping matrix has an exact block form:
    #   [[lam1 L1, w0 L1, 0], [-w0 L2, lam2 L2, 0], [0, 0, G3 / lam3]]
    spec = NoiseSpec(g=(1.01, 0.505, 0.75), lam=(10.0, 10.0, 10.0))
    fp = FreePrecession(omega0=1.0)
    w1, w2, _ = lambda_weights(spec, fp)
    expected = np.array(
        [
            [10.0 * w1, 1.0 * w1, 0.0],
            [-1.0 * w2, 10.0 * w2, 0.0],
            [0.0, 0.0, 0.75 / 10.0],
        ]
    )
    assert np.allclose(c_matrix_closed(spec, fp).matrix, expected, atol=1e-15)


def test_c_matrix_closed_vs_quadrature():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        spec = NoiseSpec(g=tuple(rng.uniform(0.0, 3.0, size=3)), lam=tuple(rng.uniform(0.3, 5.0, size=3)))
        fp = FreePrecession(omega0=rng.uniform(-4.0, 4.0), n=random_unit(rng))
        closed = c_matrix_closed(spec, fp).matrix
        quad = c_matrix_quadrature(spec, fp).matrix
        assert np.max(np.abs(closed - quad)) < 1e-6


@pytest.mark.parametrize("spec, fp", [
    (NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1e-300, 1.0, 1.0)), FreePrecession(1.0)),
    (NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1.0, 1.0, 1.0)), FreePrecession(1e300)),
    # about 2.5e5 panels at the start, a 0.6 GB rotation stack at the first doubling
    (NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1e-4, 1.0, 1.0)), FreePrecession(1.0)),
], ids=["lam-1e-300", "omega0-1e300", "lam-1e-4"])
def test_quadrature_refuses_a_panel_count_past_its_bound(spec, fp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="needs over 65536 panels"):
            c_matrix_quadrature(spec, fp)


def test_c_matrix_omega_zero_is_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = tuple(rng.uniform(0.0, 2.0, size=3))
        lam = tuple(rng.uniform(0.5, 4.0, size=3))
        spec = NoiseSpec(g=g, lam=lam)
        fp = FreePrecession(omega0=0.0, n=random_unit(rng))
        closed = c_matrix_closed(spec, fp).matrix
        assert np.allclose(closed, np.diag(np.array(g) / np.array(lam)), atol=1e-14)


def test_c_matrix_shape_validation():
    with pytest.raises(InvalidInputError, match="3x3"):
        CMatrix(np.eye(2))
    sym = CMatrix(np.arange(9.0).reshape(3, 3)).symmetric_part()
    assert np.allclose(sym, sym.T, atol=0.0)


def test_effective_hamiltonian_axis3():
    spec = NoiseSpec(g=(1.01, 0.505, 0.75), lam=(10.0, 10.0, 10.0))
    fp = FreePrecession(omega0=1.0)
    w1, w2, _ = lambda_weights(spec, fp)
    h = effective_hamiltonian(spec, fp)
    assert np.allclose(h, [0.0, 0.0, 0.5 + (w1 + w2)], atol=1e-15)


def test_effective_hamiltonian_mean_additivity():
    spec0 = NoiseSpec(g=(0.4, 0.2, 0.1), lam=(2.0, 1.0, 3.0))
    mean = (0.3, -0.7, 0.25)
    spec1 = NoiseSpec(g=spec0.g, lam=spec0.lam, mean=mean)
    fp = FreePrecession(omega0=1.7, n=(0.6, 0.0, 0.8))
    assert np.allclose(
        effective_hamiltonian(spec1, fp) - effective_hamiltonian(spec0, fp), mean, atol=1e-15
    )


def test_effective_hamiltonian_shift_from_quadrature():
    # the noise-induced shift must match the antisymmetric part of the
    # independently integrated damping matrix
    spec = NoiseSpec(g=(0.9, 0.3, 0.5), lam=(1.5, 2.5, 0.8))
    fp = FreePrecession(omega0=2.2, n=(0.0, 0.6, 0.8))
    c = c_matrix_quadrature(spec, fp).matrix
    shift = np.array([c[1, 2] - c[2, 1], c[2, 0] - c[0, 2], c[0, 1] - c[1, 0]])
    expected = 0.5 * fp.omega0 * np.array(fp.n) + shift
    assert np.allclose(effective_hamiltonian(spec, fp), expected, atol=1e-6)


def test_simplified_params_match_kossakowski_route():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = NoiseSpec(g=tuple(rng.uniform(0.0, 2.0, size=3)), lam=tuple(rng.uniform(0.4, 6.0, size=3)))
        fp = FreePrecession(omega0=rng.uniform(-3.0, 3.0))
        p, omega = simplified_params(spec, fp)
        q = params_from_kossakowski(c_matrix_closed(spec, fp).symmetric_part())
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            assert abs(getattr(p, name) - getattr(q, name)) < 1e-12
        h = effective_hamiltonian(spec, fp)
        assert abs(h[0]) < 1e-15 and abs(h[1]) < 1e-15
        assert abs(omega - h[2]) < 1e-12
        assert p.c == 0.0 and p.beta == 0.0


def test_simplified_params_preconditions():
    spec = NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1.0, 1.0, 1.0))
    tilted = FreePrecession(omega0=1.0, n=(1.0, 0.0, 0.0))
    with pytest.raises(UnsupportedConfigurationError, match="circular axis"):
        simplified_params(spec, tilted)
    biased = NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1.0, 1.0, 1.0), mean=(0.1, 0.0, 0.0))
    with pytest.raises(UnsupportedConfigurationError, match="zero-mean"):
        noise_cp_condition(biased, FreePrecession(omega0=1.0))


def test_noise_cp_condition_frozen_negative():
    # Lam = (0.1, 2.5, 0.1): residual = 4 * 0.1 * 2.5 - 9 * 2.4^2 = 1 - 51.84
    spec = NoiseSpec(g=(1.0, 25.0, 1.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=3.0)
    assert abs(noise_cp_condition(spec, fp) - (1.0 - 51.84)) < 1e-12


def test_noise_cp_condition_balanced_is_positive():
    spec = NoiseSpec(g=(0.8, 0.8, 0.1), lam=(2.0, 2.0, 1.0))
    fp = FreePrecession(omega0=1.5)
    w = lambda_weights(spec, fp)
    assert abs(noise_cp_condition(spec, fp) - 4.0 * 2.0 * 2.0 * w[0] * w[1]) < 1e-14


def test_noise_cp_condition_matches_transverse_determinant_and_verdict():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(200):
        spec = NoiseSpec(g=tuple(rng.uniform(0.05, 4.0, size=3)), lam=tuple(rng.uniform(0.4, 4.0, size=3)))
        fp = FreePrecession(omega0=rng.uniform(0.2, 4.0))
        residual = noise_cp_condition(spec, fp)
        kos = c_matrix_closed(spec, fp).symmetric_part()
        det = kos[0, 0] * kos[1, 1] - kos[0, 1] * kos[1, 0]
        assert abs(residual - det) < 1e-10
        if abs(residual) > 1e-6:
            p, _ = simplified_params(spec, fp)
            assert is_completely_positive(p) == (residual > 0.0)
            checked += 1
    assert checked > 100
