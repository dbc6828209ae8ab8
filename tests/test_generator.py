"""Tests for the Bloch generator, Kossakowski matrix, and positivity tests."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberpol import (
    DensityMatrix,
    DissipativeParams,
    InvalidInputError,
    KossakowskiMatrix,
    build_generator,
    cp_inequalities,
    density_from_stokes,
    is_completely_positive,
    kossakowski_from_params,
    lindblad_apply,
    params_from_kossakowski,
)
from fiberpol.errors import CP_TOL
from fiberpol.states import PAULI, StokesVector


def draw_params(rng, lo=-2.0, hi=4.0):
    vals = rng.uniform(lo, hi, size=6)
    return DissipativeParams(a=vals[0], b=vals[1], c=vals[2], alpha=vals[3], beta=vals[4], gamma=vals[5])


def test_kossakowski_frozen_structure():
    p = DissipativeParams(a=1.0, b=0.5, c=-0.25, alpha=2.0, beta=0.125, gamma=3.0)
    k = kossakowski_from_params(p).matrix
    expected = np.array(
        [
            [2.0, -0.5, 0.25],
            [-0.5, 1.0, -0.125],
            [0.25, -0.125, 0.0],
        ]
    )
    assert np.array_equal(k, expected)


def test_kossakowski_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(500):
        p = draw_params(rng)
        q = params_from_kossakowski(kossakowski_from_params(p))
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            assert abs(getattr(p, name) - getattr(q, name)) < 1e-12


def test_kossakowski_accepts_raw_symmetric_only():
    with pytest.raises(InvalidInputError, match="symmetric"):
        params_from_kossakowski(np.array([[1.0, 0.1, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="3x3"):
        KossakowskiMatrix(np.eye(2))


def test_kossakowski_nan_entries_are_not_symmetric():
    for entry in ((0, 1), (2, 2)):
        m = np.eye(3)
        m[entry] = np.nan
        with pytest.raises(InvalidInputError, match="Kossakowski matrix must have finite entries"):
            KossakowskiMatrix(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arrays_are_invalid_input(bad):
    # refused before any arithmetic: the suite fails on a raw numpy warning
    m = np.diag([bad, 1.0, 1.0])
    with pytest.raises(InvalidInputError, match="Kossakowski matrix must have finite entries"):
        KossakowskiMatrix(m)
    with pytest.raises(InvalidInputError, match="Kossakowski matrix must have finite entries"):
        params_from_kossakowski(m)
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    omega = [bad, 0.0, 0.0]
    with pytest.raises(InvalidInputError, match="precession vector must have finite entries"):
        build_generator(p, omega)
    with pytest.raises(InvalidInputError, match="precession vector must have finite entries"):
        lindblad_apply(kossakowski_from_params(p), omega, DensityMatrix(np.eye(2) / 2.0))


def test_residual_sign_matches_eigenvalue_sign():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(300):
        p = draw_params(rng)
        residuals = cp_inequalities(p)
        min_eig = np.linalg.eigvalsh(kossakowski_from_params(p).matrix)[0]
        if abs(min_eig) <= 1e-8:
            continue
        assert (min(residuals) >= 0.0) == (min_eig > 0.0)
        assert is_completely_positive(p) == (min_eig > -1e-10)
        checked += 1
    assert checked > 250


# draws whose smallest eigenvalue or residual lies within this of zero are
# dropped: near the boundary the three tests may split on rounding alone
CP_BAND = 1e-6


@settings(max_examples=200, deadline=None)
# a positive-definite K, and K - 2 I with one eigenvalue of each sign
@example(root=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), shift=0.0)
@example(root=(1.0, 0.5, 0.0, 0.0, 1.0, 0.5, 0.5, 0.0, 1.0), shift=2.0)
@given(
    root=st.tuples(*[st.floats(-1.5, 1.5)] * 9),
    shift=st.floats(-0.5, 2.5),
)
def test_three_way_cp_equivalence(root, shift):
    """is_completely_positive <=> every residual >= -CP_TOL <=> min eig of K >= -CP_TOL."""
    r = np.array(root).reshape(3, 3)
    p = params_from_kossakowski(r @ r.T - shift * np.eye(3))
    min_eig = np.linalg.eigvalsh(kossakowski_from_params(p).matrix)[0]
    min_residual = min(cp_inequalities(p))
    assume(abs(min_eig) > CP_BAND and abs(min_residual) > CP_BAND)
    cp = is_completely_positive(p)
    assert cp == (min_residual >= -CP_TOL) == (min_eig >= -CP_TOL)


def test_psd_construction_is_cp():
    rng = np.random.default_rng(404)
    for _ in range(100):
        root = rng.normal(size=(3, 3))
        p = params_from_kossakowski(root @ root.T)
        assert is_completely_positive(p)
        assert min(cp_inequalities(p)) >= -1e-12


def test_boundary_rank_deficient():
    # K = diag(1, 1, 0): on the boundary, minors vanish exactly
    p = params_from_kossakowski(np.diag([1.0, 1.0, 0.0]))
    res = cp_inequalities(p)
    assert res.two_t == 0.0
    assert res.det == 0.0
    assert min(res) == 0.0
    assert is_completely_positive(p)


def test_build_generator_frozen():
    p = DissipativeParams(a=1.0, b=0.5, c=-0.25, alpha=2.0, beta=0.125, gamma=3.0)
    gen = build_generator(p, (0.5, -1.0, 2.0))
    expected = np.array(
        [
            [1.0, 2.5, 0.75],
            [-1.5, 2.0, 0.625],
            [-1.25, -0.375, 3.0],
        ]
    )
    assert np.array_equal(gen.matrix, expected)
    assert np.array_equal(gen.omega, [0.5, -1.0, 2.0])


def test_build_generator_decomposition():
    # symmetric part carries the six dissipative parameters, antisymmetric
    # part carries the precession vector
    rng = np.random.default_rng(55)
    for _ in range(50):
        p = draw_params(rng)
        w = rng.uniform(-3.0, 3.0, size=3)
        m = build_generator(p, w).matrix
        sym = 0.5 * (m + m.T)
        anti = 0.5 * (m - m.T)
        assert np.allclose(np.diag(sym), [p.a, p.alpha, p.gamma], atol=1e-15)
        assert abs(sym[0, 1] - p.b) < 1e-15
        assert abs(sym[0, 2] - p.c) < 1e-15
        assert abs(sym[1, 2] - p.beta) < 1e-15
        assert np.allclose([anti[1, 2], anti[2, 0], anti[0, 1]], w, atol=1e-15)


def test_build_generator_rejects_scalar_omega():
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    with pytest.raises(InvalidInputError, match="3 components"):
        build_generator(p, 1.0)


def test_lindblad_matches_bloch_generator():
    # dual route: the master-equation right-hand side on rho must have
    # Bloch components equal to -2 H r
    rng = np.random.default_rng(606)
    for _ in range(100):
        p = draw_params(rng)
        w = rng.uniform(-2.0, 2.0, size=3)
        r = rng.uniform(-0.5, 0.5, size=3)
        k = kossakowski_from_params(p)
        d = density_from_stokes(StokesVector.from_array(r))
        deriv = lindblad_apply(k, w, d)
        assert abs(np.trace(deriv)) < 1e-14
        assert np.allclose(deriv, deriv.conj().T, atol=1e-14)
        bloch_rate = [np.trace(deriv @ PAULI[i]).real for i in range(3)]
        expected = -2.0 * (build_generator(p, w).matrix @ r)
        assert np.allclose(bloch_rate, expected, atol=1e-12)


def test_lindblad_fixed_point_maximally_mixed():
    # with b = c = beta = 0 the dissipator is diagonal and the maximally
    # mixed state is stationary up to the (traceless) Hamiltonian term
    k = kossakowski_from_params(
        DissipativeParams(a=0.8, b=0.0, c=0.0, alpha=1.1, beta=0.0, gamma=0.9)
    )
    d = density_from_stokes(StokesVector(0.0, 0.0, 0.0))
    deriv = lindblad_apply(k, (0.3, -0.2, 0.9), d)
    assert np.max(np.abs(deriv)) < 1e-15


def test_lindblad_rejects_bad_omega():
    k = kossakowski_from_params(DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0))
    d = density_from_stokes(StokesVector(0.2, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match="3 components"):
        lindblad_apply(k, (1.0, 0.0), d)

