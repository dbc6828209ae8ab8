"""Tests for closed-form and exact Mueller propagators and the double pass."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fiberpol import (
    DissipativeParams,
    InvalidInputError,
    MuellerMatrix,
    NumericalFailureError,
    StokesVector,
    UnsupportedConfigurationError,
    backward_mueller,
    build_generator,
    double_pass,
    mueller_closed_form,
    mueller_exact,
    r_observable,
    r_scan,
)


def cp_transverse(r, s, t, b_frac):
    """CP parameter set with c = beta = 0, built from a PSD coefficient matrix.

    r, s, t are its diagonal and b = b_frac sqrt(r s), with |b_frac| < 1.
    """
    b = b_frac * math.sqrt(r * s)
    return DissipativeParams(a=s + t, b=b, c=0.0, alpha=r + t, beta=0.0, gamma=r + s)


def draw_cp_transverse(rng, rate_lo=0.05, rate_hi=1.5):
    return cp_transverse(*rng.uniform(rate_lo, rate_hi, size=3), rng.uniform(-0.8, 0.8))


RATE = st.floats(0.05, 1.5)
CP_TRANSVERSE = st.builds(cp_transverse, RATE, RATE, RATE, st.floats(-0.8, 0.8))


def osc_freq_sq(p, omega):
    return omega**2 - p.b**2 - 0.25 * (p.a - p.alpha) ** 2


def test_rotation_only():
    p = DissipativeParams(a=0.0, b=0.0, c=0.0, alpha=0.0, beta=0.0, gamma=0.0)
    for t in (0.0, 0.3, 1.7, 4.0):
        ang = 2.0 * 0.7 * t
        expected = np.array(
            [
                [math.cos(ang), -math.sin(ang), 0.0],
                [math.sin(ang), math.cos(ang), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(mueller_closed_form(p, 0.7, t).matrix, expected, atol=1e-14)
        gen = build_generator(p, (0.0, 0.0, 0.7))
        assert np.allclose(mueller_exact(gen, t).matrix, expected, atol=1e-13)


def test_dissipation_only():
    p = DissipativeParams(a=0.4, b=0.0, c=0.0, alpha=0.9, beta=0.0, gamma=0.25)
    for t in (0.0, 0.5, 2.0):
        expected = np.diag([math.exp(-2.0 * 0.4 * t), math.exp(-2.0 * 0.9 * t), math.exp(-2.0 * 0.25 * t)])
        assert np.allclose(mueller_closed_form(p, 0.0, t).matrix, expected, atol=1e-14)


def test_closed_vs_exact_oscillatory():
    rng = np.random.default_rng(808)
    times = np.linspace(0.05, 5.0, 10)
    seen = 0
    for _ in range(100):
        p = draw_cp_transverse(rng)
        omega = rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])
        if osc_freq_sq(p, omega) < 0.25:
            continue
        gen = build_generator(p, (0.0, 0.0, omega))
        for t in times:
            diff = mueller_closed_form(p, omega, t).matrix - mueller_exact(gen, t).matrix
            assert np.max(np.abs(diff)) < 1e-10
        seen += 1
    assert seen > 50


def test_closed_vs_exact_overdamped():
    rng = np.random.default_rng(809)
    times = np.linspace(0.05, 5.0, 10)
    seen = 0
    for _ in range(100):
        base = draw_cp_transverse(rng)
        p = replace(base, a=base.a + rng.uniform(2.0, 4.0))  # large a - alpha
        omega = rng.uniform(-0.3, 0.3)
        if osc_freq_sq(p, omega) > -0.25:
            continue
        gen = build_generator(p, (0.0, 0.0, omega))
        for t in times:
            diff = mueller_closed_form(p, omega, t).matrix - mueller_exact(gen, t).matrix
            assert np.max(np.abs(diff)) < 1e-10
        seen += 1
    assert seen > 50


def test_degenerate_branch_exact_zero():
    # omega^2 - b^2 - ((a - alpha)/2)^2 == 0 in floating point
    p = DissipativeParams(a=3.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=0.5)
    assert osc_freq_sq(p, 1.0) == 0.0
    gen = build_generator(p, (0.0, 0.0, 1.0))
    for t in (0.1, 0.9, 3.0):
        diff = mueller_closed_form(p, 1.0, t).matrix - mueller_exact(gen, t).matrix
        assert np.max(np.abs(diff)) < 1e-10


def test_branch_boundary_continuity():
    # accuracy must hold on both sides of the degenerate point
    p = DissipativeParams(a=3.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=0.5)
    for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-4):
        for omega in (1.0 - eps, 1.0 + eps):
            gen = build_generator(p, (0.0, 0.0, omega))
            for t in (0.5, 2.0):
                diff = mueller_closed_form(p, omega, t).matrix - mueller_exact(gen, t).matrix
                assert np.max(np.abs(diff)) < 1e-10


@settings(max_examples=200, deadline=None)
# |Omega| t on each side of the series switch at 1e-4, on both branches
@example(p=cp_transverse(0.3, 0.9, 0.5, 0.4), overdamped=False, size=0.5, omega_t=0.99e-4)
@example(p=cp_transverse(0.3, 0.9, 0.5, 0.4), overdamped=False, size=0.5, omega_t=1.01e-4)
@example(p=cp_transverse(0.3, 0.9, 0.5, 0.4), overdamped=True, size=0.5, omega_t=0.99e-4)
@example(p=cp_transverse(0.3, 0.9, 0.5, 0.4), overdamped=True, size=0.5, omega_t=1.01e-4)
@given(
    p=CP_TRANSVERSE,
    overdamped=st.booleans(),
    size=st.floats(0.1, 1.0),
    omega_t=st.floats(1e-6, 1e-3) | st.floats(0.05, 2.0),
)
def test_closed_form_matches_expm_on_both_branches(p, overdamped, size, omega_t):
    # Omega^2 = omega^2 - k with k = b^2 + (a - alpha)^2 / 4: omega picks the sign
    k = p.b**2 + 0.25 * (p.a - p.alpha) ** 2
    if overdamped:
        omega = math.sqrt((1.0 - size) * k)
    else:
        omega = math.sqrt(k + size)
    omega_sq = osc_freq_sq(p, omega)
    # k near 0 leaves no room below Omega^2 = 0, and t = omega_t / |Omega| unbounded
    assume(abs(omega_sq) >= 1e-2)
    assert (omega_sq < 0.0) == overdamped
    t = omega_t / math.sqrt(abs(omega_sq))
    diff = mueller_closed_form(p, omega, t).matrix - mueller_exact(
        build_generator(p, (0.0, 0.0, omega)), t).matrix
    assert np.max(np.abs(diff)) < (1e-12 if omega_t <= 1e-3 else 1e-10)


def test_small_time_series_branch():
    p = DissipativeParams(a=1.0, b=0.3, c=0.0, alpha=0.7, beta=0.0, gamma=0.5)
    omega = 0.55
    gen = build_generator(p, (0.0, 0.0, omega))
    for t in (1e-7, 1e-5):
        diff = mueller_closed_form(p, omega, t).matrix - mueller_exact(gen, t).matrix
        assert np.max(np.abs(diff)) < 1e-12


def test_closed_form_rejects_transverse_coupling():
    p = DissipativeParams(a=1.0, b=0.0, c=1e-6, alpha=1.0, beta=0.0, gamma=1.0)
    with pytest.raises(UnsupportedConfigurationError, match="mueller_exact"):
        mueller_closed_form(p, 1.0, 0.5)
    p2 = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=1e-6, gamma=1.0)
    with pytest.raises(UnsupportedConfigurationError, match="mueller_exact"):
        mueller_closed_form(p2, 1.0, 0.5)


def test_negative_time_rejected():
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    gen = build_generator(p, (0.0, 0.0, 1.0))
    with pytest.raises(InvalidInputError, match="non-negative"):
        mueller_exact(gen, -0.1)
    with pytest.raises(InvalidInputError, match="non-negative"):
        mueller_closed_form(p, 1.0, -0.1)


@pytest.mark.parametrize("t", [1e308, 400.0])
def test_exact_overflow_is_a_typed_error(t):
    # gamma < 0 is not CP: M33 = e^{2 t} overflows by t = 400
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=-1.0)
    gen = build_generator(p, (0.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no raw numpy warning first
        with pytest.raises(NumericalFailureError, match="not finite"):
            mueller_exact(gen, t)


NAN_TIME_CALLS = {
    "mueller_exact": lambda p, t: mueller_exact(build_generator(p, (0.0, 0.0, 1.0)), t),
    "mueller_closed_form": lambda p, t: mueller_closed_form(p, 1.0, t),
    "backward_mueller": lambda p, t: backward_mueller(p, 1.0, t),
    "double_pass": lambda p, t: double_pass(p, 1.0, t, StokesVector(1.0, 0.0, 0.0)),
    "r_observable": lambda p, t: r_observable(p, 1.0, t),
    "r_scan": lambda p, t: r_scan(p, 1.0, [0.5, t]),
}


@pytest.mark.parametrize("call", NAN_TIME_CALLS.values(), ids=NAN_TIME_CALLS)
def test_nan_time_rejected(call):
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    with pytest.raises(InvalidInputError, match="time"):
        call(p, math.nan)


NON_FINITE_OMEGA_CALLS = {
    "mueller_closed_form": lambda p, omega: mueller_closed_form(p, omega, 0.5),
    "backward_mueller": lambda p, omega: backward_mueller(p, omega, 0.5),
    "double_pass": lambda p, omega: double_pass(p, omega, 0.5, StokesVector(1.0, 0.0, 0.0)),
    "r_observable": lambda p, omega: r_observable(p, omega, 0.5),
    "r_scan": lambda p, omega: r_scan(p, omega, [0.5, 0.7]),
}


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
@pytest.mark.parametrize("call", NON_FINITE_OMEGA_CALLS.values(), ids=NON_FINITE_OMEGA_CALLS)
def test_non_finite_omega_rejected(call, omega):
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    with pytest.raises(InvalidInputError, match="^omega must be a finite number$"):
        call(p, omega)


@settings(max_examples=50, deadline=None)
@given(
    p=CP_TRANSVERSE,
    w=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    t=st.floats(0.05, 2.0),
    s=st.floats(0.05, 2.0),
)
def test_semigroup_property(p, w, t, s):
    gen = build_generator(p, w)
    combined = mueller_exact(gen, t + s)
    composed = mueller_exact(gen, t) @ mueller_exact(gen, s)
    assert np.allclose(combined.matrix, composed.matrix, atol=1e-10)


def test_backward_is_flipped_generator():
    # the mirror flips the precession and with it the sign of b
    rng = np.random.default_rng(901)
    for _ in range(30):
        p = draw_cp_transverse(rng)
        omega = rng.uniform(0.3, 2.5)
        t = rng.uniform(0.05, 2.0)
        flipped = build_generator(replace(p, b=-p.b), (0.0, 0.0, -omega))
        assert np.allclose(
            backward_mueller(p, omega, t).matrix,
            expm(-2.0 * t * flipped.matrix),
            atol=1e-10,
        )


def test_double_pass_zero_dissipation_is_identity():
    p = DissipativeParams(a=0.0, b=0.0, c=0.0, alpha=0.0, beta=0.0, gamma=0.0)
    s0 = StokesVector(0.4, -0.3, 0.5)
    for omega in (0.7, -1.9):
        out = double_pass(p, omega, 1.3, s0)
        assert np.allclose(out.as_array(), s0.as_array(), atol=1e-14)


def test_double_pass_pole_probe_decays_at_twice_gamma():
    rng = np.random.default_rng(902)
    probe = StokesVector(0.0, 0.0, 1.0)
    for _ in range(30):
        p = draw_cp_transverse(rng)
        omega = rng.uniform(0.3, 2.0)
        t = rng.uniform(0.1, 2.0)
        out = double_pass(p, omega, t, probe)
        assert abs(out.rho1) < 1e-14 and abs(out.rho2) < 1e-14
        assert abs(out.rho3 - math.exp(-4.0 * p.gamma * t)) < 1e-12


def test_double_pass_matches_exact_composition():
    rng = np.random.default_rng(903)
    for _ in range(50):
        p = draw_cp_transverse(rng)
        omega = rng.uniform(0.3, 2.5)
        t = rng.uniform(0.05, 2.0)
        s0 = rng.uniform(-0.55, 0.55, size=3)
        forward = build_generator(p, (0.0, 0.0, omega))
        backward = build_generator(replace(p, b=-p.b), (0.0, 0.0, -omega))
        expected = expm(-2.0 * t * backward.matrix) @ expm(-2.0 * t * forward.matrix) @ s0
        out = double_pass(p, omega, t, StokesVector.from_array(s0))
        assert np.allclose(out.as_array(), expected, atol=1e-10)


def test_double_pass_rejects_unphysical_input():
    p = DissipativeParams(a=0.1, b=0.0, c=0.0, alpha=0.1, beta=0.0, gamma=0.1)
    with pytest.raises(InvalidInputError, match="unit ball"):
        double_pass(p, 1.0, 0.5, StokesVector(1.5, 0.0, 0.0))


def test_long_time_depolarization():
    rng = np.random.default_rng(904)
    for _ in range(10):
        p = draw_cp_transverse(rng, rate_lo=0.2)
        rate = min(p.a, p.alpha, p.gamma)
        gen = build_generator(p, (0.0, 0.0, rng.uniform(0.5, 2.0)))
        m = mueller_exact(gen, 25.0 / rate)
        s = rng.uniform(-0.57, 0.57, size=3)
        assert np.linalg.norm(m.matrix @ s) < 1e-8


def test_mueller_matrix_plumbing():
    with pytest.raises(InvalidInputError, match="3x3"):
        MuellerMatrix(np.eye(2), 0.0)
    m = MuellerMatrix(np.diag([0.5, 0.5, 1.0]), 1.0)
    out = m.apply(StokesVector(0.2, -0.4, 0.6))
    assert np.allclose(out.as_array(), [0.1, -0.2, 0.6], atol=1e-15)
