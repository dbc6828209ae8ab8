"""Tests for the double-pass observable R(t) and relaxation-time bookkeeping."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from fiberpol import (
    DissipativeParams,
    InvalidInputError,
    NumericalFailureError,
    SingularConfigurationError,
    StokesVector,
    UnsupportedConfigurationError,
    backward_mueller,
    double_pass,
    mueller_closed_form,
    r_observable,
    r_scan,
    relaxation_times,
)


def draw_transverse(rng, cp_only=False):
    r, s, t = rng.uniform(0.05, 1.5, size=3)
    if not cp_only and rng.uniform() < 0.5:
        t = -rng.uniform(0.05, 1.5)  # violates positivity of the coefficient matrix
    b = rng.uniform(-0.8, 0.8) * math.sqrt(r * s)
    return DissipativeParams(a=s + t, b=b, c=0.0, alpha=r + t, beta=0.0, gamma=r + s)


def test_r_frozen_non_cp_value():
    # a + alpha - gamma = -1 < 0: the return signal exceeds 1
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=3.0)
    res = r_observable(p, 5.0, 0.2)
    assert abs(res.r_value - math.exp(0.4)) < 1e-12
    assert abs(res.r_closed - math.exp(0.4)) < 1e-15
    assert res.cp_verdict is False


def test_r_identity_over_draws():
    # R(t) collapses to exp(-2 (a + alpha - gamma) t) for the transverse family
    rng = np.random.default_rng(1212)
    checked = 0
    for _ in range(100):
        p = draw_transverse(rng)
        omega = rng.uniform(0.5, 3.0)
        for t in (0.17, 0.61):
            try:
                res = r_observable(p, omega, t)
            except SingularConfigurationError:
                continue
            expected = math.exp(-2.0 * (p.a + p.alpha - p.gamma) * t)
            assert abs(res.r_value - expected) < 1e-9
            assert res.cp_verdict == (res.r_value <= 1.0 + 1e-10)
            checked += 1
    assert checked > 150


def test_r_invariant_under_omega_sign():
    rng = np.random.default_rng(1313)
    for _ in range(30):
        p = draw_transverse(rng)
        omega = rng.uniform(0.5, 3.0)
        try:
            plus = r_observable(p, omega, 0.37)
            minus = r_observable(p, -omega, 0.37)
        except SingularConfigurationError:
            continue
        assert abs(plus.r_value - minus.r_value) < 1e-12


def test_r_requires_positive_time():
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
    with pytest.raises(InvalidInputError, match="^time must be positive$"):
        r_observable(p, 1.0, 0.0)


def test_singular_probe_time():
    # with b = 0 and a = alpha the oscillation frequency equals omega, so the
    # linear probe's second component vanishes at t = pi / (2 omega)
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=2.0)
    with pytest.raises(SingularConfigurationError, match="pick a time away"):
        r_observable(p, 1.0, math.pi / 2.0)


def test_r_scan_collects_singular_times():
    p = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=2.0)
    times = [0.3, math.pi / 2.0, 0.8]
    scan = r_scan(p, 1.0, times)
    assert list(scan.times) == [0.3, 0.8]
    assert list(scan.singular_times) == [math.pi / 2.0]
    for r_value, r_closed in zip(scan.r_value, scan.r_closed):
        assert abs(r_value - r_closed) < 1e-9


def test_overflow_is_a_numerical_failure_not_a_warning():
    # the backward propagator times the forward probe overflows; the suite
    # turns any RuntimeWarning on the way into a failure
    p = DissipativeParams(a=-345.0, b=0.0, c=0.0, alpha=-345.0, beta=0.0, gamma=0.0)
    with pytest.raises(NumericalFailureError, match="not finite"):
        r_observable(p, 1.0, 1.0)
    with pytest.raises(NumericalFailureError, match="not finite"):
        r_scan(p, 1.0, [1.0])


def test_relaxation_times_boundary_exact():
    # gamma = 2 alpha is exactly representable here, so equality must be
    # exact in floating point, not merely within a tolerance
    p = DissipativeParams(a=0.15, b=0.0, c=0.0, alpha=0.15, beta=0.0, gamma=0.3)
    rt = relaxation_times(p)
    assert rt.t1 == 1.0 / 0.3
    assert rt.t2 == 1.0 / 0.15
    assert 2.0 * rt.t1 == rt.t2
    assert rt.two_t1_geq_t2 is True

    just_over = replace(p, gamma=0.300001)
    assert relaxation_times(just_over).two_t1_geq_t2 is False

    just_under = replace(p, gamma=0.299999)
    assert relaxation_times(just_under).two_t1_geq_t2 is True


def test_relaxation_times_boundary_exact_for_many_alphas():
    rng = np.random.default_rng(1414)
    for _ in range(100):
        alpha = rng.uniform(0.01, 5.0)
        p = DissipativeParams(a=alpha, b=0.0, c=0.0, alpha=alpha, beta=0.0, gamma=2.0 * alpha)
        rt = relaxation_times(p)
        assert 2.0 * rt.t1 == rt.t2
        assert rt.two_t1_geq_t2


def test_relaxation_times_preconditions():
    asym = DissipativeParams(a=0.2, b=0.0, c=0.0, alpha=0.15, beta=0.0, gamma=0.3)
    with pytest.raises(UnsupportedConfigurationError, match="symmetric regime"):
        relaxation_times(asym)
    tilted = DissipativeParams(a=0.15, b=0.01, c=0.0, alpha=0.15, beta=0.0, gamma=0.3)
    with pytest.raises(UnsupportedConfigurationError, match="symmetric regime"):
        relaxation_times(tilted)
    nonpos = DissipativeParams(a=0.15, b=0.0, c=0.0, alpha=0.15, beta=0.0, gamma=-0.1)
    with pytest.raises(InvalidInputError):
        relaxation_times(nonpos)


def test_cp_family_never_exceeds_one():
    rng = np.random.default_rng(1515)
    checked = 0
    for _ in range(60):
        p = draw_transverse(rng, cp_only=True)
        omega = rng.uniform(0.5, 2.5)
        for t in (0.11, 0.43, 0.91):
            try:
                res = r_observable(p, omega, t)
            except SingularConfigurationError:
                continue
            assert res.r_value <= 1.0 + 1e-10
            assert res.cp_verdict
            checked += 1
    assert checked > 120


# The bits of the master route, pinned on three branches of the closed
# form: oscillatory, overdamped and degenerate (Omega = 0 exactly, which
# always takes the series).  The fourth set puts t = pi / 2 on a zero of
# the linear probe's second component, so the scan flags it.
GOLDEN_SETS = (
    (DissipativeParams(a=0.8, b=0.2, c=0.0, alpha=0.6, beta=0.0, gamma=2.5), 1.7),
    (DissipativeParams(a=2.0, b=0.9, c=0.0, alpha=0.3, beta=0.0, gamma=0.4), 0.5),
    (DissipativeParams(a=0.7, b=-0.4, c=0.0, alpha=0.7, beta=0.0, gamma=1.9), 0.4),
    (DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=2.0), 1.0),
)
GOLDEN_TIMES = (0.05, 0.3, 0.9, math.pi / 2.0, 2.2, 7.5)
GOLDEN_CLOSED_FORM_DIGEST = "888c6ee7f604f221c25cfaa32d9af956521260f2b673171fa55b0fbc8113f4bf"


def test_golden_closed_form_bits():
    s0 = StokesVector(0.6, -0.3, 0.5)
    blobs = []
    for p, omega in GOLDEN_SETS:
        scan = r_scan(p, omega, GOLDEN_TIMES)
        blobs += [
            np.array(scan.times),
            np.array(scan.r_value),
            np.array(scan.r_closed),
            np.array(scan.cp_verdict),
            np.array(scan.singular_times),
        ]
        for t in (0.0, *GOLDEN_TIMES):
            blobs += [
                np.array(mueller_closed_form(p, omega, t).matrix),
                np.array(backward_mueller(p, omega, t).matrix),
                np.array(double_pass(p, omega, t, s0).as_array()),
            ]
    digest = hashlib.sha256(b"".join(blob.tobytes() for blob in blobs)).hexdigest()
    assert scan.singular_times == (math.pi / 2.0,)
    assert digest == GOLDEN_CLOSED_FORM_DIGEST
