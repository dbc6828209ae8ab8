"""Tests for the stochastic-trajectory verification path."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberpol import montecarlo
from fiberpol import (
    FreePrecession,
    InvalidInputError,
    NoiseSpec,
    NumericalFailureError,
    StokesVector,
    TrajectoryConfig,
    UnsupportedConfigurationError,
    build_generator,
    c_matrix_closed,
    effective_hamiltonian,
    ensemble_average,
    evolve_trajectory,
    mc_double_pass,
    mc_vs_master_report,
    mueller_exact,
    ou_step,
    params_from_kossakowski,
    pauli_rotation,
    simplified_params,
)

# weak-coupling operating point shared by several tests: resonance weights
# far below the 0.01 guideline so ensemble means track the averaged dynamics
WEAK_LAM = (10.0, 10.0, 10.0)
WEAK_OMEGA0 = 1.0
WEAK_G = tuple(101.0 * w for w in (2e-5, 1e-5, 1.5e-5))


def master_curve(spec, fp, initial, times):
    params = params_from_kossakowski(c_matrix_closed(spec, fp).symmetric_part())
    gen = build_generator(params, effective_hamiltonian(spec, fp))
    s0 = np.asarray(initial, dtype=float)
    return np.stack([mueller_exact(gen, float(t)).matrix @ s0 for t in times])


def test_ou_step_zero_g_is_deterministic():
    f0 = np.array([0.3, -1.2, 4.0])
    noise = np.array([1.0, -2.0, 0.5])
    out = ou_step(f0, 0.0, 1.7, 0.25, noise, mean=0.4)
    d = np.exp(-1.7 * 0.25)
    expected = f0 * d + 0.4 * (1 - d)
    assert np.array_equal(out, expected)


def test_ou_step_validation():
    with pytest.raises(InvalidInputError, match="g must be non-negative"):
        ou_step(0.0, -1.0, 1.0, 0.1, 0.0)
    with pytest.raises(InvalidInputError, match="lam must be positive"):
        ou_step(0.0, 1.0, 0.0, 0.1, 0.0)
    with pytest.raises(InvalidInputError, match="dt must be positive"):
        ou_step(0.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError, match="g must be non-negative"):
        ou_step(0.0, math.nan, 1.0, 0.1, 0.5)
    with pytest.raises(InvalidInputError, match="g must be non-negative"):
        ou_step(0.0, [0.1, math.nan], 1.0, 0.1, 0.5)
    with pytest.raises(InvalidInputError, match="lam must be positive"):
        ou_step(0.0, 1.0, math.nan, 0.1, 0.5)
    # the rules of NoiseSpec and TrajectoryConfig: +-inf is refused too
    with pytest.raises(InvalidInputError, match="dt must be a finite number"):
        ou_step(0.0, 1.0, 1.0, math.inf, 0.5)
    with pytest.raises(InvalidInputError, match="g must be a finite number"):
        ou_step(0.0, [0.1, math.inf], 1.0, 0.1, 0.5)
    with pytest.raises(InvalidInputError, match="lam must be a finite number"):
        ou_step(0.0, 1.0, 10**400, 0.1, 0.5)
    with pytest.raises(InvalidInputError, match="mean must be a finite number"):
        ou_step(0.0, 1.0, 1.0, 0.1, 0.5, mean=math.nan)
    with pytest.raises(InvalidInputError, match="mean must be a finite number"):
        ou_step(0.0, 1.0, 1.0, 0.1, 0.5, mean=[0.0, -math.inf])


def test_ou_step_stationary_moments():
    # moment oracle: start 10^6 independent chains in the stationary law and
    # check mean, variance, and lag-1/lag-2 autocovariance after exact steps
    rng = np.random.default_rng(321)
    n = 1_000_000
    g, lam, mean = 2.0, 1.0, 0.7
    for lam_dt in (0.5, 3.0):
        dt = lam_dt / lam
        f0 = mean + math.sqrt(g) * rng.standard_normal(n)
        f1 = ou_step(f0, g, lam, dt, rng.standard_normal(n), mean=mean)
        f2 = ou_step(f1, g, lam, dt, rng.standard_normal(n), mean=mean)

        assert abs(np.mean(f1) - mean) < 5.0 * math.sqrt(g / n)

        sample_var = np.var(f1, ddof=1)
        assert abs(sample_var - g) < 5.0 * g * math.sqrt(2.0 / n)

        for lag_field, lag in ((f1, 1), (f2, 2)):
            cov = np.mean((f0 - mean) * (lag_field - mean))
            target = g * math.exp(-lam * lag * dt)
            se = math.sqrt((g**2 + target**2) / n)
            assert abs(cov - target) < 5.0 * se


def test_zero_noise_rotation_oracle():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=2.0, n=(0.6, 0.0, 0.8))
    initial = (0.3, -0.5, 0.6)
    cfg = TrajectoryConfig(dt=0.02, n_steps=400, n_traj=100, seed=5, initial=StokesVector(*initial))
    traj = evolve_trajectory(spec, fp, cfg, 0)
    r0 = np.array(initial)
    norm0 = np.linalg.norm(r0)
    for k in range(401):
        expected = pauli_rotation(fp, k * cfg.dt) @ r0
        assert np.allclose(traj[k], expected, atol=1e-10)
        assert abs(np.linalg.norm(traj[k]) - norm0) < 1e-12


def test_zero_noise_zero_omega_constant():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=0.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=50, n_traj=100, seed=1, initial=StokesVector(0.2, 0.1, -0.4))
    traj = evolve_trajectory(spec, fp, cfg, 3)
    assert np.array_equal(traj, np.tile([0.2, 0.1, -0.4], (51, 1)))


def test_purity_preserved_under_noise():
    spec = NoiseSpec(g=(0.1, 0.1, 0.1), lam=(2.0, 2.0, 2.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=500, n_traj=100, seed=9, initial=StokesVector(1.0, 0.0, 0.0))
    for idx in (0, 7):
        traj = evolve_trajectory(spec, fp, cfg, idx)
        norms = np.linalg.norm(traj, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_worker_count_does_not_change_results():
    spec = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=50, n_traj=512, seed=77, initial=StokesVector(1.0, 0.0, 0.0))
    one = ensemble_average(spec, fp, cfg, n_workers=1)
    three = ensemble_average(spec, fp, cfg, n_workers=3)
    assert np.array_equal(one.mean_stokes, three.mean_stokes)
    assert np.array_equal(one.stderr, three.stderr)


def test_single_trajectories_reproduce_ensemble_mean():
    spec = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=40, n_traj=128, seed=13, initial=StokesVector(1.0, 0.0, 0.0))
    stack = np.stack([evolve_trajectory(spec, fp, cfg, j) for j in range(cfg.n_traj)])
    ens = ensemble_average(spec, fp, cfg)
    assert np.allclose(stack.mean(axis=0), ens.mean_stokes, atol=1e-14, rtol=0.0)


def test_moments_match_exact_rational_moments():
    # two full blocks and a tail block; the first component starts at 1 and
    # spreads by about 4e-5 after one step, where rounded block means would
    # lose the stderr's last digits in the merge
    spec = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=10, n_traj=600, seed=3, initial=StokesVector(1.0, 0.0, 0.0))
    stack = np.stack([evolve_trajectory(spec, fp, cfg, j) for j in range(cfg.n_traj)])
    ens = ensemble_average(spec, fp, cfg)
    n = cfg.n_traj
    for row in range(1, cfg.n_steps + 1):  # row 0 has no spread
        for comp in range(3):
            xs = [Fraction(x) for x in stack[:, row, comp]]
            mean = sum(xs) / n
            stderr = math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1) / n)
            assert abs(Fraction(ens.mean_stokes[row, comp]) - mean) <= 1e-15
            assert abs(ens.stderr[row, comp] - stderr) <= 1e-14 * stderr
    assert not ens.stderr[0].any()


def test_zero_noise_ensemble_is_deterministic():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.5)
    cfg = TrajectoryConfig(dt=0.02, n_steps=100, n_traj=100, seed=3, initial=StokesVector(0.8, 0.0, 0.1))
    ens = ensemble_average(spec, fp, cfg)
    assert np.array_equal(ens.stderr, np.zeros_like(ens.stderr))
    single = evolve_trajectory(spec, fp, cfg, 0)
    assert np.array_equal(ens.mean_stokes, single)


def test_weak_coupling_matches_master():
    # ensemble means against the independently built averaged solution,
    # sampled away from both t = 0 and the probe-alignment angles
    spec = NoiseSpec(g=WEAK_G, lam=WEAK_LAM)
    fp = FreePrecession(omega0=WEAK_OMEGA0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=2000, seed=7, initial=StokesVector(1.0, 0.0, 0.0))
    ens = ensemble_average(spec, fp, cfg)
    ks = [int(round(x)) for x in np.linspace(600, 1350, 12)]
    master = master_curve(spec, fp, (1.0, 0.0, 0.0), ens.times[ks])
    z = (ens.mean_stokes[ks] - master) / ens.stderr[ks]
    assert np.max(np.abs(z)) < 5.0


def test_ensemble_mean_norm_is_physical():
    spec = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=200, n_traj=256, seed=21, initial=StokesVector(1.0, 0.0, 0.0))
    ens = ensemble_average(spec, fp, cfg)
    norms = np.linalg.norm(ens.mean_stokes, axis=1)
    assert np.max(norms) <= 1.0 + 3.0 * np.max(ens.stderr) + 1e-12


def test_report_zero_noise_all_z_zero():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=100, n_traj=100, seed=2, initial=StokesVector(1.0, 0.0, 0.0))
    report = mc_vs_master_report(spec, fp, cfg)
    assert np.array_equal(report.z, np.zeros_like(report.z))
    assert report.max_abs_z == 0.0
    assert report.frac_above_3 == 0.0


def test_report_weak_coupling_under_five_sigma():
    g = tuple(101.0 * w for w in (2e-7, 1e-7, 1.5e-7))
    spec = NoiseSpec(g=g, lam=WEAK_LAM)
    fp = FreePrecession(omega0=WEAK_OMEGA0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=10_000, seed=3, initial=StokesVector(1.0, 0.0, 0.0))
    report = mc_vs_master_report(spec, fp, cfg)
    assert report.max_abs_z < 5.0


def test_report_strong_coupling_flags_breakdown():
    # resonance weights of order one: the averaged description must fail,
    # and the report's job is to expose that, not hide it
    spec = NoiseSpec(g=(2.0, 2.0, 2.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.03, n_steps=100, n_traj=400, seed=17, initial=StokesVector(1.0, 0.0, 0.0))
    report = mc_vs_master_report(spec, fp, cfg)
    assert report.max_abs_z > 5.0
    assert report.frac_above_3 > 0.0


def test_double_pass_zero_noise_returns_initial():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.3)
    cfg = TrajectoryConfig(dt=0.01, n_steps=200, n_traj=100, seed=4, initial=StokesVector(0.7, -0.1, 0.2))
    ens = mc_double_pass(spec, fp, cfg)
    assert ens.mean_stokes.shape == (401, 3)
    assert np.allclose(ens.mean_stokes[-1], [0.7, -0.1, 0.2], atol=1e-12)
    # the row at the mirror is the one-way state
    oneway = pauli_rotation(fp, 200 * cfg.dt) @ np.array([0.7, -0.1, 0.2])
    assert np.allclose(ens.mean_stokes[200], oneway, atol=1e-10)


def test_double_pass_weak_noise_pole_decay():
    spec = NoiseSpec(g=WEAK_G, lam=WEAK_LAM)
    fp = FreePrecession(omega0=WEAK_OMEGA0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=2000, n_traj=500, seed=11, initial=StokesVector(0.0, 0.0, 1.0))
    ens = mc_double_pass(spec, fp, cfg)
    params, _ = simplified_params(spec, fp)
    predicted = math.exp(-4.0 * params.gamma * (cfg.n_steps * cfg.dt))
    assert abs(ens.mean_stokes[-1, 2] - predicted) <= 5.0 * ens.stderr[-1, 2]
    for i in (0, 1):
        assert abs(ens.mean_stokes[-1, i]) <= 5.0 * max(ens.stderr[-1, i], 1e-12)


# Pure dephasing: noise on axis 3 only and precession about axis 3, so each
# step turns s1 + i s2 by (omega0 + 2 F_3) dt and the phase is a Gaussian sum
# of the held OU values, an AR(1) sequence (Kubo, J. Phys. Soc. Jpn. 9, 935
# (1954); Anderson, ibid. 9, 316 (1954)).  The law below is the kernel's own,
# exact at any coupling and step, so only the ensemble's error remains.
# (G_3, lam_3) and steps; Lam_3 = G_3 / (lam_3^2 + omega0^2) at omega0 = 1
DEPHASING = {
    "Lam3=1e-4": ((0.0101, 10.0), 1500),
    "Lam3=0.0099": ((1.0, 10.0), 1500),
    # the noise outlives the flight (1 / lam_3 = 1 > n dt = 0.3), so a return
    # pass that went on with the forward field would show
    "Lam3=0.5": ((1.0, 1.0), 300),
    # sqrt(G_3) dt at the resolution limit: Lam3 = 1250, quasi-static noise
    "Lam3=1250": ((2500.0, 1.0), 100),
}
DEPHASING_SEEDS = (101, 202, 303)


def _dephasing_variance(k, g3, lam3, dt):
    """Var of the phase 2 dt (F_0 + ... + F_{k-1}) of k held stationary OU steps.

    4 dt^2 G_3 [k (1 + phi) / (1 - phi) - 2 phi (1 - phi^k) / (1 - phi)^2], phi = e^{-lam_3 dt}.
    """
    phi, gap = math.exp(-lam3 * dt), -math.expm1(-lam3 * dt)  # gap = 1 - phi
    k = np.asarray(k, dtype=float)
    tail = -np.expm1(-lam3 * dt * k)  # 1 - phi^k
    return 4.0 * dt**2 * g3 * (k * (1.0 + phi) / gap - 2.0 * phi * tail / gap**2)


def _dephasing_case(case, seed):
    (g3, lam3), n_steps = DEPHASING[case]
    spec = NoiseSpec(g=(0.0, 0.0, g3), lam=(lam3, lam3, lam3))
    cfg = TrajectoryConfig(dt=1e-3, n_steps=n_steps, n_traj=1024, seed=seed,
                           initial=StokesVector(1.0, 0.0, 0.0))
    variance = partial(_dephasing_variance, g3=g3, lam3=lam3, dt=cfg.dt)
    return spec, FreePrecession(omega0=1.0), cfg, variance


def _dephasing_z(ens, phase, variance):
    """z of the ensemble against s1 + i s2 = e^{i phase} e^{-variance / 2}, s3 = 0."""
    amplitude = np.exp(-0.5 * variance)
    exact = np.stack([np.cos(phase) * amplitude, np.sin(phase) * amplitude,
                      np.zeros_like(phase)], axis=1)
    return montecarlo._zscores(ens.mean_stokes - exact, ens.stderr)


@pytest.mark.parametrize("seed", DEPHASING_SEEDS)
@pytest.mark.parametrize("case", sorted(DEPHASING))
def test_pure_dephasing_matches_the_exact_law(case, seed):
    spec, fp, cfg, var = _dephasing_case(case, seed)
    k = np.arange(cfg.n_steps + 1)
    ens = ensemble_average(spec, fp, cfg)
    z = _dephasing_z(ens, fp.omega0 * cfg.dt * k, var(k))
    assert z[0].tolist() == [0.0, 0.0, 0.0]  # t = 0 is exact
    assert np.max(np.abs(z)) <= 5.0


@pytest.mark.parametrize("seed", DEPHASING_SEEDS)
@pytest.mark.parametrize("case", sorted(DEPHASING))
def test_pure_dephasing_round_trip_matches_the_exact_law(case, seed):
    # the mirror flips omega0 and the return pass is a fresh realization: at
    # return row k_b the phase is omega0 dt (n - k_b), the variance Var_n + Var_{k_b}
    spec, fp, cfg, var = _dephasing_case(case, seed)
    n = cfg.n_steps
    k = np.arange(2 * n + 1)
    back = np.maximum(k - n, 0)
    ens = mc_double_pass(spec, fp, cfg)
    z = _dephasing_z(ens, fp.omega0 * cfg.dt * np.minimum(k, 2 * n - k),
                     var(np.minimum(k, n)) + var(back))
    assert z[0].tolist() == [0.0, 0.0, 0.0]
    assert np.max(np.abs(z)) <= 5.0


def test_double_pass_guards():
    cfg = TrajectoryConfig(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    tilted = FreePrecession(omega0=1.0, n=(1.0, 0.0, 0.0))
    with pytest.raises(UnsupportedConfigurationError, match="circular axis"):
        mc_double_pass(NoiseSpec(g=(0.1, 0.1, 0.1), lam=(1.0, 1.0, 1.0)), tilted, cfg)
    biased = NoiseSpec(g=(0.1, 0.1, 0.1), lam=(1.0, 1.0, 1.0), mean=(0.05, 0.0, 0.0))
    with pytest.raises(UnsupportedConfigurationError, match="zero-mean"):
        mc_double_pass(biased, FreePrecession(omega0=1.0), cfg)


def test_config_validation_messages():
    good = dict(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match="dt must be positive"):
        TrajectoryConfig(**{**good, "dt": 0.0})
    with pytest.raises(InvalidInputError, match="n_steps"):
        TrajectoryConfig(**{**good, "n_steps": 0})
    with pytest.raises(InvalidInputError, match="n_traj must be at least 100"):
        TrajectoryConfig(**{**good, "n_traj": 99})
    with pytest.raises(InvalidInputError, match="64 bits"):
        TrajectoryConfig(**{**good, "seed": 2**64})
    with pytest.raises(InvalidInputError, match="64 bits"):
        TrajectoryConfig(**{**good, "seed": -1})
    with pytest.raises(InvalidInputError, match="unit ball"):
        TrajectoryConfig(**{**good, "initial": StokesVector(1.1, 0.0, 0.0)})


@pytest.mark.parametrize("name", ["n_steps", "n_traj", "seed"])
@pytest.mark.parametrize("value", [1.7, 100.9, 200.0, math.nan, math.inf, "100", None])
def test_config_sizes_must_be_integers(name, value):
    good = dict(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
        TrajectoryConfig(**{**good, name: value})
    cfg = TrajectoryConfig(**{**good, name: np.int64(good[name])})
    assert type(getattr(cfg, name)) is int


def test_resolution_guard():
    cfg = TrajectoryConfig(dt=1e-3, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    fast = NoiseSpec(g=(1.0, 1.0, 1.0), lam=(100.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    with pytest.raises(InvalidInputError, match="smaller dt"):
        ensemble_average(fast, fp, cfg)
    # a large mean-square strength also counts as a fast scale
    strong = NoiseSpec(g=(4000.0, 1.0, 1.0), lam=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidInputError, match="smaller dt"):
        evolve_trajectory(strong, fp, cfg, 0)


def test_trajectory_index_bounds():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match="traj_index"):
        evolve_trajectory(spec, fp, cfg, -1)
    with pytest.raises(InvalidInputError, match="traj_index"):
        evolve_trajectory(spec, fp, cfg, 100)
    # a float, even 1.0, is refused rather than truncated
    for bad in (1.5, 1.0, math.nan, "1", None):
        with pytest.raises(InvalidInputError, match="traj_index"):
            evolve_trajectory(spec, fp, cfg, bad)


def test_trajectory_memory_cap(monkeypatch):
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    # 11 rows of 3 float64 components
    monkeypatch.setattr(montecarlo, "_MAX_MOMENT_BYTES", 11 * 3 * 8)
    assert evolve_trajectory(spec, fp, cfg, 0).shape == (11, 3)
    monkeypatch.setattr(montecarlo, "_MAX_MOMENT_BYTES", 11 * 3 * 8 - 1)
    # refused before the kernel starts, so before anything is allocated
    monkeypatch.setattr(montecarlo, "_propagate", None)
    with pytest.raises(InvalidInputError, match="10 steps would take more than"):
        evolve_trajectory(spec, fp, cfg, 0)


def test_workers_validation():
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0))
    fp = FreePrecession(omega0=1.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=10, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    for bad in (0, 1.5, 2.0, math.nan, "2", None):
        with pytest.raises(InvalidInputError, match="n_workers"):
            ensemble_average(spec, fp, cfg, n_workers=bad)


def test_non_finite_trajectory_is_a_typed_error():
    # |F| = 1e200 overflows |v|^2: every row after row 0 is NaN
    spec = NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0), mean=(1e200, 0.0, 0.0))
    fp = FreePrecession(omega0=0.0)
    cfg = TrajectoryConfig(dt=0.01, n_steps=3, n_traj=100, seed=1, initial=StokesVector(1.0, 0.0, 0.0))
    calls = (evolve_trajectory, lambda *args: ensemble_average(*args[:3]),
             lambda *args: mc_vs_master_report(*args[:3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no raw numpy warning first
        for call in calls:
            with pytest.raises(NumericalFailureError, match=r"not finite at t = 0\.01$"):
                call(spec, fp, cfg, 0)


# Process-split tests fake the affinity mask with at most as many CPUs as
# the host has, so no test starts more processes than there are CPUs.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_two_cpus = pytest.mark.skipif(CPUS < 2 or not CAN_FORK,
                                    reason="the process split needs fork and two CPUs")
SPLIT_SPEC = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
SPLIT_FP = FreePrecession(omega0=1.0)
# 600 trajectories: three blocks, so up to three shares
SPLIT_CFG = TrajectoryConfig(dt=0.01, n_steps=30, n_traj=600, seed=41,
                             initial=StokesVector(0.3, -0.5, 0.6))


def _count_starts(mp):
    """Spy on every process start; the returned list grows by one per start."""
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def spy(process):
        starts.append(process)
        return start(process)

    mp.setattr(multiprocessing.process.BaseProcess, "start", spy)
    return starts


def _fake_cpus(mp, n):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_one_cpu_starts_no_child(monkeypatch):
    starts = _count_starts(monkeypatch)
    _fake_cpus(monkeypatch, 1)
    serial = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, n_workers=3)
    assert starts == []
    monkeypatch.undo()
    assert np.array_equal(serial.mean_stokes,
                          ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG).mean_stokes)


def test_without_fork_the_caller_runs_every_block(monkeypatch):
    starts = _count_starts(monkeypatch)
    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    serial = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, n_workers=3)
    assert starts == []
    monkeypatch.undo()
    assert np.array_equal(serial.mean_stokes,
                          ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG).mean_stokes)


@needs_two_cpus
def test_worker_count_is_capped_by_the_cpus(monkeypatch):
    starts = _count_starts(monkeypatch)
    _fake_cpus(monkeypatch, 2)
    split = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, n_workers=10**6)
    assert len(starts) == 1
    assert multiprocessing.active_children() == []
    serial = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG)
    assert np.array_equal(split.mean_stokes, serial.mean_stokes)
    assert np.array_equal(split.stderr, serial.stderr)


@needs_two_cpus
@pytest.mark.parametrize("failing, expected, message", [
    pytest.param("parent", RuntimeError, "injected failure", id="parent"),
    # a child that raises ends with exit code 1; one that dies keeps its own code
    pytest.param("child-raises", NumericalFailureError,
                 r"^an ensemble worker failed \(exit code 1\)$", id="child-raises"),
    pytest.param("child-exits", NumericalFailureError,
                 r"^an ensemble worker failed \(exit code 7\)$", id="child-exits"),
])
def test_no_process_outlives_a_failed_call(monkeypatch, capfd, failing, expected, message):
    group_moments = montecarlo._group_moments

    def flaky(spec, fp, cfg, j0, *args):
        # the parent computes the first share, which starts at trajectory 0
        if (j0 > 0) == failing.startswith("child"):
            if failing == "child-exits":
                os._exit(7)
            raise RuntimeError("injected failure")
        return group_moments(spec, fp, cfg, j0, *args)

    monkeypatch.setattr(montecarlo, "_group_moments", flaky)
    _fake_cpus(monkeypatch, 2)
    with pytest.raises(expected, match=message):
        ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, n_workers=2)
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""  # no child traceback


def _src_env(**extra):
    """This process's environment plus extra, with the checkout's src first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return [int(p) for p in f.read().split()]


def _running(pid):
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_two_cpus
@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_a_killed_caller_leaves_no_worker(tmp_path):
    # 512 trajectories are two blocks, one per process; 20,000 steps keep
    # 1.4 MB of moments per block, far more than a pipe buffer holds
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mode": "montecarlo", "noise": {"g": [0.05, 0.02, 0.04], "lam": [2, 2, 2]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 20_000, "n_traj": 512, "seed": 3}}))
    caller = subprocess.Popen([sys.executable, "-m", "fiberpol.cli", "--config", str(config)],
                              stdout=subprocess.DEVNULL, env=_src_env())
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers and caller.poll() is None and time.monotonic() < deadline:
            workers = _children(caller.pid)
            time.sleep(0.01)
        assert workers, "the caller forked no worker"
        caller.kill()
        caller.wait()
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers)), "a worker outlived its killed caller"
    finally:
        caller.kill()
        caller.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_work_caps():
    cfg = TrajectoryConfig(dt=1e-3, n_steps=10**10, n_traj=100, seed=1,
                           initial=StokesVector(1.0, 0.0, 0.0))
    with pytest.raises(InvalidInputError, match=r"n_traj \* n_steps"):
        ensemble_average(SPLIT_SPEC, SPLIT_FP, cfg)
    with pytest.MonkeyPatch.context() as mp:
        # 600 trajectories are three blocks; each holds 31 rows of 3 components
        # in three float64 arrays: first trajectory, shift, squared deviations
        mp.setattr(montecarlo, "_MAX_MOMENT_BYTES", 31 * 3 * 8 * 3 * 3 - 1)
        with pytest.raises(InvalidInputError, match="block moments"):
            ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG)
        mp.setattr(montecarlo, "_MAX_MOMENT_BYTES", 31 * 3 * 8 * 3 * 3)
        ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG)
        mp.setattr(montecarlo, "_MAX_MOMENT_BYTES", 31 * 3 * 8 * 3 * 3 - 1)
        # the cap counts kept rows only
        ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, rows=[0, 30])
        # a round trip takes twice the steps of the one-way run
        mp.setattr(montecarlo, "_MAX_TRAJ_STEPS", 600 * 60 - 1)
        ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, rows=[0])
        with pytest.raises(InvalidInputError, match="doubled for a round trip"):
            mc_double_pass(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG)


def test_kept_rows_match_the_full_run():
    full = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG)
    rows = [0, 1, 7, 29, 30]
    kept = ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, rows=rows)
    assert np.array_equal(kept.times, full.times[rows])
    assert np.array_equal(kept.mean_stokes, full.mean_stokes[rows])
    assert np.array_equal(kept.stderr, full.stderr[rows])
    # unsigned rows too: np.diff of a decreasing uint64 array wraps to a positive step
    for bad in ([], [3, 3], [5, 2], np.array([5, 2], dtype=np.uint64), [0, 31], [-1, 2],
                [0.0, 1.0], [[0, 1]]):
        with pytest.raises(InvalidInputError, match="rows must be increasing"):
            ensemble_average(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, rows=bad)


def _stream(spec, fp, cfg, j0, j1, round_trip):
    """Copies of every state the kernel yields, taken before it goes on."""
    return [state.copy() for state in montecarlo._propagate(spec, fp, cfg, j0, j1, round_trip)]


@settings(max_examples=40, deadline=None)
# row 0, the mirror row 9 and its neighbours, and the last row, in two batches
@example(n_steps=9, round_trip=True, chunk=2, slots=3, picks={0, 8, 9, 10, 18}, n_traj=300,
         seed=3)
# neither row 0 nor the last row: a two-row batch, twelve times
@example(n_steps=12, round_trip=True, chunk=1, slots=2, picks=set(range(1, 24)), n_traj=300,
         seed=2**64 - 1)
# a one-row batch, one Welford pass per kept row
@example(n_steps=6, round_trip=True, chunk=2, slots=1, picks={0, 5, 6, 12}, n_traj=100, seed=5)
# one kept row, at either end of the run
@example(n_steps=7, round_trip=False, chunk=5, slots=2, picks={7}, n_traj=512, seed=11)
@example(n_steps=11, round_trip=False, chunk=3, slots=5, picks={0}, n_traj=300, seed=12)
@given(
    n_steps=st.integers(1, 12),
    round_trip=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 5]),
    slots=st.sampled_from([1, 2, 3, 5]),
    picks=st.sets(st.integers(0, 24), min_size=1),
    # one short block alone, a full block and a short one, two full blocks
    n_traj=st.sampled_from([100, 300, 512]),
    seed=st.integers(0, 2**64 - 1),
)
def test_kept_row_stream_matches_the_full_run(n_steps, round_trip, chunk, slots, picks, n_traj,
                                              seed):
    spec, fp = SPLIT_CASES["axis3" if round_trip else "off-axis-biased"]
    cfg = TrajectoryConfig(dt=0.01, n_steps=n_steps, n_traj=n_traj, seed=seed,
                           initial=StokesVector(0.3, -0.5, 0.6))
    n_rows = 2 * n_steps + 1 if round_trip else n_steps + 1
    rows = sorted({r % n_rows for r in picks})
    full = montecarlo._ensemble(spec, fp, cfg, round_trip, 1)
    # trajectories 250-261 straddle the first block boundary: two streams
    states = _stream(spec, fp, cfg, 250, 262, round_trip)
    propagate, asked = montecarlo._propagate, []

    def counted(*args):
        for row, state in enumerate(propagate(*args)):
            asked.append(row)
            yield state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_CHUNK", chunk)
        mp.setattr(montecarlo, "_KEPT_SLOTS", slots)
        chunked = _stream(spec, fp, cfg, 250, 262, round_trip)
        mp.setattr(montecarlo, "_propagate", counted)
        kept = montecarlo._ensemble(spec, fp, cfg, round_trip, 1, rows=np.array(rows))
    # the kernel yields every row whatever the chunk; the moments keep some
    # of them and stop the stream (one group here) at the last kept row
    assert len(states) == n_rows
    assert np.array_equal(np.stack(chunked), np.stack(states))
    assert asked == list(range(rows[-1] + 1))
    assert np.array_equal(kept.times, full.times[rows])
    assert np.array_equal(kept.mean_stokes, full.mean_stokes[rows])
    assert np.array_equal(kept.stderr, full.stderr[rows])


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _ulps(a: float, b: float) -> int:
    """Distance between two finite float64 values in units in the last place."""
    ordered = [i if i >= 0 else -2**63 - i for i in (int(np.float64(x).view(np.int64))
                                                      for x in (a, b))]
    return abs(ordered[0] - ordered[1])


def _check_golden(expected, pinned, **arrays):
    """Assert the digest of arrays; on a mismatch, name the first pinned value that differs.

    pinned maps (array name, row) to the row's float.hex values, so a failure
    reads as a one-ulp host difference or as a real regression.
    """
    if _digest(*arrays.values()) == expected:
        return
    for (name, row), values in pinned.items():
        for component, want in enumerate(values):
            got = float(arrays[name][row, component])
            if got.hex() != want:
                pytest.fail(f"{name}[{row % len(arrays[name])}, {component}] is {got.hex()}, "
                            f"pinned {want}: {_ulps(got, float.fromhex(want))} ulps apart")
    pytest.fail("the digest differs, though every pinned value matches")


def test_a_golden_mismatch_names_the_value_and_its_ulps():
    mean = np.array([[1.0, 0.0, 0.0], [0.5, -0.25, 0.125]])
    pinned = {("mean", 0): ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
              ("mean", -1): ("0x1.0000000000000p-1", "-0x1.0000000000000p-2",
                             "0x1.0000000000000p-3")}
    _check_golden(_digest(mean), pinned, mean=mean)
    mean[1, 1] = np.nextafter(np.nextafter(-0.25, 0.0), 0.0)
    with pytest.raises(pytest.fail.Exception,
                       match=r"^mean\[1, 1\] is -0x1.ffffffffffffep-3, pinned -0x1.0000000000000p-2: "
                             r"2 ulps apart$"):
        _check_golden(_digest(np.zeros(1)), pinned, mean=mean)
    with pytest.raises(pytest.fail.Exception, match="every pinned value matches"):
        _check_golden(_digest(np.zeros(1)), {}, mean=mean)


# SHA-256 of the little-endian float64 bytes of mean_stokes then stderr, pinned
# on one SFC64 stream per 128-trajectory stripe, seeded SeedSequence([seed,
# stripe]) and drawn step-major at the stripe's full width, on the OU update
# of v = F + axis, on the shifted two-pass 256-trajectory block moments and on
# the OU decay taken by math.exp: a kernel rewrite that keeps that draw order
# must keep them.  Beside each digest, the float.hex values of the first and
# last rows of mean_stokes and the last row of stderr.
GOLDEN_ENSEMBLES = {
    # 2600 = 10 full blocks + a 40-trajectory tail, wider than one group
    "tail-block-above-group": (
        ensemble_average,
        dict(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0)),
        dict(omega0=1.0),
        dict(dt=0.01, n_steps=20, n_traj=2600, seed=31, initial=(1.0, 0.0, 0.0)),
        1,
        "77ec4d329b800b2b8ee59027bae033bd0a3e63711d8ec3f70a5242f21c7987c3",
        (("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
         ("0x1.f38c0850f97b0p-1", "0x1.97c3436cbe18ep-3", "-0x1.dbc2361a1b580p-12"),
         ("0x1.3d9e9fb855a20p-12", "0x1.769ff950c729ep-10", "0x1.1334b1683b0c9p-10")),
    ),
    # 777 steps end in a partial draw chunk; 300 trajectories leave a tail block
    "partial-chunk": (
        ensemble_average,
        dict(g=(0.05, 0.02, 0.04), lam=(2.0, 3.0, 2.5)),
        dict(omega0=1.0),
        dict(dt=0.01, n_steps=777, n_traj=300, seed=5, initial=(0.6, 0.0, 0.8)),
        2,
        "28269b60d1eab41623189138f3e958eaf2e1c205740c2a80c4d8d1d6b3932275",
        (("0x1.3333333333333p-1", "0x0.0p+0", "0x1.999999999999ap-1"),
         ("-0x1.3d84880162730p-5", "0x1.ea8a732bc031ap-3", "0x1.864f2e2fdfd90p-2"),
         ("0x1.fcc9e131dd7cdp-6", "0x1.e83f9f17b7125p-6", "0x1.d2165a8592ffbp-6")),
    ),
    "off-axis-biased": (
        ensemble_average,
        dict(g=(0.04, 0.03, 0.02), lam=(1.5, 2.0, 2.5), mean=(0.3, -0.2, 0.1)),
        dict(omega0=1.7, n=(0.6, 0.0, 0.8)),
        dict(dt=0.005, n_steps=150, n_traj=400, seed=2**63 + 11, initial=(0.3, -0.5, 0.6)),
        1,
        "5e2cd61b04627bd9fa6b75eb82cacc4841bf906ca63cb84d5d9e3dd0a6cda66d",
        (("0x1.3333333333333p-2", "-0x1.0000000000000p-1", "0x1.3333333333333p-1"),
         ("0x1.7baeb9f1b1707p-1", "-0x1.14adaac3c54d7p-2", "0x1.565ccc2de693fp-3"),
         ("0x1.d5a5ee2368b1ap-9", "0x1.c70931f9c5c8cp-8", "0x1.022dc3dee26b0p-7")),
    ),
    "round-trip": (
        mc_double_pass,
        dict(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0)),
        dict(omega0=1.3),
        dict(dt=0.01, n_steps=130, n_traj=300, seed=19, initial=(0.0, 0.0, 1.0)),
        3,
        "01442ba6e7a9c94b64eec0ba31367f6f18bdcba9803395409851ad15cb8bb1f4",
        (("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
         ("-0x1.1af2951df66d0p-5", "-0x1.c7e586808cf00p-9", "0x1.99f5173cdfdbbp-1"),
         ("0x1.8055923afecc6p-6", "0x1.7adb6f64dd7b4p-6", "0x1.59a7a05c4584ep-7")),
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ENSEMBLES))
def test_golden_ensemble_bits(case):
    runner, noise, precession, traj, n_workers, expected, rows = GOLDEN_ENSEMBLES[case]
    cfg = TrajectoryConfig(**{**traj, "initial": StokesVector(*traj["initial"])})
    ens = runner(NoiseSpec(**noise), FreePrecession(**precession), cfg, n_workers=n_workers)
    pinned = dict(zip((("mean_stokes", 0), ("mean_stokes", -1), ("stderr", -1)), rows))
    _check_golden(expected, pinned, mean_stokes=ens.mean_stokes, stderr=ens.stderr)


def test_golden_trajectory_bits():
    spec = NoiseSpec(g=(0.04, 0.03, 0.02), lam=(1.5, 2.0, 2.5), mean=(0.3, -0.2, 0.1))
    fp = FreePrecession(omega0=1.7, n=(0.6, 0.0, 0.8))
    cfg = TrajectoryConfig(dt=0.005, n_steps=150, n_traj=400, seed=2**63 + 11,
                           initial=StokesVector(0.3, -0.5, 0.6))
    expected = "10b18d16a82502c3cf75a6ce7e91e7a40c6e146350af696a5941046cd705a1d1"
    pinned = {("rows", 0): ("0x1.3333333333333p-2", "-0x1.0000000000000p-1",
                            "0x1.3333333333333p-1"),
              ("rows", -1): ("0x1.5ee90940681d7p-1", "-0x1.89d107749a4d1p-3",
                             "0x1.c232ac8851126p-2")}
    _check_golden(expected, pinned, rows=evolve_trajectory(spec, fp, cfg, 257))


def test_stochastic_goldens_hold_on_the_avx2_loops():
    # numpy picks its ufunc loops by CPU at import; with its AVX-512 loops
    # disabled, a child runs the stochastic goldens on the loops a host without
    # AVX-512 takes, and must read the same pinned digests
    tests = os.path.dirname(os.path.abspath(__file__))
    env = _src_env(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    ids = [os.path.join(tests, f"test_montecarlo.py::{name}")
           for name in ("test_golden_ensemble_bits", "test_golden_trajectory_bits")]
    ids.append(os.path.join(tests, "test_cli.py::test_golden_cli_bytes"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:]


def test_a_stripe_divides_the_moment_block():
    assert montecarlo._BLOCK % montecarlo._STRIPE == 0


@pytest.mark.parametrize("round_trip", [False, True])
def test_a_partial_block_draws_the_whole_stripe_stream(round_trip):
    # trajectories 256-299 are the 44-trajectory tail of n_traj = 300; drawn
    # alone, they must match the first 44 columns of stripe [256, 384) drawn
    # at its full width
    tail = _stream(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, 256, 300, round_trip)
    full = _stream(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, 256, 256 + montecarlo._STRIPE, round_trip)
    assert len(tail) == len(full)
    assert all(np.array_equal(a, b[:, :44]) for a, b in zip(tail, full))


def test_a_trajectory_does_not_depend_on_n_traj():
    # trajectory 257 drawn alone at n_traj = 600 is column 1 of the 44-trajectory
    # tail [256, 300) of n_traj = 300
    alone = evolve_trajectory(SPLIT_SPEC, SPLIT_FP, SPLIT_CFG, 257)
    tail = _stream(SPLIT_SPEC, SPLIT_FP, dataclasses.replace(SPLIT_CFG, n_traj=300), 256, 300, False)
    assert np.array_equal(alone, np.array([state[:, 1] for state in tail]))


def test_one_stream_per_stripe(monkeypatch):
    stripe_rng, stripes = montecarlo._stripe_rng, []

    def counted(seed, stripe):
        stripes.append(stripe)
        return stripe_rng(seed, stripe)

    monkeypatch.setattr(montecarlo, "_stripe_rng", counted)
    cfg = TrajectoryConfig(dt=0.01, n_steps=2, n_traj=4096, seed=3,
                           initial=StokesVector(1.0, 0.0, 0.0))
    ensemble_average(SPLIT_SPEC, SPLIT_FP, cfg, n_workers=1)
    assert stripes == list(range(32))


def test_a_wide_group_holds_its_draw_chunk_in_a_few_megabytes():
    # mc-wide's compare run: one group of 2048 trajectories, 1000 steps and the
    # report's 20 kept rows.  The bound holds 16-step draw chunks (0.79 MB of
    # kicks) and refuses 128-step ones (6.3 MB)
    spec, fp = NoiseSpec(g=WEAK_G, lam=WEAK_LAM), FreePrecession(omega0=WEAK_OMEGA0)
    cfg = TrajectoryConfig(dt=1e-3, n_steps=1000, n_traj=4096, seed=5,
                           initial=StokesVector(1.0, 0.0, 0.0))
    keep = np.unique(np.round(np.linspace(0, cfg.n_steps, montecarlo._REPORT_ROWS)).astype(int))
    assert len(keep) == 20
    width = montecarlo._GROUP_BLOCKS * montecarlo._BLOCK
    assert width == 2048
    tracemalloc.start()
    try:
        out = np.empty((3, montecarlo._GROUP_BLOCKS, len(keep), 3))
        montecarlo._group_moments(spec, fp, cfg, 0, width, False, keep, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"traced peak {peak / 1e6:.2f} MB"


SPLIT_CASES = {
    "axis3": (NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0)), FreePrecession(omega0=1.0)),
    "off-axis-biased": (
        NoiseSpec(g=(0.04, 0.03, 0.02), lam=(1.5, 2.0, 2.5), mean=(0.3, -0.2, 0.1)),
        FreePrecession(omega0=1.7, n=(0.6, 0.0, 0.8)),
    ),
}


@settings(max_examples=12, deadline=None)
# two workers over three blocks: the fork path, whatever hypothesis draws
@example(n_traj=700, n_steps=9, n_workers=2, group_blocks=1, chunk=4, case="axis3",
         round_trip=True, seed=3)
@example(n_traj=513, n_steps=5, n_workers=3, group_blocks=3, chunk=9, case="off-axis-biased",
         round_trip=False, seed=2**64 - 1)
@given(
    n_traj=st.integers(100, 700),
    n_steps=st.integers(1, 70),
    n_workers=st.integers(1, 3),
    group_blocks=st.integers(1, 3),
    chunk=st.integers(1, 9),
    case=st.sampled_from(sorted(SPLIT_CASES)),
    round_trip=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_moments_do_not_depend_on_split(n_traj, n_steps, n_workers, group_blocks, chunk,
                                        case, round_trip, seed):
    spec, fp = SPLIT_CASES[case]
    round_trip = round_trip and case == "axis3"
    runner = mc_double_pass if round_trip else ensemble_average
    cfg = TrajectoryConfig(dt=0.01, n_steps=n_steps, n_traj=n_traj, seed=seed,
                           initial=StokesVector(0.3, -0.5, 0.6))
    reference = runner(spec, fp, cfg)
    edge_rows = [evolve_trajectory(spec, fp, cfg, j) for j in (0, n_traj - 1)]

    # narrow groups and short draw chunks split the same trajectories differently
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_GROUP_BLOCKS", group_blocks)
        mp.setattr(montecarlo, "_CHUNK", chunk)
        starts = _count_starts(mp)
        split = runner(spec, fp, cfg, n_workers=n_workers)
        stack = np.stack([evolve_trajectory(spec, fp, cfg, j) for j in range(n_traj)])

    # every process beyond the caller is one forked child
    processes = min(n_workers, CPUS, math.ceil(n_traj / montecarlo._BLOCK))
    assert len(starts) == (processes - 1 if CAN_FORK else 0)
    assert multiprocessing.active_children() == []

    assert np.array_equal(split.mean_stokes, reference.mean_stokes)
    assert np.array_equal(split.stderr, reference.stderr)
    assert np.array_equal(stack[0], edge_rows[0])
    assert np.array_equal(stack[-1], edge_rows[1])
    norms = np.linalg.norm(stack, axis=2)
    assert np.max(np.abs(norms - np.linalg.norm([0.3, -0.5, 0.6]))) < 1e-12
    if not round_trip:
        assert np.allclose(stack.mean(axis=0), reference.mean_stokes, atol=1e-14, rtol=0.0)
