"""Brute-force stochastic-trajectory cross-check of the averaged dynamics.

Instead of averaging the noise analytically, this module simulates it:
each trajectory carries an independent Ornstein-Uhlenbeck realization
of the random field F(t), held piecewise constant over each dt step
(sampled at the step start), and the polarization is conjugated by the
exact step unitary U = exp(-i (H0 + F . sigma) dt).  For a traceless
Hermitian generator that conjugation is, on the Bloch vector, the
Rodrigues rotation about v = (omega0 / 2) n + F by the angle 2 |v| dt,
so every trajectory stays exactly pure and the only approximations are
the step discretization of F and the finite ensemble.  Ensemble means
converge to the master-equation solution in the weak-coupling regime
(operationally, resonance weights Lam_i of order 0.01 or below).

Determinism contract
--------------------
Trajectory j draws all of its normals from the SFC64 stream of its stripe,
seeded SeedSequence([seed, j // _STRIPE]) and always drawn at the stripe's
full width, so they depend on (seed, j) alone: not on n_traj, the worker
count, the group width or the draw chunk.  Moments are taken in blocks of
_BLOCK trajectories by a shifted two-pass: the deviations from the block's
first trajectory are summed into the mean, and the squared deviations from
that mean into the second moment, each sum in numpy's pairwise order over
the block's contiguous columns.  Blocks are merged in block order, their
means taken less the run's first trajectory.  The bits rest on that fixed
order alone, so ensemble means and standard errors are bit-identical at a
fixed seed.  Every deviation among identical trajectories is exactly zero,
so is their variance, which the zero-noise limit relies on.

The propagation width is decoupled from the moment block: a group of
up to _GROUP_BLOCKS blocks is advanced side by side in component-major
(3, width) arrays.  The run's short last block rides in the last group:
alone, it would pay the per-step overhead of a whole group.  Every step
applies the same elementwise operations in the same order whatever the
width, so the states, and hence the moments, carry the same bits as a
block-at-a-time or one-trajectory-at-a-time run.

The blocks are cut into min(n_workers, CPUs, blocks) contiguous shares of
near-equal size, CPUs being those in the process's affinity mask.  The
calling process computes the first share, one forked process computes
each of the others and sends its block moments back over a pipe, and the
parent merges every block in block order, so the worker count does not
change the bits.  Without fork there is one share, and the groups run in
order in the calling process.

Draw order per stripe and pass: n_steps + 1 rows of (3, _STRIPE) standard
normals, trajectory j in column j % _STRIPE.  The kernel relaxes the OU
process v = F + sign (omega0 / 2) n, of mean c = mean + sign (omega0 / 2) n:
row 0 draws v from N(c, G), row k relaxes it to time k dt as v decay +
sigma normal + c (1 - decay).  Rows after row 0 are drawn _CHUNK at a time,
the same values as one (n_steps, 3, _STRIPE) draw.  Every stripe scales
its wanted normals by sigma in place and adds c (1 - decay) into one
contiguous kick buffer: 786,432 bytes at width 2048, and the stripe's
normals 49,152, so a chunk of both stays in a 2 MB L2 cache.  The kernel is a
plain stream: it yields its one state, updated in place, at row 0 and after
every step.  The moments alone pick the kept rows: they copy each into a
batch of at most _KEPT_SLOTS rows and take every block's two-pass over its
columns of the batch when it is full and after the last kept row, where the
stream stops.  Memory holds one chunk of normals and of kicks whatever
n_steps, and the work after propagation scales with the kept rows.  A round
trip's return pass draws on from the same streams, a fresh stationary
realization, not a time-reversed replay: the flight outlasts the noise
correlation by far.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (TOL, InvalidInputError, NumericalFailureError, _Validated, _checked,
                     _require_finite, frozen_array)
from .generator import build_generator
from .noise import FreePrecession, NoiseSpec, _averaged_dynamics, _require_axis3_zero_mean
from .propagator import mueller_exact
from .states import StokesVector

_BLOCK = 256
#: trajectories that share one random stream; divides _BLOCK
_STRIPE = 128
#: blocks propagated side by side
_GROUP_BLOCKS = 8
#: steps whose normals are drawn at a time
_CHUNK = 16
#: kept rows the moments batch for one two-pass
_KEPT_SLOTS = 64
_SEED_LIMIT = 2**64
#: |simulation - reference| below this counts as exact agreement (z = 0)
Z_ABS_TOL = 1e-9
STABILITY_LIMIT = 0.05
#: time points, evenly spread, at which mc_vs_master_report compares
_REPORT_ROWS = 20
#: trajectory-steps (n_traj * n_steps, doubled for a round trip) a run may
#: take: about 20 minutes on two cores
_MAX_TRAJ_STEPS = 10**10
#: bytes of float64 block moments (first trajectory, shift and squared
#: deviations of every kept row in every block) a run may hold, and of the
#: rows that evolve_trajectory returns
_MAX_MOMENT_BYTES = 2**30


@dataclass(frozen=True)
class TrajectoryConfig(_Validated):
    """Discretization and ensemble-size choices for a stochastic run; dt finite and > 0."""

    dt: float
    n_steps: int
    n_traj: int
    seed: int
    initial: StokesVector

    _rules = {"dt": "positive", "n_steps": "integer", "n_traj": "integer", "seed": "integer",
              "initial": lambda v: v if isinstance(v, StokesVector) else StokesVector(
                  *frozen_array(v, (3,), "initial"))}

    def __post_init__(self):
        super().__post_init__()
        if self.n_steps < 1:
            raise InvalidInputError("n_steps must be at least 1")
        if self.n_traj < 100:
            raise InvalidInputError("n_traj must be at least 100")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidInputError("seed must fit in 64 bits")
        if not self.initial.is_physical():
            raise InvalidInputError("initial Stokes vector exceeds the unit ball beyond 1e-12")

    def check_resolution(self, spec: NoiseSpec, fp: FreePrecession):
        """Reject steps too coarse for the fastest scale in the problem."""
        scale = max(
            max(spec.lam),
            abs(fp.omega0),
            max(math.sqrt(v) for v in spec.g),
        )
        if self.dt * scale > STABILITY_LIMIT * (1.0 + TOL):
            raise InvalidInputError(
                f"dt * max(lam_i, omega0, sqrt(G_i)) = {self.dt * scale:.4g} exceeds "
                f"{STABILITY_LIMIT}; use a smaller dt"
            )


@dataclass(frozen=True)
class EnsembleTrajectory(_Validated):
    """Ensemble means of the Stokes components with their standard errors."""

    times: np.ndarray
    mean_stokes: np.ndarray
    stderr: np.ndarray
    n_traj: int

    _rules = {name: partial(frozen_array, what=name) for name in ("times", "mean_stokes", "stderr")}


@dataclass(frozen=True)
class MCComparisonReport(_Validated):
    """Componentwise z-scores of ensemble means against the averaged dynamics."""

    times: np.ndarray
    mc_mean: np.ndarray
    mc_stderr: np.ndarray
    master: np.ndarray
    z: np.ndarray
    max_abs_z: float
    frac_above_3: float

    _rules = {name: partial(frozen_array, what=name, finite=name != "z")  # z may be +-inf
              for name in ("times", "mc_mean", "mc_stderr", "master", "z")}


def _ou_coefficients(g, lam, dt):
    """Per-step decay e^{-lam dt} and kick scale sqrt(g (1 - e^{-2 lam dt}))."""
    # math.exp: numpy's exp loops for AVX2 and AVX-512 differ in the last bit
    decay = np.vectorize(math.exp, otypes=[float])(-lam * dt)
    return decay, np.sqrt(g * (1.0 - decay**2))


def _ou_relax(field, decay, kick):
    """Relax field in place over one step: field decay + kick, the kick holding the drift."""
    field *= decay
    field += kick


def ou_step(f_prev, g, lam, dt, noise, mean=0.0):
    """One exact Ornstein-Uhlenbeck update over a step of length dt.

    Given a standard-normal draw, returns

        f_prev e^{-lam dt} + sqrt(g (1 - e^{-2 lam dt})) noise
                           + mean (1 - e^{-lam dt}),

    which reproduces the transition law of the process exactly for any
    dt: no Euler bias.  The stationary variance is g.  Scalars and arrays
    broadcast alike; each entry is finite and obeys the rules of NoiseSpec and TrajectoryConfig.
    A result past the float range raises NumericalFailureError.
    """
    for name, rule, value in (("f_prev", "finite", f_prev), ("g", "non-negative", g),
                              ("lam", "positive", lam), ("dt", "positive", dt),
                              ("noise", "finite", noise), ("mean", "finite", mean)):
        try:
            extremes = np.min(value), np.max(value)  # NaN propagates to both
        except (TypeError, ValueError) as exc:  # not numbers, ragged or empty
            raise InvalidInputError(f"{name} must hold one or more numbers") from exc
        for x in extremes:
            _checked(rule, x, name)
    g, lam = np.asarray(g, dtype=float), np.asarray(lam, dtype=float)
    field = np.array(np.broadcast_arrays(f_prev, g, lam, noise, mean)[0], dtype=float)
    with np.errstate(all="ignore"):  # an infinite lam dt decays by e^-inf = 0
        decay, sigma = _ou_coefficients(g, lam, dt)
        _ou_relax(field, decay, sigma * noise + mean * (1.0 - decay))
    return _require_finite(field, "OU update")[()]  # a scalar for scalar input


def _stripe_rng(seed: int, stripe: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, stripe])))


def _propagate(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
               j0: int, j1: int, round_trip: bool):
    """Advance trajectories [j0, j1) side by side, one draw chunk at a time.

    States are component-major, shape (3, j1 - j0): column p holds trajectory
    j0 + p.  Yields the one state, updated in place, at row 0 and after
    every step: n_steps + 1 times, 2 n_steps + 1 on a round trip.  A caller
    copies what it keeps before it asks for the next row.  Every stripe draws
    its whole width, and every operation is the elementwise one of the
    Rodrigues step, so the bits depend on none of the range or the chunk.
    """
    width = j1 - j0
    n = cfg.n_steps
    chunk = min(_CHUNK, n)
    g, lam, mean = (np.array(x)[:, None] for x in (spec.g, spec.lam, spec.mean))
    decay, step_sigma = _ou_coefficients(g, lam, cfg.dt)
    axis_term = 0.5 * fp.omega0 * np.array(fp.n)[:, None]
    # per-component constant at full width: same values, faster ufunc loops
    wide_decay = np.repeat(decay, width, axis=1)
    two_dt = 2.0 * cfg.dt
    # per stripe the range meets: its stream, the wanted columns of its normals, theirs here
    streams = [(_stripe_rng(cfg.seed, s), slice(max(j0 - s * _STRIPE, 0), j1 - s * _STRIPE),
                slice(max(s * _STRIPE - j0, 0), (s + 1) * _STRIPE - j0))
               for s in range(j0 // _STRIPE, (j1 - 1) // _STRIPE + 1)]

    normals = np.empty((chunk, 3, _STRIPE))
    kicks = np.empty((chunk, 3, width))
    bloch = np.repeat(cfg.initial.as_array()[:, None], width, axis=1)
    yield bloch
    v, unit, cross, tmp = np.empty((4, 3, width))
    vnorm, along, theta, cos_t, sin_t, w = np.empty((6, width))
    (b0, b1, b2), (u0, u1, u2), (c0, c1, c2), (t0, t1, t2) = bloch, unit, cross, tmp

    for sign in (1.0, -1.0) if round_trip else (1.0,):
        center = mean + sign * axis_term
        drift = center * (1.0 - decay)
        # draw row 0 initializes v from its stationary law N(center, G)
        for gen, wanted, cols in streams:
            gen.standard_normal(out=normals[0])
            np.multiply(normals[0, :, wanted], np.sqrt(g), out=v[:, cols])
        v += center
        for k0 in range(0, n, chunk):
            c = min(chunk, n - k0)
            for gen, wanted, cols in streams:
                gen.standard_normal(out=normals[:c])
                scaled = normals[:c, :, wanted]
                scaled *= step_sigma
                np.add(scaled, drift, out=kicks[:c, :, cols])
            for i in range(c):
                np.multiply(v, v, out=tmp)
                np.add(t0, t1, out=vnorm)
                vnorm += t2
                np.sqrt(vnorm, out=vnorm)
                np.multiply(vnorm, two_dt, out=theta)
                np.cos(theta, out=cos_t)
                np.sin(theta, out=sin_t)
                np.maximum(vnorm, 1e-300, out=w)
                np.divide(v, w, out=unit)
                # along = unit . bloch
                np.multiply(unit, bloch, out=tmp)
                np.add(t0, t1, out=along)
                along += t2
                # cross = unit x bloch
                np.multiply(u1, b2, out=c0)
                np.multiply(u2, b1, out=w)
                c0 -= w
                np.multiply(u2, b0, out=c1)
                np.multiply(u0, b2, out=w)
                c1 -= w
                np.multiply(u0, b1, out=c2)
                np.multiply(u1, b0, out=w)
                c2 -= w
                # cos bloch + (1 - cos) along unit + sin cross
                bloch *= cos_t
                np.subtract(1.0, cos_t, out=w)
                w *= along
                np.multiply(unit, w, out=tmp)
                bloch += tmp
                np.multiply(cross, sin_t, out=tmp)
                bloch += tmp
                yield bloch
                # exact OU relaxation of v to the next step
                _ou_relax(v, wide_decay, kicks[i])


def _group_moments(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
                   j0: int, j1: int, round_trip: bool, keep: np.ndarray):
    """Moments (size, first, shift, m2) of each _BLOCK-trajectory block in [j0, j1).

    For the rows in keep, an increasing index array: the block's first
    trajectory, its mean less that one, and its squared deviations from the
    mean.  Kept rows of the stream fill a batch of at most _KEPT_SLOTS rows;
    when it is full or holds the last kept row, each block takes the shifted
    two-pass of Chan, Golub & LeVeque (1983) over its own contiguous columns,
    so every sum runs in numpy's pairwise order for the block's length, and
    identical trajectories give exactly zero.
    """
    starts = range(0, j1 - j0, _BLOCK)
    first, shift, m2 = np.empty((3, len(starts), len(keep), 3))
    span = min(len(keep), _KEPT_SLOTS)
    batch = np.empty((span, 3, j1 - j0))  # kept rows as the stream yields them
    i_keep = 0  # the next kept row's index in keep
    # the stream stops at the last kept row
    for row, state in zip(range(keep[-1] + 1), _propagate(spec, fp, cfg, j0, j1, round_trip)):
        if row != keep[i_keep]:
            continue
        batch[i_keep % span] = state
        i_keep += 1
        if i_keep % span and i_keep < len(keep):
            continue
        c = (i_keep - 1) % span + 1  # rows in the batch
        for b, lo in enumerate(starts):
            x = batch[:c, :, lo:lo + _BLOCK]
            d = x - x[..., :1]
            s = d.mean(axis=-1)
            first[b, i_keep - c:i_keep], shift[b, i_keep - c:i_keep] = x[..., 0], s
            d -= s[..., None]
            d *= d
            m2[b, i_keep - c:i_keep] = d.sum(axis=-1)
    return [(min(_BLOCK, j1 - j0 - lo), first[b], shift[b], m2[b]) for b, lo in enumerate(starts)]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _share_moments(spec, fp, cfg, round_trip, keep, b0, b1):
    """Block moments of blocks [b0, b1), computed _GROUP_BLOCKS blocks at a time."""
    ends = [min(b * _BLOCK, cfg.n_traj) for b in (*range(b0, b1, _GROUP_BLOCKS), b1)]
    return [part for j0, j1 in zip(ends, ends[1:])
            for part in _group_moments(spec, fp, cfg, j0, j1, round_trip, keep)]


def _child_moments(sender, *share):
    """A forked worker: send the share's block moments, or a typed error."""
    try:
        result = _share_moments(*share)
    except Exception as exc:  # the parent raises it
        result = NumericalFailureError(f"an ensemble worker failed: {type(exc).__name__}: {exc}")
    sender.send(result)


def _forked_moments(spec, fp, cfg, round_trip, keep, bounds):
    """Block moments of every share: share 0 here, each other one in a forked child.

    With one share no child starts.  Every child is joined before this
    returns or raises, and terminated first if the call is failing.
    """
    children = []
    try:
        for b0, b1 in zip(bounds[1:-1], bounds[2:]):
            # fork, not spawn: a spawned child re-imports numpy and scipy,
            # about 0.4 s, most of what it would save.  A child runs numpy
            # ufuncs and SFC64 draws only, never BLAS, whose thread pool
            # is the only other thread the parent may have.
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_child_moments, args=(sender, spec, fp, cfg, round_trip, keep, b0, b1))
            child.start()
            sender.close()
            children.append((child, receiver))
        parts = _share_moments(spec, fp, cfg, round_trip, keep, bounds[0], bounds[1])
        for child, receiver in children:
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                raise NumericalFailureError(
                    f"an ensemble worker ended without a result (exit code {child.exitcode})"
                ) from None
            if isinstance(result, Exception):
                raise result
            parts += result
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return parts


def _ensemble(spec, fp, cfg, round_trip: bool, n_workers: int, rows=None) -> EnsembleTrajectory:
    cfg.check_resolution(spec, fp)
    n_workers = _checked("integer", n_workers, "n_workers")
    if n_workers < 1:
        raise InvalidInputError("n_workers must be at least 1")
    n_rows = 2 * cfg.n_steps + 1 if round_trip else cfg.n_steps + 1
    if cfg.n_traj * (n_rows - 1) > _MAX_TRAJ_STEPS:
        raise InvalidInputError(
            f"n_traj * n_steps (doubled for a round trip) = {cfg.n_traj * (n_rows - 1)} "
            f"exceeds {_MAX_TRAJ_STEPS}"
        )
    if rows is not None:
        keep = np.asarray(rows)
        if (keep.ndim != 1 or not keep.size or keep.dtype.kind not in "iu"
                or keep[0] < 0 or keep[-1] >= n_rows or np.any(keep[1:] <= keep[:-1])):
            raise InvalidInputError(
                f"rows must be increasing step indices in [0, {n_rows}), without repeats"
            )
    n_blocks = math.ceil(cfg.n_traj / _BLOCK)
    moment_bytes = (n_rows if rows is None else keep.size) * 3 * 8 * 3 * n_blocks
    if moment_bytes > _MAX_MOMENT_BYTES:
        raise InvalidInputError(
            f"block moments would take {moment_bytes} bytes, more than {_MAX_MOMENT_BYTES}; "
            "use fewer steps or trajectories"
        )
    if rows is None:
        keep = np.arange(n_rows)

    # contiguous shares of near-equal block counts, one per process
    k = min(n_workers, _available_cpus(), n_blocks)
    if "fork" not in multiprocessing.get_all_start_methods():
        k = 1
    bounds = [n_blocks * i // k for i in range(k + 1)]
    n = cfg.n_traj
    # overflow shows as non-finite moments, refused below; forked children
    # inherit this state
    with np.errstate(all="ignore"):
        parts = _forked_moments(spec, fp, cfg, round_trip, keep, bounds)
        # merge in block order the means less the first trajectory, so no
        # rounded mean enters a delta; identical blocks give delta exactly 0
        count, ref, offset, m2 = parts[0]
        for b_count, b_first, b_shift, b_m2 in parts[1:]:
            total = count + b_count
            delta = (b_first - ref) + b_shift - offset
            offset = offset + delta * (b_count / total)
            m2 = m2 + b_m2 + delta**2 * (count * b_count / total)
            count = total
        mean = ref + offset
        stderr = np.sqrt(m2 / (n - 1) / n)
        times = _require_finite(keep * cfg.dt, "time grid")
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(stderr).all(axis=1)
    if not finite.all():
        t = times[finite.argmin()]
        raise NumericalFailureError(f"ensemble moments are not finite at t = {t}")
    return EnsembleTrajectory(times=times, mean_stokes=mean, stderr=stderr, n_traj=n)


def evolve_trajectory(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
                      traj_index: int) -> np.ndarray:
    """One noise realization's Bloch trajectory, shape (n_steps + 1, 3).

    Row k is the state after k steps; the norm of every row equals the
    initial norm to rounding because each step is an exact rotation.
    The realization depends only on (seed, traj_index).  A row that is
    not finite raises NumericalFailureError.
    """
    traj_index = _checked("integer", traj_index, "traj_index")
    if not 0 <= traj_index < cfg.n_traj:
        raise InvalidInputError("traj_index must lie in [0, n_traj)")
    cfg.check_resolution(spec, fp)
    if (cfg.n_steps + 1) * 3 * 8 > _MAX_MOMENT_BYTES:
        raise InvalidInputError(f"a trajectory of {cfg.n_steps} steps would take more than "
                                f"{_MAX_MOMENT_BYTES} bytes; use fewer steps")
    out = np.empty((cfg.n_steps + 1, 3))
    with np.errstate(all="ignore"):  # refused below
        for row, state in zip(out, _propagate(spec, fp, cfg, traj_index, traj_index + 1, False)):
            row[...] = state[:, 0]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(f"trajectory is not finite at t = {finite.argmin() * cfg.dt}")
    return out


def ensemble_average(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
                     n_workers: int = 1, *, rows=None) -> EnsembleTrajectory:
    """Ensemble mean and standard error of the Stokes vector over n_traj runs.

    n_workers must be at least 1.  Up to min(n_workers, CPUs, blocks)
    processes share the blocks, the extra ones forked, and the results
    carry the same bits for every value.  rows, increasing step indices,
    restricts the returned rows (and their times) to those steps; None
    keeps all n_steps + 1.
    """
    return _ensemble(spec, fp, cfg, round_trip=False, n_workers=n_workers, rows=rows)


def mc_double_pass(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
                   n_workers: int = 1) -> EnsembleTrajectory:
    """Stochastic round trip: forward n_steps, mirror, back n_steps.

    The mirror reverses the precession (omega0 -> -omega0) while the
    return pass sees a fresh independent noise realization.  Restricted
    to precession about axis 3 with zero-mean noise, matching the
    closed-form return-pass treatment it is checked against.  The row at
    index n_steps is the state at the mirror, so a single run also
    contains the one-way ensemble.  n_workers works as in
    ensemble_average: up to min(n_workers, CPUs, blocks) processes, with
    the same bits for every value.
    """
    _require_axis3_zero_mean(spec, fp, "a round trip")
    return _ensemble(spec, fp, cfg, round_trip=True, n_workers=n_workers)


def _zscores(diff, err):
    """diff / err, but 0 where |diff| <= Z_ABS_TOL and +-inf where err = 0 otherwise."""
    z = np.zeros_like(diff)
    exact = np.abs(diff) <= Z_ABS_TOL
    finite = ~exact & (err > 0.0)
    z[finite] = diff[finite] / err[finite]
    blown = ~exact & (err <= 0.0)
    z[blown] = np.sign(diff[blown]) * np.inf
    return z


def mc_vs_master_report(spec: NoiseSpec, fp: FreePrecession, cfg: TrajectoryConfig,
                        n_workers: int = 1) -> MCComparisonReport:
    """Compare ensemble means against the averaged (master-equation) solution.

    The comparison uses 20 evenly spread steps, the first and the last
    included (fewer when n_steps < 19).  The reference path goes through
    the damping matrix, the effective precession vector and the exact
    matrix exponential; no closed-form shortcut is shared with the
    simulation.  z-scores are 0 wherever the
    two sides agree within 1e-9 absolutely (covers deterministic limits
    with zero variance), infinite where they disagree at zero standard
    error, and (mc - master) / stderr elsewhere.  In strong coupling the
    report simply shows large z: flagging the breakdown of the averaged
    description is an intended mode of use, not a failure.  The ensemble
    keeps moments for the compared steps only; n_workers works as in
    ensemble_average and does not change the bits.
    """
    idx = np.unique(np.round(np.linspace(0, cfg.n_steps, _REPORT_ROWS)).astype(int))
    ens = ensemble_average(spec, fp, cfg, n_workers=n_workers, rows=idx)
    gen = build_generator(*_averaged_dynamics(spec, fp))
    master = np.stack([mueller_exact(gen, t).apply(cfg.initial).as_array() for t in ens.times])
    mc = ens.mean_stokes
    err = ens.stderr
    z = _zscores(mc - master, err)
    return MCComparisonReport(
        times=ens.times,
        mc_mean=mc,
        mc_stderr=err,
        master=master,
        z=z,
        max_abs_z=float(np.max(np.abs(z))),
        frac_above_3=float(np.mean(np.abs(z) > 3.0)),
    )
