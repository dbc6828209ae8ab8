"""Mueller-matrix propagators of the averaged polarization dynamics.

The reduced Mueller matrix is M(t) = exp(-2 H t), mapping Stokes
vectors forward in time.  Two routes are provided and kept separate on
purpose: :func:`mueller_exact` exponentiates any generator numerically,
while :func:`mueller_closed_form` evaluates the analytic solution
available when the transverse couplings vanish (c = beta = 0) and the
precession is about axis 3.  In that family the generator splits into
the 1-2 block and the 3 axis, and with

    Omega^2 = omega^2 - b^2 - (a - alpha)^2 / 4

the block solution is a damped rotator

    M11 = e^{-(a+alpha) t} [cos(2 Omega t) + (alpha - a)/(2 Omega) sin(2 Omega t)]
    M12 = -e^{-(a+alpha) t} (b + omega)/Omega sin(2 Omega t)
    M21 = -e^{-(a+alpha) t} (b - omega)/Omega sin(2 Omega t)
    M22 = e^{-(a+alpha) t} [cos(2 Omega t) - (alpha - a)/(2 Omega) sin(2 Omega t)]
    M33 = e^{-2 gamma t}.

Negative Omega^2 turns the trigonometric pair into hyperbolic ones
(overdamped branch); near Omega = 0 both are evaluated by a series in
(2 Omega t)^2, so the three branches join continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .errors import (
    TOL,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedConfigurationError,
    _Validated,
    _checked,
    _require_finite,
    frozen_array,
)
from .generator import DissipativeParams, GeneratorMatrix
from .states import StokesVector

#: switch to the series when (2 Omega t)^2 is below this, i.e. |Omega| t < 1e-4
_SERIES_Z = 4e-8


@dataclass(frozen=True)
class MuellerMatrix(_Validated):
    """Reduced 3x3 Mueller matrix at a fixed, finite evolution time."""

    matrix: np.ndarray
    t: float

    _rules = {"matrix": partial(frozen_array, shape=(3, 3), what="Mueller matrix"),
              "t": "finite"}

    def apply(self, s: StokesVector) -> StokesVector:
        """The propagated Stokes vector; NumericalFailureError if it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out = self.matrix @ s.as_array()
        return StokesVector.from_array(_require_finite(out, f"Stokes vector at t = {self.t}"))

    def __matmul__(self, other: "MuellerMatrix") -> "MuellerMatrix":
        """The composed matrix; NumericalFailureError if it or the summed time is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            m = _require_finite(self.matrix @ other.matrix, "Mueller matrix product")
        return MuellerMatrix(m, _require_finite(self.t + other.t, "time"))


def _damped_trig(decay_rate: float, omega_sq: float, t: float) -> tuple[float, float]:
    """e^{-decay_rate t} (cos(2 Omega t), sin(2 Omega t)/Omega), branch-safe.

    With z = 4 Omega^2 t^2 the pair is analytic in z, so for |z| below
    _SERIES_Z a short Taylor series covers all three branches without
    cancellation.  The overdamped branch folds the decay into the
    exponentials to avoid overflowing cosh at large times.
    """
    z = 4.0 * omega_sq * t * t
    if abs(z) < _SERIES_Z:
        damp = math.exp(-decay_rate * t)
        cos_term = 1.0 - z / 2.0 + z * z / 24.0 - z * z * z / 720.0
        sinc_term = 2.0 * t * (1.0 - z / 6.0 + z * z / 120.0 - z * z * z / 5040.0)
        return damp * cos_term, damp * sinc_term
    if omega_sq > 0.0:
        omega_mag = math.sqrt(omega_sq)
        damp = math.exp(-decay_rate * t)
        return damp * math.cos(2.0 * omega_mag * t), damp * math.sin(2.0 * omega_mag * t) / omega_mag
    omega_mag = math.sqrt(-omega_sq)
    e_plus = math.exp((2.0 * omega_mag - decay_rate) * t)
    e_minus = math.exp((-2.0 * omega_mag - decay_rate) * t)
    return 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus) / omega_mag


def mueller_exact(g: GeneratorMatrix, t: float) -> MuellerMatrix:
    """M(t) = exp(-2 H t) by dense matrix exponential; requires t >= 0.

    Works for any generator.  Negative times are rejected: the averaged
    evolution is a forward semigroup only.
    """
    t = float(t)
    if not t >= 0.0:
        raise InvalidInputError("evolution time must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        m = expm(-2.0 * t * g.matrix)
    return MuellerMatrix(_require_finite(m, f"matrix exponential at t = {t}"), t)


def _closed_form(p: DissipativeParams, b: float, omega: float, t: float) -> np.ndarray:
    """The closed-form 3x3 matrix, with b and omega taken apart from p.

    The mirror flips only b and omega, so both passes share this kernel.
    """
    if abs(p.c) > TOL or abs(p.beta) > TOL:
        raise UnsupportedConfigurationError(
            "closed form requires c = beta = 0 (within 1e-12); use mueller_exact instead"
        )
    if not t >= 0.0:
        raise InvalidInputError("evolution time must be non-negative")
    try:
        omega_sq = omega**2 - b**2 - 0.25 * (p.a - p.alpha) ** 2
        damped_cos, damped_sinc = _damped_trig(p.a + p.alpha, omega_sq, t)
        m33 = math.exp(-2.0 * p.gamma * t)
    except (OverflowError, ValueError) as exc:  # a square or exp overflows, cos/sin of inf
        raise NumericalFailureError(f"closed-form propagator is not finite at t = {t}") from exc
    half_diff = 0.5 * (p.alpha - p.a)
    return np.array(
        [
            [damped_cos + half_diff * damped_sinc, -(b + omega) * damped_sinc, 0.0],
            [-(b - omega) * damped_sinc, damped_cos - half_diff * damped_sinc, 0.0],
            [0.0, 0.0, m33],
        ]
    )


def mueller_closed_form(p: DissipativeParams, omega: float, t: float) -> MuellerMatrix:
    """Closed-form M(t) for c = beta = 0 and precession about axis 3.

    Transverse couplings beyond 1e-12 are unsupported here; use
    :func:`mueller_exact` for those.  Requires t >= 0.
    """
    t = float(t)
    m = _closed_form(p, p.b, _checked("finite", omega, "omega"), t)
    return MuellerMatrix(_require_finite(m, f"closed-form propagator at t = {t}"), t)


def backward_mueller(p: DissipativeParams, omega: float, t: float) -> MuellerMatrix:
    """Return-pass Mueller matrix after an ideal orthoconjugating mirror.

    The mirror reverses the sense of the precession, which flips the
    signs of omega and b only; the dissipative rates a, alpha, gamma are
    unchanged.  The mirror itself is absorbed into this matrix, so the
    round trip is backward_mueller @ mueller_closed_form.
    """
    t = float(t)
    m = _closed_form(p, -p.b, -_checked("finite", omega, "omega"), t)
    return MuellerMatrix(_require_finite(m, f"closed-form propagator at t = {t}"), t)


def double_pass(p: DissipativeParams, omega: float, t: float, s0: StokesVector) -> StokesVector:
    """Stokes vector after a there-and-back round trip of duration 2 t.

    Applies the forward closed-form matrix and then the return-pass one
    to a physical input state.  With zero dissipation the rotation is
    undone and s0 comes back unchanged.
    """
    if not s0.is_physical():
        raise InvalidInputError("initial Stokes vector exceeds the unit ball beyond 1e-12")
    t, omega = float(t), _checked("finite", omega, "omega")
    forward = _closed_form(p, p.b, omega, t)
    backward = _closed_form(p, -p.b, -omega, t)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        out = backward @ (forward @ s0.as_array())
    return StokesVector.from_array(_require_finite(out, f"double-pass Stokes vector at t = {t}"))
