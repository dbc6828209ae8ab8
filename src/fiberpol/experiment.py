"""The double-pass observable R(t) and the complete-positivity test it implements.

Send three probe states through the fiber: the horizontal linear state
(Stokes (1, 0, 0)) once and round-trip through an orthoconjugating
mirror, and the right-circular state (0, 0, 1) once.  The combination

    R(t) = [ r1+(2t) + r2+(2t) r1+(t) / r2+(t) ] / r3R(t)

built purely from measured Stokes components collapses analytically to
exp(-2 (a + alpha - gamma) t).  Complete positivity forces
a + alpha - gamma >= 0, hence R(t) <= 1 at every t; a measured R above
1 certifies that the dynamics cannot be a completely positive
semigroup.

Relaxation-time convention: in the symmetric regime (b = 0, a = alpha)
the longitudinal time is T1 = 1/gamma and the transverse time is
T2 = 1/alpha, where the rates are those of the Stokes components
themselves.  With this convention the CP constraint reads
2 T1 >= T2, a factor of 2 away from the textbook magnetic-resonance
inequality T1 >= T2/2 written for half-rates; comparisons against
other sources must account for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CP_TOL,
    TOL,
    InvalidInputError,
    NumericalFailureError,
    SingularConfigurationError,
    UnsupportedConfigurationError,
    _checked,
    _require_finite,
)
from .generator import DissipativeParams
from .propagator import _closed_form
from .states import StokesVector

_UNDERFLOW_TOL = 1e-300


@dataclass(frozen=True)
class ExperimentResult:
    """One evaluation of the double-pass observable.

    r_value is assembled from Stokes components the way a measurement
    would be; r_closed is the analytic exponential it should equal.
    """

    t: float
    r_value: float
    r_closed: float
    stokes_plus_single: StokesVector
    stokes_plus_double: StokesVector
    stokes_r_single: StokesVector
    cp_verdict: bool


@dataclass(frozen=True)
class RelaxationTimes:
    """Longitudinal and transverse relaxation times (T1 = 1/gamma, T2 = 1/alpha)."""

    t1: float
    t2: float

    @property
    def two_t1_geq_t2(self) -> bool:
        return 2.0 * self.t1 >= self.t2


@dataclass(frozen=True)
class RScanResult:
    """Columns of an R(t) scan, one entry per regular point in scan order.

    Singular points are flagged, not fatal: their times are in singular_times.
    """

    times: tuple[float, ...]
    r_value: tuple[float, ...]
    r_closed: tuple[float, ...]
    cp_verdict: tuple[bool, ...]
    singular_times: tuple[float, ...]


def _r_point(p: DissipativeParams, omega: float, t: float):
    """(forward matrix, plus_double, r_value, r_closed, cp_verdict) at one checked time t > 0."""
    forward = _closed_form(p, p.b, omega, t)
    backward = _closed_form(p, -p.b, -omega, t)
    plus_single = forward[:, 0]
    plus_double = backward @ plus_single
    r_single = forward[:, 2]
    if abs(plus_single[1]) < TOL:
        raise SingularConfigurationError(
            f"second Stokes component of the linear probe vanishes at t = {t}; "
            "pick a time away from the zeros of sin(2 Omega t)"
        )
    if abs(r_single[2]) < _UNDERFLOW_TOL:
        raise SingularConfigurationError(
            f"third Stokes component of the circular probe underflows at t = {t}"
        )
    r_value = float((plus_double[0] + plus_double[1] * plus_single[0] / plus_single[1]) / r_single[2])
    if not math.isfinite(r_value):
        raise NumericalFailureError(f"R(t) is not finite at t = {t}")
    try:
        r_closed = math.exp(-2.0 * (p.a + p.alpha - p.gamma) * t)
    except OverflowError as exc:
        raise NumericalFailureError(f"closed-form R(t) overflows at t = {t}") from exc
    return forward, plus_double, r_value, r_closed, r_value <= 1.0 + CP_TOL


# an overflow reaches the finiteness checks as inf or nan, not as a warning
@np.errstate(all="ignore")
def r_observable(p: DissipativeParams, omega: float, t: float) -> ExperimentResult:
    """Evaluate R at one time from propagated Stokes components.

    The value is deliberately computed from the simulated measurement
    data, never shortcut through the closed exponential; the exponential
    is carried alongside as the prediction.  Requires t > 0.  Raises
    :class:`SingularConfigurationError` when the linear probe's second
    Stokes component vanishes at t (a zero of sin(2 Omega t)) or the
    circular probe's third component underflows, and
    :class:`NumericalFailureError` when R, its exponential or a probe's
    Stokes vector is not finite.
    """
    t, omega = _checked("positive", t, "time"), _checked("finite", omega, "omega")
    forward, plus_double, r_value, r_closed, cp_verdict = _r_point(p, omega, t)
    _require_finite((forward[:, 0], plus_double, forward[:, 2]), f"a probe's Stokes vector at t = {t}")
    return ExperimentResult(
        t=t,
        r_value=r_value,
        r_closed=r_closed,
        stokes_plus_single=StokesVector.from_array(forward[:, 0]),
        stokes_plus_double=StokesVector.from_array(plus_double),
        stokes_r_single=StokesVector.from_array(forward[:, 2]),
        cp_verdict=cp_verdict,
    )


def relaxation_times(p: DissipativeParams) -> RelaxationTimes:
    """T1 and T2 in the symmetric regime b = 0, a = alpha.

    Outside that regime the two transverse components decay at unequal
    rates and a single T2 does not exist, so the call is rejected.  A
    time past the float range raises NumericalFailureError.
    """
    if abs(p.b) > TOL or abs(p.a - p.alpha) > TOL:
        raise UnsupportedConfigurationError(
            "relaxation times are defined for the symmetric regime b = 0, a = alpha"
        )
    if not (p.alpha > 0.0 and p.gamma > 0.0):
        raise InvalidInputError("relaxation times need alpha > 0 and gamma > 0")
    t1, t2 = _require_finite((1.0 / p.gamma, 1.0 / p.alpha), "relaxation times")
    return RelaxationTimes(t1=t1, t2=t2)


@np.errstate(all="ignore")  # as in r_observable
def r_scan(p: DissipativeParams, omega: float, times) -> RScanResult:
    """Evaluate R over a grid of positive times, flagging singular points instead of failing."""
    omega = _checked("finite", omega, "omega")
    rows: list[tuple] = []
    singular: list[float] = []
    for t in times:
        t = _checked("positive", t, "time")
        try:
            rows.append((t, *_r_point(p, omega, t)[2:]))
        except SingularConfigurationError:
            singular.append(t)
    columns = tuple(zip(*rows)) or ((), (), (), ())
    return RScanResult(*columns, singular_times=tuple(singular))
