"""Two-level polarization states and Bloch/Stokes conversions.

The working basis throughout the package is the circular one, ordered
(right, left), so the third Pauli axis is the circular axis: the
right-circular projector has Bloch vector (0, 0, 1) and linear
polarizations live in the 1-2 plane.  A state is the 2x2 density
matrix rho = (sigma_0 + r . sigma) / 2; its Bloch vector r is the
reduced (intensity-normalized) 3-component Stokes vector, and both
names are used interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import TOL, InvalidInputError, _Validated, _require_finite, frozen_array

#: Pauli matrices in the circular basis; PAULI[i - 1] is sigma_i.
PAULI = np.array(
    [
        [[0.0 + 0.0j, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)
PAULI.setflags(write=False)

@dataclass(frozen=True)
class PureStateAngles(_Validated):
    """Polar parametrization of a pure state, cos(theta)|+> + e^{i phi} sin(theta)|->.

    The kets |+-> are the horizontal/vertical linear-polarization pair.
    theta in [0, pi/2] with phi in [0, 2 pi) covers every pure state once;
    arbitrary finite angles are accepted and map onto the same projector as
    their canonical representatives.
    """

    theta: float
    phi: float

    _rules = {"theta": "finite", "phi": "finite"}


@dataclass(frozen=True)
class StokesVector(_Validated):
    """Reduced Stokes (Bloch) 3-vector of a polarization state.

    Physical states have squared norm at most 1 (pure states exactly 1).
    Unphysical finite vectors are representable on purpose: propagators of
    non-completely-positive generators can produce them, and detecting
    that is one of the package's jobs.
    """

    rho1: float
    rho2: float
    rho3: float

    _rules = {"rho1": "finite", "rho2": "finite", "rho3": "finite"}

    @classmethod
    def from_array(cls, values) -> "StokesVector":
        return cls(*frozen_array(values, (3,), "Stokes vector"))

    def as_array(self) -> np.ndarray:
        return np.array([self.rho1, self.rho2, self.rho3])

    def norm(self) -> float:
        """Euclidean norm; NumericalFailureError if it is past the float range."""
        return _require_finite(math.hypot(self.rho1, self.rho2, self.rho3), "Stokes vector norm")

    def is_physical(self) -> bool:
        """True when the squared norm is at most 1 + 1e-12."""
        # products, not powers: a square past the float range is inf, not an OverflowError
        return self.rho1 * self.rho1 + self.rho2 * self.rho2 + self.rho3 * self.rho3 <= 1.0 + TOL


@dataclass(frozen=True)
class DensityMatrix(_Validated):
    """A finite 2x2 Hermitian, unit-trace matrix in the circular basis.

    Hermiticity and unit trace are enforced at construction (tolerance
    1e-12 each).  Positivity is deliberately not enforced; use
    :meth:`is_physical` to test it.
    """

    matrix: np.ndarray

    _rules = {"matrix": partial(frozen_array, shape=(2, 2), what="density matrix", dtype=complex)}

    @np.errstate(all="ignore")  # a gap past the float range is refused
    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        if not max(abs(m[0, 1] - np.conj(m[1, 0])), abs(m[0, 0].imag), abs(m[1, 1].imag)) <= TOL:
            raise InvalidInputError("density matrix is not Hermitian within 1e-12")
        if not abs(m[0, 0] + m[1, 1] - 1.0) <= TOL:
            raise InvalidInputError("density matrix trace differs from 1 beyond 1e-12")

    def eigenvalues(self) -> np.ndarray:
        """Both eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.matrix)

    def is_physical(self) -> bool:
        """True when both eigenvalues are >= -1e-12."""
        return bool(self.eigenvalues()[0] >= -TOL)


def stokes_from_angles(angles: PureStateAngles) -> StokesVector:
    """Stokes vector of the pure state with the given polar angles.

    The linear-basis amplitudes (cos theta, e^{i phi} sin theta) are
    rotated into the circular basis, where the right/left amplitudes are
    c_R = (c_+ - i c_-) / sqrt(2) and c_L = (c_+ + i c_-) / sqrt(2);
    the Stokes components are then read off the projector.  The result
    has unit norm for any real angles.
    """
    c_plus = math.cos(angles.theta)
    c_minus = math.sin(angles.theta) * np.exp(1j * angles.phi)
    c_r = (c_plus - 1j * c_minus) / math.sqrt(2.0)
    c_l = (c_plus + 1j * c_minus) / math.sqrt(2.0)
    off = c_r * np.conj(c_l)
    return StokesVector(2.0 * off.real, -2.0 * off.imag, abs(c_r) ** 2 - abs(c_l) ** 2)


def density_from_stokes(s: StokesVector) -> DensityMatrix:
    """Density matrix (sigma_0 + r . sigma) / 2 of a Stokes vector.

    Accepts unphysical vectors; the caller checks physicality.  The
    diagonal is built so the trace is exactly 1 in floating point.
    """
    e00 = 0.5 + 0.5 * s.rho3
    e11 = 1.0 - e00
    off = 0.5 * (s.rho1 - 1j * s.rho2)
    return DensityMatrix(np.array([[e00, off], [np.conj(off), e11]]))


def stokes_from_density(d) -> StokesVector:
    """Stokes components tr(rho sigma_i) of a density matrix.

    Accepts a :class:`DensityMatrix` or a raw 2x2 array; raw input is
    validated (Hermitian and unit trace within 1e-12) first.
    """
    if not isinstance(d, DensityMatrix):
        d = DensityMatrix(d)
    m = d.matrix.tolist()  # complex values: a sum past the float range is inf, not a warning
    r1 = (m[0][1] + m[1][0]).real
    r2 = (1j * (m[0][1] - m[1][0])).real
    r3 = (m[0][0] - m[1][1]).real
    return StokesVector(*_require_finite((r1, r2, r3), "Stokes vector of the density matrix"))


def purity(s: StokesVector) -> float:
    """tr(rho^2) = (1 + |r|^2) / 2; NumericalFailureError if it is past the float range."""
    value = 0.5 * (1.0 + s.rho1 * s.rho1 + s.rho2 * s.rho2 + s.rho3 * s.rho3)
    return _require_finite(value, "purity")
