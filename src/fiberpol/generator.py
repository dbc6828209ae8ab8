"""Bloch-space generator of the averaged dynamics and its positivity tests.

The master equation for the density matrix is equivalent to a linear
equation d r / dt = -2 H r for the Stokes vector, with

        [ a       b + w3   c - w2 ]
    H = [ b - w3  alpha    beta + w1 ]
        [ c + w2  beta - w1  gamma ]

whose symmetric part collects six dissipative parameters and whose
antisymmetric part is the precession vector w.  The dissipative
parameters are an equivalent repackaging of the symmetrized damping
matrix K (Kossakowski matrix): with 2R = alpha + gamma - a,
2S = a + gamma - alpha, 2T = a + alpha - gamma,

    K = [[ R, -b, -c], [-b, S, -beta], [-c, -beta, T]].

Complete positivity of the evolution is positive semidefiniteness of K,
equivalently the seven principal-minor inequalities returned by
:func:`cp_inequalities`.  Non-CP parameter sets are first-class values
here; classifying them is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import CP_TOL, TOL, InvalidInputError, _Validated, _require_finite, frozen_array
from .states import PAULI, DensityMatrix


@dataclass(frozen=True)
class DissipativeParams(_Validated):
    """The six dissipative coefficients (a, b, c, alpha, beta, gamma).

    All finite values are accepted: sets violating complete positivity are
    deliberately representable.
    """

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    _rules = dict.fromkeys(("a", "b", "c", "alpha", "beta", "gamma"), "finite")


@dataclass(frozen=True)
class KossakowskiMatrix(_Validated):
    """Finite, symmetric 3x3 coefficient matrix of the dissipator (tolerance 1e-12)."""

    matrix: np.ndarray

    _rules = {"matrix": partial(frozen_array, shape=(3, 3), what="Kossakowski matrix")}

    @np.errstate(all="ignore")  # a gap past the float range is refused
    def __post_init__(self):
        super().__post_init__()
        if not np.max(np.abs(self.matrix - self.matrix.T)) <= TOL:
            raise InvalidInputError("Kossakowski matrix must be symmetric within 1e-12")


@dataclass(frozen=True)
class GeneratorMatrix(_Validated):
    """Bloch-equation generator H together with the precession vector it embeds."""

    matrix: np.ndarray
    omega: np.ndarray

    _rules = {"matrix": partial(frozen_array, shape=(3, 3), what="generator"),
              "omega": partial(frozen_array, shape=(3,), what="precession vector")}


class CPResiduals(NamedTuple):
    """The seven principal-minor residuals; all non-negative iff CP."""

    two_r: float
    two_s: float
    two_t: float
    rs_minus_b2: float
    rt_minus_c2: float
    st_minus_beta2: float
    det: float


def _rst(p: DissipativeParams) -> tuple[float, float, float]:
    """The half-sums R, S, T on the diagonal of the Kossakowski matrix."""
    return (0.5 * (p.alpha + p.gamma - p.a), 0.5 * (p.a + p.gamma - p.alpha),
            0.5 * (p.a + p.alpha - p.gamma))


def kossakowski_from_params(p: DissipativeParams) -> KossakowskiMatrix:
    """Kossakowski matrix of a parameter set."""
    r, s, t = _require_finite(_rst(p), "Kossakowski matrix")
    return KossakowskiMatrix(np.array([[r, -p.b, -p.c],
                                       [-p.b, s, -p.beta],
                                       [-p.c, -p.beta, t]]))


def params_from_kossakowski(k) -> DissipativeParams:
    """Dissipative parameters of a symmetric coefficient matrix.

    Accepts a :class:`KossakowskiMatrix` or a raw 3x3 array; raw input is validated
    for symmetry within 1e-12.  Exact inverse of :func:`kossakowski_from_params` up
    to rounding; a sum beyond the float range raises NumericalFailureError.
    """
    if not isinstance(k, KossakowskiMatrix):
        k = KossakowskiMatrix(k)
    m = k.matrix.tolist()  # floats: a sum past the float range is inf, not a warning
    values = (m[1][1] + m[2][2], -m[0][1], -m[0][2], m[0][0] + m[2][2], -m[1][2], m[0][0] + m[1][1])
    return DissipativeParams(*_require_finite(values, "dissipative parameter set"))


def build_generator(p: DissipativeParams, omega) -> GeneratorMatrix:
    """H from dissipative parameters and a precession 3-vector; NumericalFailureError unless finite."""
    w = GeneratorMatrix._rules["omega"](omega)
    w1, w2, w3 = w.tolist()  # floats: a sum past the float range is inf, not a warning
    m = np.array([[p.a, p.b + w3, p.c - w2],
                  [p.b - w3, p.alpha, p.beta + w1],
                  [p.c + w2, p.beta - w1, p.gamma]])
    return GeneratorMatrix(_require_finite(m, "generator"), w)


def cp_inequalities(p: DissipativeParams) -> CPResiduals:
    """The seven complete-positivity residuals of a parameter set.

    These are the principal minors of the Kossakowski matrix expressed
    directly in the parameters: 2R, 2S, 2T, RS - b^2, RT - c^2,
    ST - beta^2 and the determinant
    RST - 2 b c beta - R beta^2 - S c^2 - T b^2.  The evolution is
    completely positive exactly when all seven are non-negative.  A
    residual beyond the float range raises NumericalFailureError.
    """
    r, s, t = _rst(p)
    b2, c2, beta2 = p.b * p.b, p.c * p.c, p.beta * p.beta  # ** would raise OverflowError
    residuals = (2.0 * r, 2.0 * s, 2.0 * t, r * s - b2, r * t - c2, s * t - beta2,
                 r * s * t - 2.0 * p.b * p.c * p.beta - r * beta2 - s * c2 - t * b2)
    return CPResiduals(*_require_finite(residuals, "complete-positivity residual set"))


def is_completely_positive(p: DissipativeParams) -> bool:
    """Eigenvalue test: min eig of the Kossakowski matrix >= -1e-10."""
    eigs = np.linalg.eigvalsh(kossakowski_from_params(p).matrix)
    return bool(eigs[0] >= -CP_TOL)


@np.errstate(all="ignore")  # a derivative past the float range is refused
def lindblad_apply(k: KossakowskiMatrix, omega, d: DensityMatrix) -> np.ndarray:
    """Master-equation right-hand side on a density matrix; NumericalFailureError unless finite.

    Returns the 2x2 matrix

        -i [w . sigma, rho]
        + (1/2) sum_ij K_ij (2 sigma_j rho sigma_i - {sigma_i sigma_j, rho})

    as a plain complex array: the derivative is traceless Hermitian, so
    it is not itself a unit-trace density matrix.  Its Bloch components
    equal -2 H r with H from :func:`build_generator`; the test suite
    checks the two routes against each other.
    """
    w = GeneratorMatrix._rules["omega"](omega)
    rho = d.matrix
    ham = w[0] * PAULI[0] + w[1] * PAULI[1] + w[2] * PAULI[2]
    out = -1j * (ham @ rho - rho @ ham)
    km = k.matrix
    for i in range(3):
        for j in range(3):
            sij = PAULI[i] @ PAULI[j]
            out = out + 0.5 * km[i, j] * (
                2.0 * PAULI[j] @ rho @ PAULI[i] - sij @ rho - rho @ sij
            )
    return _require_finite(out, "master-equation derivative")
