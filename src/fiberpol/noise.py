"""Stochastic birefringence model and its averaged damping coefficients.

The fiber noise is a classical 3-component random field F(t) coupling
to the polarization through F . sigma, on top of a deterministic
precession (omega0 / 2) n . sigma.  Each component is stationary with
exponential autocorrelation

    <F_i(t) F_j(s)> - <F_i><F_j> = G_i exp(-lam_i |t - s|) delta_ij,

so G_i is a mean-square coupling strength (1/time^2) and 1/lam_i a
correlation time.  Averaging the noise to second order produces the
damping-coefficient matrix

    C_ij = integral_0^inf  G_i exp(-lam_i t) U_ij(-t) dt,

where U(t) is the rotating-frame Pauli rotation about n.  Both a
closed-form evaluation and an independent numerical quadrature of this
integral are provided; they are compared against each other in the test
suite rather than collapsed into one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

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
from .generator import DissipativeParams, params_from_kossakowski

QUADRATURE_ABS_TOL = 1e-9
#: the most panels one quadrature pass may take: 2**20 nodes, a 75 MB rotation stack
_MAX_PANELS = 2**16

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class NoiseSpec(_Validated):
    """Per-axis Ornstein-Uhlenbeck noise parameters.

    Parameters
    ----------
    g : three finite mean-square strengths G_i >= 0 (1/time^2).
    lam : three finite inverse correlation times lam_i > 0 (1/time).
    mean : three finite mean field values <F_i> (1/time), zero by default.
    """

    g: tuple[float, float, float]
    lam: tuple[float, float, float]
    mean: tuple[float, float, float] = (0.0, 0.0, 0.0)

    _rules = {"g": ("non-negative",) * 3, "lam": ("positive",) * 3, "mean": ("finite",) * 3}


@dataclass(frozen=True)
class FreePrecession(_Validated):
    """Deterministic precession at finite angular frequency omega0 about the unit axis n."""

    omega0: float
    n: tuple[float, float, float] = (0.0, 0.0, 1.0)

    _rules = {"omega0": "finite", "n": ("finite",) * 3}

    def __post_init__(self):
        super().__post_init__()
        if not abs(math.hypot(*self.n) - 1.0) <= TOL:
            raise InvalidInputError("n must be a unit vector within 1e-12")


@dataclass(frozen=True)
class CMatrix(_Validated):
    """Damping-coefficient matrix C (not symmetrized)."""

    matrix: np.ndarray

    _rules = {"matrix": partial(frozen_array, shape=(3, 3), what="C matrix")}

    @np.errstate(all="ignore")  # a sum past the float range is refused
    def symmetric_part(self) -> np.ndarray:
        """C + C^T, the Kossakowski coefficient matrix; NumericalFailureError unless finite."""
        return _require_finite(self.matrix + self.matrix.T, "damping matrix")


def correlation(spec: NoiseSpec, i: int, j: int, t: float) -> float:
    """Two-time covariance <F_i(t) F_j(0)> - <F_i><F_j>, axes numbered 1..3."""
    i, j, t = _checked("integer", i, "i"), _checked("integer", j, "j"), _checked("finite", t, "time")
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise InvalidInputError("axis labels i, j must be in {1, 2, 3}")
    if i != j:
        return 0.0
    return spec.g[i - 1] * math.exp(-spec.lam[i - 1] * abs(t))


def _cross_matrix(n) -> np.ndarray:
    return np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )


@np.errstate(all="ignore")  # an angle past the float range gives NaN
def _pauli_rotation_batch(fp: FreePrecession, t: np.ndarray) -> np.ndarray:
    """Rotation coefficients U(t) for an array of times, shape (len(t), 3, 3)."""
    n = np.array(fp.n)
    outer = np.outer(n, n)
    rest = np.eye(3) - outer
    cross = _cross_matrix(n)
    ang = fp.omega0 * np.asarray(t, dtype=float)
    c = np.cos(ang)
    s = np.sin(ang)
    return outer[None, :, :] + c[:, None, None] * rest[None, :, :] + s[:, None, None] * cross[None, :, :]


def pauli_rotation(fp: FreePrecession, t: float) -> np.ndarray:
    """Heisenberg-picture rotation of the Pauli vector under the free precession.

    Conjugating sigma_i by exp(+-i t (omega0 / 2) n . sigma) rotates the
    Pauli vector about n by the angle omega0 t:

        U_ij(t) = n_i n_j + (delta_ij - n_i n_j) cos(omega0 t)
                  - eps_ijk n_k sin(omega0 t).

    U(t) is orthogonal with determinant 1 and composes as
    U(t + s) = U(t) U(s).  An angle past the float range raises NumericalFailureError.
    """
    t = _checked("finite", t, "time")
    return _require_finite(_pauli_rotation_batch(fp, np.array([t]))[0], f"Pauli rotation at t = {t}")


@np.errstate(all="ignore")  # a square is a product: inf past the float range, not an OverflowError
def lambda_weights(spec: NoiseSpec, fp: FreePrecession) -> np.ndarray:
    """Resonance weights Lam_i = G_i / (lam_i^2 + omega0^2); NumericalFailureError unless finite."""
    lam = np.array(spec.lam)
    denominator = _require_finite(lam * lam + fp.omega0 * fp.omega0, "resonance denominator")
    return _require_finite(np.array(spec.g) / denominator, "resonance weights")


@np.errstate(all="ignore")  # as in lambda_weights
def c_matrix_closed(spec: NoiseSpec, fp: FreePrecession) -> CMatrix:
    """Closed-form damping matrix for exponential correlations.

    Integrating G_i e^{-lam_i t} against the rotation U(-t) term by term
    gives, with Lam_i = G_i / (lam_i^2 + omega0^2),

        C_ij = lam_i Lam_i [ delta_ij + (omega0^2 / lam_i^2) n_i n_j
                             + (omega0 / lam_i) eps_ijk n_k ].

    The expression is exact for any unit axis n; the test suite checks
    it against :func:`c_matrix_quadrature` over random configurations.
    """
    n = np.array(fp.n)
    lam = np.array(spec.lam)
    weights = lambda_weights(spec, fp)
    omega0 = fp.omega0
    base = lam * weights
    c = np.zeros((3, 3))
    outer = np.outer(n, n)
    eps_n = -_cross_matrix(n)  # eps_ijk n_k
    for i in range(3):
        c[i, :] = base[i] * (
            np.eye(3)[i, :]
            + (omega0 * omega0 / (lam[i] * lam[i])) * outer[i, :]
            + (omega0 / lam[i]) * eps_n[i, :]
        )
    return CMatrix(_require_finite(c, "damping matrix"))


def _quadrature_pass(spec: NoiseSpec, fp: FreePrecession, t_max: float, n_seg: int) -> np.ndarray:
    if n_seg > _MAX_PANELS:
        raise NumericalFailureError(f"damping-matrix quadrature needs over {_MAX_PANELS} panels")
    edges = np.linspace(0.0, t_max, n_seg + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (centers[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    u = _pauli_rotation_batch(fp, -nodes)
    damp = np.array(spec.g)[None, :] * np.exp(-np.outer(nodes, np.array(spec.lam)))
    return np.einsum("t,ti,tij->ij", weights, damp, u)


@np.errstate(all="ignore")  # a NaN residual does not converge, and is refused below
def c_matrix_quadrature(spec: NoiseSpec, fp: FreePrecession) -> CMatrix:
    """Damping matrix by direct numerical integration (oracle path).

    The integrand G_i e^{-lam_i t} U_ij(-t) is integrated over
    [0, 40 / min(lam)] (the discarded tail is bounded by e^{-40}) with
    composite Gauss-Legendre panels sized to resolve both the precession
    and the decay.  The panel count is doubled until two consecutive
    refinements agree within 1e-9 absolutely; failure to converge raises
    :class:`NumericalFailureError` carrying the last residual.  A pass that
    would take more than 65,536 panels, as a long correlation time or a fast
    precession asks for, raises it too, before anything is allocated.
    """
    t_max = 40.0 / min(spec.lam)  # floats: past the float range is inf, not a warning
    rate = abs(fp.omega0) + max(spec.lam)
    # clipped, as t_max * rate may be inf: the first pass refuses a count past the bound
    n_seg = math.ceil(min(t_max * rate / math.pi, _MAX_PANELS)) + 16
    prev = _quadrature_pass(spec, fp, t_max, n_seg)
    residual = math.inf
    for _ in range(4):
        n_seg *= 2
        cur = _quadrature_pass(spec, fp, t_max, n_seg)
        residual = float(np.max(np.abs(cur - prev)))
        if residual <= 0.5 * QUADRATURE_ABS_TOL:
            return CMatrix(cur)
        prev = cur
    raise NumericalFailureError(
        f"damping-matrix quadrature did not converge: residual estimate {residual:.3e} "
        f"exceeds {QUADRATURE_ABS_TOL:.1e} after {n_seg} panels"
    )


@np.errstate(all="ignore")  # a sum past the float range is refused
def _averaged_dynamics(spec: NoiseSpec, fp: FreePrecession):
    """(DissipativeParams, omega 3-vector) of the averaged dynamics, from one damping matrix.

    The parameters come from C + C^T, the vector as :func:`effective_hamiltonian`
    documents; either beyond the float range raises NumericalFailureError.
    """
    c = c_matrix_closed(spec, fp)
    m = c.matrix
    shift = np.array([m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]])
    omega = 0.5 * fp.omega0 * np.array(fp.n) + np.array(spec.mean) + shift
    params = params_from_kossakowski(c.symmetric_part())
    return params, _require_finite(omega, "precession vector")


def effective_hamiltonian(spec: NoiseSpec, fp: FreePrecession) -> np.ndarray:
    """Effective precession vector omega of the averaged dynamics.

    Three contributions add up: the bare precession (omega0 / 2) n, the
    mean field <F>, and the noise-induced (Lamb-type) shift
    h_k = eps_ijk C_ij built from the antisymmetric part of C.
    """
    return _averaged_dynamics(spec, fp)[1]


def _require_axis3_zero_mean(spec: NoiseSpec, fp: FreePrecession, op: str):
    n = fp.n
    if abs(n[0]) > TOL or abs(n[1]) > TOL or abs(n[2] - 1.0) > TOL:
        raise UnsupportedConfigurationError(
            f"{op} assumes precession about the circular axis n = (0, 0, 1); got n = {n}"
        )
    if any(abs(m) > TOL for m in spec.mean):
        raise UnsupportedConfigurationError(
            f"{op} assumes zero-mean noise; got mean = {spec.mean}"
        )


def simplified_params(spec: NoiseSpec, fp: FreePrecession):
    """Dissipative parameters and scalar precession for axis-3 zero-mean noise.

    Requires n = (0, 0, 1) and zero mean (within 1e-12); other
    configurations raise :class:`UnsupportedConfigurationError`.  Returns
    ``(DissipativeParams, omega)`` with

        a     = 2 lam2 Lam2 + 2 G3 / lam3
        alpha = 2 lam1 Lam1 + 2 G3 / lam3
        gamma = 2 lam1 Lam1 + 2 lam2 Lam2
        b     = omega0 (Lam2 - Lam1),   c = beta = 0
        omega = omega0 / 2 + omega0 (Lam1 + Lam2).
    """
    _require_axis3_zero_mean(spec, fp, "simplified_params")
    lam1, lam2, lam3 = spec.lam
    g3 = spec.g[2]
    w1, w2, _ = lambda_weights(spec, fp).tolist()  # floats: an overflow is inf, not a warning
    omega0 = fp.omega0
    a, b = 2.0 * lam2 * w2 + 2.0 * g3 / lam3, omega0 * (w2 - w1)
    alpha, gamma = 2.0 * lam1 * w1 + 2.0 * g3 / lam3, 2.0 * lam1 * w1 + 2.0 * lam2 * w2
    omega = 0.5 * omega0 + omega0 * (w1 + w2)
    _require_finite((a, b, alpha, gamma, omega), "simplified parameter set")
    return DissipativeParams(a, b, 0.0, alpha, 0.0, gamma), omega


def noise_cp_condition(spec: NoiseSpec, fp: FreePrecession) -> float:
    """Complete-positivity residual of the axis-3 zero-mean noise family.

    Returns 4 lam1 lam2 Lam1 Lam2 - omega0^2 (Lam2 - Lam1)^2, which is
    the determinant of the transverse block of the symmetrized damping
    matrix: the averaged dynamics is completely positive exactly when
    the residual is non-negative.  Preconditions as in
    :func:`simplified_params`.
    """
    _require_axis3_zero_mean(spec, fp, "noise_cp_condition")
    lam1, lam2, _ = spec.lam
    w1, w2, _ = lambda_weights(spec, fp).tolist()
    value = 4.0 * lam1 * lam2 * w1 * w2 - fp.omega0 * fp.omega0 * ((w2 - w1) * (w2 - w1))
    return _require_finite(value, "noise complete-positivity residual")
