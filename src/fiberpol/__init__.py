"""Photon-polarization decoherence in a noisy optical fiber.

The package models a single photon's polarization as it propagates
through a fiber whose birefringence fluctuates stochastically.  It
provides, in dependency order:

* ``states``      polarization states: Stokes vectors, density matrices,
  and the conversions between them;
* ``noise``       the fluctuating-birefringence model: exponentially
  correlated noise, its damping matrix by closed form and by quadrature,
  and the effective precession vector;
* ``generator``   the time-independent relaxation generator, its
  dissipative parameters, and the complete-positivity inequalities;
* ``propagator``  Mueller matrices for the averaged dynamics: exact
  matrix exponential, the closed form for axis-3 precession, and the
  mirrored backward pass;
* ``experiment``  the round-trip intensity ratio R(t) whose excess over
  one witnesses a non-completely-positive generator, plus relaxation
  times;
* ``montecarlo``  an independent stochastic-trajectory ensemble used to
  cross-check the averaged dynamics;
* ``cli``         a JSON-config command-line front end.
"""

from .errors import (
    ConfigError,
    FiberpolError,
    InvalidInputError,
    NumericalFailureError,
    SingularConfigurationError,
    UnsupportedConfigurationError,
)
from .experiment import (
    ExperimentResult,
    RelaxationTimes,
    RScanResult,
    r_observable,
    r_scan,
    relaxation_times,
)
from .generator import (
    CPResiduals,
    DissipativeParams,
    GeneratorMatrix,
    KossakowskiMatrix,
    build_generator,
    cp_inequalities,
    is_completely_positive,
    kossakowski_from_params,
    lindblad_apply,
    params_from_kossakowski,
)
from .montecarlo import (
    EnsembleTrajectory,
    MCComparisonReport,
    TrajectoryConfig,
    ensemble_average,
    evolve_trajectory,
    mc_double_pass,
    mc_vs_master_report,
    ou_step,
)
from .noise import (
    CMatrix,
    FreePrecession,
    NoiseSpec,
    c_matrix_closed,
    c_matrix_quadrature,
    correlation,
    effective_hamiltonian,
    lambda_weights,
    noise_cp_condition,
    pauli_rotation,
    simplified_params,
)
from .propagator import (
    MuellerMatrix,
    backward_mueller,
    double_pass,
    mueller_closed_form,
    mueller_exact,
)
from .states import (
    DensityMatrix,
    PureStateAngles,
    StokesVector,
    density_from_stokes,
    purity,
    stokes_from_angles,
    stokes_from_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FiberpolError",
    "InvalidInputError",
    "ConfigError",
    "UnsupportedConfigurationError",
    "SingularConfigurationError",
    "NumericalFailureError",
    # states
    "PureStateAngles",
    "StokesVector",
    "DensityMatrix",
    "stokes_from_angles",
    "density_from_stokes",
    "stokes_from_density",
    "purity",
    # noise
    "NoiseSpec",
    "FreePrecession",
    "CMatrix",
    "correlation",
    "pauli_rotation",
    "lambda_weights",
    "c_matrix_closed",
    "c_matrix_quadrature",
    "effective_hamiltonian",
    "simplified_params",
    "noise_cp_condition",
    # generator
    "DissipativeParams",
    "KossakowskiMatrix",
    "GeneratorMatrix",
    "CPResiduals",
    "kossakowski_from_params",
    "params_from_kossakowski",
    "build_generator",
    "cp_inequalities",
    "is_completely_positive",
    "lindblad_apply",
    # propagator
    "MuellerMatrix",
    "mueller_exact",
    "mueller_closed_form",
    "backward_mueller",
    "double_pass",
    # experiment
    "ExperimentResult",
    "RelaxationTimes",
    "RScanResult",
    "r_observable",
    "relaxation_times",
    "r_scan",
    # montecarlo
    "TrajectoryConfig",
    "EnsembleTrajectory",
    "MCComparisonReport",
    "ou_step",
    "evolve_trajectory",
    "ensemble_average",
    "mc_double_pass",
    "mc_vs_master_report",
]
