"""The value types: every float and array field refuses NaN and +-inf, and a
computed overflow stays a numerical failure rather than invalid input."""

import dataclasses
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fiberpol
from fiberpol import (
    CMatrix,
    DensityMatrix,
    DissipativeParams,
    EnsembleTrajectory,
    ExperimentResult,
    FiberpolError,
    FreePrecession,
    GeneratorMatrix,
    InvalidInputError,
    KossakowskiMatrix,
    MCComparisonReport,
    MuellerMatrix,
    NoiseSpec,
    NumericalFailureError,
    PureStateAngles,
    RelaxationTimes,
    RScanResult,
    StokesVector,
    TrajectoryConfig,
    backward_mueller,
    build_generator,
    c_matrix_closed,
    c_matrix_quadrature,
    correlation,
    cp_inequalities,
    density_from_stokes,
    double_pass,
    effective_hamiltonian,
    ensemble_average,
    evolve_trajectory,
    is_completely_positive,
    kossakowski_from_params,
    lambda_weights,
    lindblad_apply,
    mc_double_pass,
    mc_vs_master_report,
    mueller_closed_form,
    mueller_exact,
    noise_cp_condition,
    ou_step,
    params_from_kossakowski,
    pauli_rotation,
    purity,
    r_observable,
    r_scan,
    relaxation_times,
    simplified_params,
    stokes_from_angles,
    stokes_from_density,
)
from fiberpol import experiment

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
UNIT = (st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
        .map(lambda v: tuple(x / math.hypot(*v) for x in v)))


def fields(**strategies):
    return st.fixed_dictionaries(strategies)


#: every public value type with a float field: keyword arguments drawn from
#: each field's whole domain, which holds non-CP parameter sets and vectors
#: outside the unit ball
KWARGS = {
    PureStateAngles: fields(theta=FINITE, phi=FINITE),
    StokesVector: fields(rho1=FINITE, rho2=FINITE, rho3=FINITE),
    DissipativeParams: fields(**dict.fromkeys(("a", "b", "c", "alpha", "beta", "gamma"), FINITE)),
    NoiseSpec: fields(g=st.tuples(*[NON_NEGATIVE] * 3), lam=st.tuples(*[POSITIVE] * 3),
                      mean=st.tuples(*[FINITE] * 3)),
    FreePrecession: fields(omega0=FINITE, n=UNIT),
    TrajectoryConfig: fields(dt=POSITIVE, n_steps=st.just(10), n_traj=st.just(100),
                             seed=st.just(1), initial=st.just(StokesVector(1.0, 0.0, 0.0))),
    MuellerMatrix: fields(matrix=st.just(np.eye(3)), t=FINITE),
}
#: results the library computes, not inputs: their floats carry no rules (a z score
#: of compare may be +-inf by design)
RESULTS = {ExperimentResult, RelaxationTimes, RScanResult, MCComparisonReport}
NON_FINITE = (math.nan, math.inf, -math.inf, 10**400)


def float_slots(cls):
    """(field, component or None) of every float in cls, read off its annotations."""
    return [(f.name, i) for f in dataclasses.fields(cls)
            for i in {"float": [None], "tuple[float, float, float]": [0, 1, 2]}.get(f.type, [])]


def test_every_public_value_type_is_drawn():
    public = [getattr(fiberpol, name) for name in fiberpol.__all__]
    with_floats = {cls for cls in public if dataclasses.is_dataclass(cls)
                   and any("float" in str(f.type) for f in dataclasses.fields(cls))}
    assert with_floats - RESULTS == set(KWARGS)
    assert all(float_slots(cls) for cls in KWARGS)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(list(KWARGS)).flatmap(lambda cls: st.tuples(st.just(cls), KWARGS[cls])))
@example(case=(DissipativeParams, dict(a=-1.0, b=2.0, c=0.0, alpha=-1.0, beta=0.0, gamma=-1.0)))
@example(case=(StokesVector, dict(rho1=2.0, rho2=-0.0, rho3=1e300)))
@example(case=(FreePrecession, dict(omega0=5e-324, n=(0.6, 0.0, 0.8))))
def test_float_fields_keep_finite_bits_and_refuse_the_rest(case):
    cls, kwargs = case
    value = cls(**kwargs)
    for name, component in float_slots(cls):
        given_, kept = kwargs[name], getattr(value, name)
        if component is not None:
            given_, kept = given_[component], kept[component]
        assert type(kept) is float and kept.hex() == float(given_).hex()
    for name, component in float_slots(cls):
        for bad in NON_FINITE:
            if component is None:
                changed = bad
            else:
                changed = list(kwargs[name])
                changed[component] = bad
            with pytest.raises(InvalidInputError, match="must be"):
                cls(**{**kwargs, name: changed})


ROWS = np.zeros((2, 3))
#: every public value type with an array field: keyword arguments it accepts
ARRAY_KWARGS = {
    KossakowskiMatrix: dict(matrix=np.eye(3)),
    DensityMatrix: dict(matrix=np.eye(2, dtype=complex) / 2.0),
    GeneratorMatrix: dict(matrix=np.eye(3), omega=np.zeros(3)),
    MuellerMatrix: dict(matrix=np.eye(3), t=0.5),
    CMatrix: dict(matrix=np.eye(3)),
    EnsembleTrajectory: dict(times=np.array([0.0, 0.1]), mean_stokes=ROWS, stderr=ROWS, n_traj=100),
    MCComparisonReport: dict(times=np.array([0.0, 0.1]), mc_mean=ROWS, mc_stderr=ROWS, master=ROWS,
                             z=ROWS, max_abs_z=0.0, frac_above_3=0.0),
}


def array_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if "ndarray" in str(f.type)]


def test_every_public_array_type_is_listed():
    public = [getattr(fiberpol, name) for name in fiberpol.__all__]
    with_arrays = {cls for cls in public if dataclasses.is_dataclass(cls) and array_fields(cls)}
    assert with_arrays == set(ARRAY_KWARGS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls", ARRAY_KWARGS, ids=lambda cls: cls.__name__)
def test_array_fields_refuse_non_finite_entries(cls, bad):
    kwargs = ARRAY_KWARGS[cls]
    for name in array_fields(cls):
        changed = np.array(kwargs[name])
        changed.flat[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (cls, name) == (MCComparisonReport, "z"):
                # opted out: a z score is +-inf where the two sides disagree at zero
                # standard error
                if not math.isnan(bad):
                    assert getattr(cls(**{**kwargs, name: changed}), name).flat[-1] == bad
                continue
            with pytest.raises(InvalidInputError, match="must have finite entries"):
                cls(**{**kwargs, name: changed})


TRAJECTORY = dict(dt=0.01, n_steps=10, n_traj=100, seed=1)
#: values that are not numbers at all, or not as many as a field holds
NOT_NUMBERS = {
    "NoiseSpec-scalar-g": (lambda: NoiseSpec(g=5.0, lam=(1, 1, 1)), "g must have 3 components"),
    "FreePrecession-None-n": (lambda: FreePrecession(1.0, n=None), "n must have 3 components"),
    "KossakowskiMatrix-string": (lambda: KossakowskiMatrix("abc"),
                                 "Kossakowski matrix must be an array of numbers"),
    "KossakowskiMatrix-ragged": (lambda: KossakowskiMatrix([[1, 2, 3], [3]]),
                                 "Kossakowski matrix must be an array of numbers"),
    "KossakowskiMatrix-huge-int": (lambda: KossakowskiMatrix([[10**400] * 3] * 3),
                                   "Kossakowski matrix must have finite entries"),
    "StokesVector-object": (lambda: StokesVector.from_array(object()),
                            "Stokes vector must be an array of numbers"),
    "TrajectoryConfig-string-initial": (lambda: TrajectoryConfig(**TRAJECTORY, initial="abc"),
                                        "initial must be an array of numbers"),
    "ou_step-string-g": (lambda: ou_step(0.0, "a", 1.0, 0.1, 0.0),
                         "g must hold one or more numbers"),
    "ou_step-empty-g": (lambda: ou_step(0.0, [], 1.0, 0.1, 0.0), "g must hold one or more numbers"),
}


@pytest.mark.parametrize("call, message", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_values_that_are_not_numbers_are_refused_by_name(call, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


P = DissipativeParams(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=1.0)
SPEC = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
#: each public function's time argument, and the name its refusal gives
TIME_ARGUMENTS = {
    "mueller_exact": (lambda t: mueller_exact(build_generator(P, (0.0, 0.0, 1.0)), t),
                      "evolution time"),
    "mueller_closed_form": (lambda t: mueller_closed_form(P, 1.0, t), "evolution time"),
    "backward_mueller": (lambda t: backward_mueller(P, 1.0, t), "evolution time"),
    "double_pass": (lambda t: double_pass(P, 1.0, t, StokesVector(1.0, 0.0, 0.0)),
                    "evolution time"),
    "r_observable": (lambda t: r_observable(P, 1.0, t), "time"),
    "r_scan": (lambda t: r_scan(P, 1.0, [0.5, t]), "time"),
    "pauli_rotation": (lambda t: pauli_rotation(FreePrecession(1.0), t), "time"),
    "correlation": (lambda t: correlation(SPEC, 1, 1, t), "time"),
}
NOT_TIMES = {"string": "0.5", "None": None, "bool": True, "list": [0.5], "nan": math.nan,
             "inf": math.inf, "10**400": 10**400}
#: a public function argument the number or array rule refuses: the call, and how its
#: refusal begins
REFUSED_ARGUMENTS = {
    **{f"{fn}-{kind}": (partial(call, bad), f"{name} must be ")
       for fn, (call, name) in TIME_ARGUMENTS.items() for kind, bad in NOT_TIMES.items()},
    "ou_step-string-f_prev": (lambda: ou_step("a", 1.0, 1.0, 0.1, 0.0), "f_prev must "),
    "ou_step-nan-f_prev": (lambda: ou_step(math.nan, 1.0, 1.0, 0.1, 0.0), "f_prev must be "),
    "ou_step-string-noise": (lambda: ou_step(0.0, 1.0, 1.0, 0.1, "x"), "noise must "),
    "ou_step-nan-noise": (lambda: ou_step(0.0, 1.0, 1.0, 0.1, math.nan), "noise must be "),
    "correlation-bool-axis": (lambda: correlation(SPEC, True, 1, 0.0), "i must be an integer"),
    "correlation-float-axis": (lambda: correlation(SPEC, 1, 1.0, 0.0), "j must be an integer"),
    "StokesVector-strings": (lambda: StokesVector.from_array(["1", "0", "0"]),
                             "Stokes vector must be an array of numbers"),
    "StokesVector-bools": (lambda: StokesVector.from_array([True, False, False]),
                           "Stokes vector must be an array of numbers"),
    # numpy upcasts the list to int64, so the bool shows only entry by entry
    "StokesVector-bool-among-numbers": (lambda: StokesVector.from_array([1, True, 0]),
                                        "Stokes vector must be an array of numbers"),
    "MuellerMatrix-strings": (lambda: MuellerMatrix([["1", "0", "0"]] * 3, 0.0),
                              "Mueller matrix must be an array of numbers"),
}


@pytest.mark.parametrize("call, start", REFUSED_ARGUMENTS.values(), ids=REFUSED_ARGUMENTS)
def test_public_arguments_are_refused_by_name(call, start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no raw numpy warning first
        with pytest.raises(InvalidInputError, match=f"^{re.escape(start)}"):
            call()


def _fake_r_point(p, omega, t):
    forward = np.eye(3)
    forward[0, 0] = math.inf
    return forward, np.zeros(3), 0.5, 0.5, True


OVERFLOW = np.diag([1e308, 1e308, 1e308])
# a = alpha = -345: each pass grows by e^690, about 1e300, so the round trip overflows
GROWING = DissipativeParams(a=-345.0, b=0.0, c=0.0, alpha=-345.0, beta=0.0, gamma=0.0)
NOISE = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
#: computed overflows refused without a raw warning whatever numpy's error state
QUIET = {
    "MuellerMatrix.apply": lambda: MuellerMatrix(np.full((3, 3), 1e308), 0.5).apply(
        StokesVector(1.0, 1.0, 0.0)),
    "MuellerMatrix.matmul": lambda: MuellerMatrix(np.eye(3), 1e308) @ MuellerMatrix(np.eye(3), 1e308),
    "double_pass": lambda: double_pass(GROWING, 1.0, 1.0, StokesVector(1.0, 0.0, 0.0)),
    "kossakowski_from_params": lambda: kossakowski_from_params(
        DissipativeParams(a=-1e308, b=0.0, c=0.0, alpha=1e308, beta=0.0, gamma=1e308)),
    "simplified_params": lambda: simplified_params(
        NoiseSpec(g=(1.0, 1.0, 1.7e308), lam=(1.0, 1.0, 1e-300)), FreePrecession(1.0)),
    # the CLI's mueller-divide edge: the damping matrix overflows
    "effective_hamiltonian": lambda: effective_hamiltonian(
        NoiseSpec(g=(1e154, 1e154, 1.0), lam=(1.0, 1e-300, 1e154)), FreePrecession(0.0)),
    "stokes_from_density": lambda: stokes_from_density(
        DensityMatrix([[0.5, 1e308], [1e308, 0.5]])),
    "build_generator": lambda: build_generator(DissipativeParams(0.0, 1e308, 0.0, 0.0, 0.0, 0.0),
                                               [0.0, 0.0, 1e308]),
    "MuellerMatrix.matmul-entries": lambda: (MuellerMatrix(np.eye(3) * 1e200, 0.0)
                                             @ MuellerMatrix(np.eye(3) * 1e200, 0.0)),
    # a = -1009 and alpha = 300 at omega = 654.5: Omega = 0, and M12 passes the float range at t = 1
    "mueller_closed_form": lambda: mueller_closed_form(
        DissipativeParams(-1009.0, 0.0, 0.0, 300.0, 0.0, 0.0), 654.5, 1.0),
    # omega0 = 1e200: its square passes the float range
    "c_matrix_closed-omega0": lambda: c_matrix_closed(NOISE, FreePrecession(1e200)),
    # omega0 t passes the float range, and cos and sin of inf are NaN
    "pauli_rotation": lambda: pauli_rotation(FreePrecession(1e200), 1e200),
    "effective_hamiltonian-omega0": lambda: effective_hamiltonian(NOISE, FreePrecession(1e200)),
    "noise_cp_condition-omega0": lambda: noise_cp_condition(NOISE, FreePrecession(1e200)),
    "simplified_params-omega0": lambda: simplified_params(NOISE, FreePrecession(1e200)),
    # Lam1 = Lam2 = 1e308: their sum passes the float range
    "simplified_params-weights": lambda: simplified_params(
        NoiseSpec(g=(1e308, 1e308, 0.0), lam=(1e-300, 1e-300, 1.0)), FreePrecession(1.0)),
    "noise_cp_condition-weights": lambda: noise_cp_condition(
        NoiseSpec(g=(1e308, 1e308, 0.0), lam=(1.0, 1.0, 1.0)), FreePrecession(1e-150)),
    # lam1^2 + omega0^2 underflows to 0
    "lambda_weights": lambda: lambda_weights(NoiseSpec(g=(1.0, 1.0, 1.0), lam=(1e-300, 1.0, 1.0)),
                                             FreePrecession(0.0)),
    "relaxation_times": lambda: relaxation_times(
        DissipativeParams(1e-320, 0.0, 0.0, 1e-320, 0.0, 1e-320)),
    "params_from_kossakowski": lambda: params_from_kossakowski(OVERFLOW),
    "CMatrix.symmetric_part": lambda: CMatrix(np.full((3, 3), 1e308)).symmetric_part(),
    # b^2 and its siblings pass the float range
    "cp_inequalities": lambda: cp_inequalities(DissipativeParams(*[1e300] * 6)),
    # sqrt(g) times a finite noise passes the float range
    "ou_step": lambda: ou_step(0.0, 1e300, 1.0, 1.0, 1e300),
    # dt * lam stays small, but 300 steps of 1e306 pass the float range
    "ensemble_average-times": lambda: ensemble_average(
        NoiseSpec(g=(0.0, 0.0, 0.0), lam=(1e-310,) * 3), FreePrecession(0.0),
        TrajectoryConfig(dt=1e306, n_steps=300, n_traj=100, seed=1, initial=(1.0, 0.0, 0.0))),
}


@pytest.mark.parametrize("call", QUIET.values(), ids=QUIET)
def test_computed_overflow_is_a_numerical_failure(call):
    # numpy's error state as it is by default, and any warning is an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="is not finite"):
            call()


#: values at the edges of the float range: zero, subnormal, tiny, a square root of
#: the largest float and just past it, huge, and the largest floats
EDGES = [0.0, 5e-324, 1e-300, 1.0, 1e154, 1e155, 1e200, 1e307, 1.7e308]
EDGE = st.sampled_from(EDGES + [-v for v in EDGES[1:]])
EDGE_NON_NEGATIVE, EDGE_POSITIVE = st.sampled_from(EDGES), st.sampled_from(EDGES[1:])
EDGE3, ZERO_OR_EDGE = st.tuples(EDGE, EDGE, EDGE), st.just(0.0) | EDGE
AXES = st.sampled_from([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8)])
#: g, lam, mean, omega0, n: g and lam keep the signs validation allows, and the
#: mean leans towards zero, which the axis-3 formulas and round trips need
NOISE_ARGS = st.tuples(st.tuples(*[EDGE_NON_NEGATIVE] * 3), st.tuples(*[EDGE_POSITIVE] * 3),
                       st.just((0.0, 0.0, 0.0)) | EDGE3, EDGE, AXES)
#: a, b, c, alpha, beta, gamma: c and beta lean towards the zero the closed form needs
PARAMS_ARGS = st.tuples(EDGE, EDGE, ZERO_OR_EDGE, EDGE, ZERO_OR_EDGE, EDGE)
#: a trajectory config: dt, n_steps, seed, with n_traj at its least
TRAJECTORY_ARGS = st.tuples(EDGE_POSITIVE, st.integers(1, 3), st.integers(0, 3))


def _noise(g, lam, mean, omega0, n):
    return NoiseSpec(g, lam, mean), FreePrecession(omega0, n)


def _symmetric(k11, k22, k33, k12, k13, k23):
    return np.array([[k11, k12, k13], [k12, k22, k23], [k13, k23, k33]])


def _density(e00, re, im):
    """The Hermitian unit-trace matrix with e00 on the diagonal and re + i im above it."""
    return np.array([[e00, complex(re, im)], [complex(re, -im), 1.0 - e00]])


def _stochastic(run):
    def call(args):
        noise, (dt, n_steps, seed) = args
        cfg = TrajectoryConfig(dt=dt, n_steps=n_steps, n_traj=100, seed=seed,
                               initial=StokesVector(1.0, 0.0, 0.0))
        return run(*_noise(*noise), cfg)
    return call


#: every public numeric function and method: the call on its raw arguments, and
#: the strategy of those arguments
SWEEP = {
    "stokes_from_angles": (lambda a: stokes_from_angles(PureStateAngles(*a)), st.tuples(EDGE, EDGE)),
    "density_from_stokes": (lambda r: density_from_stokes(StokesVector(*r)), EDGE3),
    "stokes_from_density": (lambda e: stokes_from_density(_density(*e)), EDGE3),
    "DensityMatrix.is_physical": (lambda e: DensityMatrix(_density(*e)).is_physical(), EDGE3),
    "purity": (lambda r: purity(StokesVector(*r)), EDGE3),
    "StokesVector.norm": (lambda r: StokesVector(*r).norm(), EDGE3),
    "StokesVector.is_physical": (lambda r: StokesVector(*r).is_physical(), EDGE3),
    "correlation": (lambda a: correlation(_noise(*a[0])[0], 1, 1, a[1]), st.tuples(NOISE_ARGS, EDGE)),
    "pauli_rotation": (lambda a: pauli_rotation(FreePrecession(a[0], a[1]), a[2]),
                       st.tuples(EDGE, AXES, EDGE)),
    "lambda_weights": (lambda a: lambda_weights(*_noise(*a)), NOISE_ARGS),
    "c_matrix_closed": (lambda a: c_matrix_closed(*_noise(*a)), NOISE_ARGS),
    "c_matrix_quadrature": (lambda a: c_matrix_quadrature(*_noise(*a)), NOISE_ARGS),
    "CMatrix.symmetric_part": (lambda a: CMatrix(np.reshape(a, (3, 3))).symmetric_part(),
                               st.tuples(*[EDGE] * 9)),
    "effective_hamiltonian": (lambda a: effective_hamiltonian(*_noise(*a)), NOISE_ARGS),
    "simplified_params": (lambda a: simplified_params(*_noise(*a)), NOISE_ARGS),
    "noise_cp_condition": (lambda a: noise_cp_condition(*_noise(*a)), NOISE_ARGS),
    "kossakowski_from_params": (lambda a: kossakowski_from_params(DissipativeParams(*a)),
                                PARAMS_ARGS),
    "params_from_kossakowski": (lambda a: params_from_kossakowski(_symmetric(*a)), PARAMS_ARGS),
    "build_generator": (lambda a: build_generator(DissipativeParams(*a[0]), a[1]),
                        st.tuples(PARAMS_ARGS, EDGE3)),
    "cp_inequalities": (lambda a: cp_inequalities(DissipativeParams(*a)), PARAMS_ARGS),
    "is_completely_positive": (lambda a: is_completely_positive(DissipativeParams(*a)), PARAMS_ARGS),
    "lindblad_apply": (lambda a: lindblad_apply(KossakowskiMatrix(_symmetric(*a[0])), a[1],
                                                density_from_stokes(StokesVector(*a[2]))),
                       st.tuples(PARAMS_ARGS, EDGE3, EDGE3)),
    "mueller_exact": (lambda a: mueller_exact(build_generator(DissipativeParams(*a[0]), a[1]), a[2]),
                      st.tuples(PARAMS_ARGS, EDGE3, EDGE_NON_NEGATIVE)),
    "mueller_closed_form": (lambda a: mueller_closed_form(DissipativeParams(*a[0]), a[1], a[2]),
                            st.tuples(PARAMS_ARGS, EDGE, EDGE_NON_NEGATIVE)),
    "backward_mueller": (lambda a: backward_mueller(DissipativeParams(*a[0]), a[1], a[2]),
                         st.tuples(PARAMS_ARGS, EDGE, EDGE_NON_NEGATIVE)),
    "MuellerMatrix.apply": (lambda a: MuellerMatrix(np.reshape(a[0], (3, 3)), 0.0).apply(
        StokesVector(*a[1])), st.tuples(st.tuples(*[EDGE] * 9), EDGE3)),
    "MuellerMatrix.matmul": (lambda a: MuellerMatrix(np.reshape(a[0], (3, 3)), a[1])
                             @ MuellerMatrix(np.reshape(a[0], (3, 3)), a[1]),
                             st.tuples(st.tuples(*[EDGE] * 9), EDGE)),
    "double_pass": (lambda a: double_pass(DissipativeParams(*a[0]), a[1], a[2], StokesVector(*a[3])),
                    st.tuples(PARAMS_ARGS, EDGE, EDGE_NON_NEGATIVE, EDGE3)),
    "r_observable": (lambda a: r_observable(DissipativeParams(*a[0]), a[1], a[2]),
                     st.tuples(PARAMS_ARGS, EDGE, EDGE_POSITIVE)),
    "relaxation_times": (lambda a: relaxation_times(DissipativeParams(*a)), PARAMS_ARGS),
    "r_scan": (lambda a: r_scan(DissipativeParams(*a[0]), a[1], a[2]),
               st.tuples(PARAMS_ARGS, EDGE, st.lists(EDGE_POSITIVE, min_size=1, max_size=3,
                                                     unique=True).map(sorted))),
    "ou_step": (lambda a: ou_step(*a), st.tuples(EDGE, EDGE_NON_NEGATIVE, EDGE_POSITIVE,
                                                 EDGE_POSITIVE, EDGE)),
    "evolve_trajectory": (_stochastic(lambda spec, fp, cfg: evolve_trajectory(spec, fp, cfg, 99)),
                          st.tuples(NOISE_ARGS, TRAJECTORY_ARGS)),
    "ensemble_average": (_stochastic(ensemble_average), st.tuples(NOISE_ARGS, TRAJECTORY_ARGS)),
    "mc_double_pass": (_stochastic(mc_double_pass), st.tuples(NOISE_ARGS, TRAJECTORY_ARGS)),
    "mc_vs_master_report": (_stochastic(mc_vs_master_report), st.tuples(NOISE_ARGS, TRAJECTORY_ARGS)),
}
#: what a result may hold that is not finite by design: compare's z scores
NOT_FINITE_BY_DESIGN = {"z", "max_abs_z"}


def _numbers(value) -> list:
    """Every number a result holds, those of NOT_FINITE_BY_DESIGN aside."""
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) if f.name not in NOT_FINITE_BY_DESIGN
                for x in _numbers(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _numbers(v)]
    return np.ravel(value).tolist()


def test_every_public_function_is_swept():
    public = {name for name in fiberpol.__all__ if callable(getattr(fiberpol, name))
              and not isinstance(getattr(fiberpol, name), type)}
    assert public <= set(SWEEP)


# the five inputs that raised a raw numpy warning while a blanket error state
# in the CLI hid them
@settings(max_examples=600, deadline=None)
@example(call=("c_matrix_closed", ((0.0, 0.0, 0.0), (1.0, 1.0, 1e-300), (0.0, 0.0, 0.0), 1.0,
                                   (0.0, 0.0, 1.0))))
@example(call=("effective_hamiltonian", ((1e154, 1e154, 1.7e308), (1e100, 1.0, 1.0),
                                         (1e155, 1.7e308, 1e200), 1e100, (0.6, 0.0, 0.8))))
@example(call=("c_matrix_quadrature", ((1e307,) * 3, (1e-160,) * 3, (0.0, 0.0, 0.0), -1e-160,
                                       (0.6, 0.0, 0.8))))
@example(call=("stokes_from_density", (0.5, 1e308, 0.0)))
@example(call=("lindblad_apply", ((1e308, 1e308, 1e308, 0.0, 0.0, 0.0), (1e308, 0.0, 0.0),
                                  (1.0, 0.0, 0.0))))
@given(call=st.sampled_from(list(SWEEP)).flatmap(lambda name: st.tuples(st.just(name),
                                                                          SWEEP[name][1])))
def test_public_functions_at_the_float_edges_end_in_finite_results_or_typed_errors(call):
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = SWEEP[name][0](args)
        except FiberpolError:
            return
    assert np.isfinite(_numbers(result)).all(), (name, args, result)


def test_ou_step_past_the_float_range_decays_without_a_warning():
    # lam dt passes the float range: the field decays to e^-inf = 0 in one step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ou_step(0.0, 1.0, 1e200, 1e200, 0.0) == 0.0


def test_large_finite_gaps_are_refused_without_a_warning():
    # the symmetry and Hermiticity gaps pass the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="symmetric"):
            KossakowskiMatrix(np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            DensityMatrix(np.array([[0.5, 1e308], [-1e308, 0.5]]))


def test_r_observable_checks_its_probes(monkeypatch):
    monkeypatch.setattr(experiment, "_r_point", _fake_r_point)
    with pytest.raises(NumericalFailureError, match="probe's Stokes vector at t = 0.5 is not finite"):
        r_observable(GROWING, 1.0, 0.5)
