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
    correlation,
    cp_inequalities,
    double_pass,
    effective_hamiltonian,
    ensemble_average,
    kossakowski_from_params,
    lambda_weights,
    mueller_closed_form,
    mueller_exact,
    noise_cp_condition,
    ou_step,
    params_from_kossakowski,
    pauli_rotation,
    r_observable,
    r_scan,
    relaxation_times,
    simplified_params,
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
COMPUTED = {
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
}


NOISE = NoiseSpec(g=(0.05, 0.02, 0.04), lam=(2.0, 2.0, 2.0))
#: computed overflows refused without a raw warning whatever numpy's error state
QUIET = {
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


@pytest.mark.parametrize("call, quiet", [*((call, False) for call in COMPUTED.values()),
                                         *((call, True) for call in QUIET.values())],
                         ids=[*COMPUTED, *QUIET])
def test_computed_overflow_is_a_numerical_failure(call, quiet):
    # as in the CLI, numpy's own overflow warnings are off for COMPUTED; QUIET
    # keeps numpy's error state, and any warning is an error
    with warnings.catch_warnings(), np.errstate(**({} if quiet else {"all": "ignore"})):
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="is not finite"):
            call()


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
