"""The rounding slack of every exact-in-exact-arithmetic check and CP verdict.

Each site is probed just inside and just outside its band: an offset of
5e-13 must pass a 1e-12 check and 5e-12 must fail it; 5e-11 must pass a
1e-10 complete-positivity verdict and 5e-10 must fail it.
"""

import ast
import json
import math
from pathlib import Path

import pytest

import fiberpol
from fiberpol import (
    DensityMatrix,
    DissipativeParams,
    FiberpolError,
    FreePrecession,
    KossakowskiMatrix,
    NoiseSpec,
    StokesVector,
    is_completely_positive,
    mueller_closed_form,
    r_observable,
    relaxation_times,
    simplified_params,
)
from fiberpol.cli import _mode_experiment, parse_config

SPEC = NoiseSpec(g=(0.5, 0.5, 0.2), lam=(1.0, 2.0, 3.0))
SYMMETRIC = dict(a=1.0, b=0.0, c=0.0, alpha=1.0, beta=0.0, gamma=2.0)


def accepts(call) -> bool:
    try:
        call()
    except FiberpolError:
        return False
    return True


def unit_ball(off):
    return StokesVector(1.0, math.sqrt(off), 0.0).is_physical()


def axis_norm(off):
    return accepts(lambda: FreePrecession(omega0=1.0, n=(0.0, 0.0, 1.0 + off)))


def axis3_axis(off):
    return accepts(lambda: simplified_params(SPEC, FreePrecession(omega0=1.0, n=(off, 0.0, 1.0))))


def axis3_mean(off):
    spec = NoiseSpec(g=SPEC.g, lam=SPEC.lam, mean=(0.0, off, 0.0))
    return accepts(lambda: simplified_params(spec, FreePrecession(omega0=1.0)))


def kossakowski_symmetry(off):
    return accepts(lambda: KossakowskiMatrix([[1.0, off, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def density_hermiticity(off):
    return accepts(lambda: DensityMatrix([[0.5, 0.1 + off], [0.1, 0.5]]))


def density_trace(off):
    return accepts(lambda: DensityMatrix([[0.5 + off, 0.0], [0.0, 0.5]]))


def closed_form_transverse(off):
    p = DissipativeParams(**dict(SYMMETRIC, beta=off))
    return accepts(lambda: mueller_closed_form(p, 1.0, 0.5))


def relaxation_regime_b(off):
    p = DissipativeParams(**dict(SYMMETRIC, b=off))
    return accepts(lambda: relaxation_times(p))


def relaxation_regime_rates(off):
    p = DissipativeParams(**dict(SYMMETRIC, alpha=1.0 + off))
    return accepts(lambda: relaxation_times(p))


def cli_experiment_omega(off):
    params = dict(SYMMETRIC, omega=[off, 0.0, 1.0])
    cfg = parse_config(json.dumps({"mode": "experiment", "params": params, "times": [0.3]}))
    return accepts(lambda: _mode_experiment(cfg))


def eigenvalue_verdict(off):
    # Kossakowski matrix diag(-off, 1, 1): R = (alpha + gamma - a) / 2 = -off
    p = DissipativeParams(a=2.0, b=0.0, c=0.0, alpha=1.0 - off, beta=0.0, gamma=1.0 - off)
    return is_completely_positive(p)


def r_verdict(off):
    # R(t) = exp(2 gamma t) with a = alpha = 0, so R(1/2) = 1 + off
    p = DissipativeParams(a=0.0, b=0.0, c=0.0, alpha=0.0, beta=0.0, gamma=math.log1p(off))
    result = r_observable(p, 1.0, 0.5)
    assert result.r_value == pytest.approx(1.0 + off, abs=1e-14)
    return result.cp_verdict


TOL_SITES = [unit_ball, axis_norm, axis3_axis, axis3_mean, kossakowski_symmetry,
             density_hermiticity, density_trace, closed_form_transverse, relaxation_regime_b,
             relaxation_regime_rates, cli_experiment_omega]
CP_TOL_SITES = [eigenvalue_verdict, r_verdict]


@pytest.mark.parametrize("site", TOL_SITES, ids=lambda f: f.__name__)
def test_exactness_checks_allow_1e_12(site):
    assert site(0.0)
    assert site(5e-13)
    assert not site(5e-12)


@pytest.mark.parametrize("site", CP_TOL_SITES, ids=lambda f: f.__name__)
def test_cp_verdicts_allow_1e_10(site):
    assert site(0.0)
    assert site(5e-11)
    assert not site(5e-10)


def test_tolerance_literals_live_only_in_errors():
    package = Path(fiberpol.__file__).parent
    stray = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value in (1e-12, 1e-10)
    ]
    assert stray == []
