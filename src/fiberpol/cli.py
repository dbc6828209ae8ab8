"""Command-line front end: JSON config in, CSV or JSON table out.

Usage::

    fiberpol --config run.json [--mode MODE] [--seed N] [--out PATH]
             [--format csv|json]

Config schema (JSON object; unknown keys are rejected; every number must
be finite)::

    {
      "mode": "evolve" | "mueller" | "cp-check" | "experiment"
              | "montecarlo" | "compare",
      "noise":      {"g": [g1,g2,g3], "lam": [l1,l2,l3],
                     "mean": [m1,m2,m3]},            # mean optional, default 0
      "precession": {"omega0": w0, "n": [n1,n2,n3]}, # n optional, default axis 3
      "params":     {"a":..,"b":..,"c":..,"alpha":..,"beta":..,"gamma":..,
                     "omega": w or [w1,w2,w3]},      # explicit-generator route
      "times":      [t1, t2, ...] | {"start": s, "stop": e, "count": n},
      "initial":    [s1, s2, s3],                    # default [1, 0, 0]
      "trajectory": {"dt":.., "n_steps":.., "n_traj":.., "seed":..,
                     "double_pass": false},          # double_pass optional
      "output":     {"path": "out.csv", "format": "csv" | "json"}  # both optional
    }

The fields of each block are declared once, in ``_SCHEMA``.  Modes that
need a generator (evolve, mueller, cp-check, experiment) take exactly
one of "noise"+"precession" or "params"; the stochastic modes
(montecarlo, compare) take "noise"+"precession"+"trajectory" and no
explicit params.  Command-line flags override the corresponding config
fields before the config is validated.  The stochastic modes split their
trajectories over every CPU in the process's affinity mask; the output
bytes do not depend on the count.

Output contract: the first CSV line is a "# metadata: {...}" record
(config digest, package version, seed), then a header row, then data
rows, LF line endings; JSON output is an object with the same metadata,
the column list, and an array of records.  All floating-point values
are written with 17 significant digits in both formats, so a run is
byte-reproducible and the two encodings carry identical numbers.
Verdicts are emitted as data (true/false), never as exit codes.
Diagnostics go to stderr as one JSON record per line.  Exit codes:
0 success, 2 invalid input or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .errors import (
    TOL,
    ConfigError,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedConfigurationError,
    _checked,
)
from .experiment import r_scan
from .generator import (
    DissipativeParams,
    build_generator,
    cp_inequalities,
    is_completely_positive,
    kossakowski_from_params,
)
from .montecarlo import (
    TrajectoryConfig,
    _available_cpus,
    ensemble_average,
    mc_double_pass,
    mc_vs_master_report,
)
from .noise import FreePrecession, NoiseSpec, _averaged_dynamics, noise_cp_condition
from .propagator import mueller_exact
from .states import StokesVector

#: output rows a run may build: a {start, stop, count} grid is expanded in
#: memory before anything runs, and montecarlo writes one row per step
_MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    mode: str
    noise: NoiseSpec | None
    precession: FreePrecession | None
    params: DissipativeParams | None
    params_omega: tuple[float, float, float] | None
    times: tuple[float, ...] | None
    initial: StokesVector
    trajectory: TrajectoryConfig | None
    round_trip: bool
    output_path: str | None
    output_format: str
    config_digest: str


# ---------------------------------------------------------------------------
# config schema


#: parsers (value, path) -> value: the library's value rules, named by the path
_number, _non_negative, _integer = (partial(_checked, r) for r in ("finite", "non-negative", "integer"))


def _vec3(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path} must be a list of 3 numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _omega(value, path: str) -> tuple[float, float, float]:
    """A precession 3-vector, or a number: the rate about axis 3."""
    return _vec3(value, path) if isinstance(value, list) else (0.0, 0.0, _number(value, path))


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    return value


def _format(value, path: str) -> str:
    if value not in ("csv", "json"):
        raise ConfigError(f"{path} must be 'csv' or 'json'")
    return value


_REQUIRED = object()

#: block -> field -> (parser, default or _REQUIRED); "times" is the grid form
_SCHEMA = {
    "noise": {"g": (_vec3, _REQUIRED), "lam": (_vec3, _REQUIRED), "mean": (_vec3, (0.0, 0.0, 0.0))},
    "precession": {"omega0": (_number, _REQUIRED), "n": (_vec3, (0.0, 0.0, 1.0))},
    "params": {
        **{name: (_number, _REQUIRED) for name in ("a", "b", "c", "alpha", "beta", "gamma")},
        "omega": (_omega, _REQUIRED),
    },
    # with start >= 0, stop - start and so the grid stay within the float range
    "times": {"start": (_non_negative, _REQUIRED), "stop": (_number, _REQUIRED),
              "count": (_integer, _REQUIRED)},
    "trajectory": {
        "dt": (_number, _REQUIRED),
        "n_steps": (_integer, _REQUIRED),
        "n_traj": (_integer, _REQUIRED),
        "seed": (_integer, _REQUIRED),
        "double_pass": (_boolean, False),
    },
    "output": {"path": (_string, None), "format": (_format, "csv")},
}


def _fields(block, fields: dict, name: str) -> dict:
    """Every field of a block, parsed, with defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    for key in block:
        if key not in fields:
            raise ConfigError(f"unknown field {name}.{key!r}")
    parsed = {}
    for key, (parse, default) in fields.items():
        if key in block:
            parsed[key] = parse(block[key], f"{name}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{name}.{key} is required")
        else:
            parsed[key] = default
    return parsed


def _times(value) -> tuple[float, ...]:
    if isinstance(value, dict):
        grid = _fields(value, _SCHEMA["times"], "times")
        start, stop, count = grid["start"], grid["stop"], grid["count"]
        if count < 2:
            raise ConfigError("times.count must be at least 2")
        if count > _MAX_GRID_POINTS:
            raise ConfigError(f"times.count must be at most {_MAX_GRID_POINTS}")
        if not stop > start:
            raise ConfigError("times.stop must exceed times.start")
        with np.errstate(over="ignore"):  # only the last point overflows, and it is set to stop
            times = np.linspace(start, stop, count).tolist()
    elif isinstance(value, list):
        if not value:
            raise ConfigError("times must not be empty")
        times = [_non_negative(v, f"times[{i}]") for i, v in enumerate(value)]
    else:
        raise ConfigError("times must be a list of numbers or {start, stop, count}")
    for earlier, later in zip(times, times[1:]):
        if not later > earlier:
            raise ConfigError("times must be strictly increasing")
    return tuple(times)


def _load(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError("config syntax error: nesting too deep") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    obj = _load(text)
    for key in obj:
        if key not in ("mode", "initial", *_SCHEMA):
            raise ConfigError(f"unknown field {key!r}")
    mode = obj.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}")
    _, stochastic, timed = _MODES[mode]

    # the parsed, defaults-filled config, which the digest covers
    blocks = {name: _fields(obj[name], _SCHEMA[name], name)
              for name in ("noise", "precession", "params", "trajectory") if name in obj}
    if "times" in obj:
        blocks["times"] = _times(obj["times"])
    blocks["initial"] = _vec3(obj["initial"], "initial") if "initial" in obj else (1.0, 0.0, 0.0)
    output = _fields(obj.get("output", {}), _SCHEMA["output"], "output")

    noise = precession = params = params_omega = trajectory = None
    if "noise" in blocks:
        if "precession" not in blocks:
            raise ConfigError("precession is required alongside noise")
        noise = NoiseSpec(**blocks["noise"])
        precession = FreePrecession(**blocks["precession"])
    elif "precession" in blocks:
        raise ConfigError("precession is only meaningful together with noise")
    if "params" in blocks:
        coefficients = dict(blocks["params"])
        params_omega = coefficients.pop("omega")
        params = DissipativeParams(**coefficients)

    if not stochastic:
        if (noise is None) == (params is None):
            raise ConfigError(f"mode {mode!r} needs exactly one of noise or params")
    else:
        if noise is None:
            raise ConfigError(f"mode {mode!r} needs noise and precession")
        if params is not None:
            raise ConfigError(
                f"mode {mode!r} derives its dynamics from noise; params is not allowed"
            )
    if timed and "times" not in blocks:
        raise ConfigError(f"mode {mode!r} requires times")

    initial = StokesVector(*blocks["initial"])
    if not initial.is_physical():
        raise ConfigError("initial must lie in the unit ball (within 1e-12)")
    round_trip = False
    if "trajectory" in blocks:
        steps = dict(blocks["trajectory"])
        round_trip = steps.pop("double_pass")
        try:
            trajectory = TrajectoryConfig(**steps, initial=initial)
        except InvalidInputError as exc:
            raise ConfigError(f"trajectory: {exc}") from exc
    if stochastic and trajectory is None:
        raise ConfigError(f"mode {mode!r} requires a trajectory block")
    if mode == "montecarlo":
        n_rows = (2 if round_trip else 1) * trajectory.n_steps + 1
        if n_rows > _MAX_GRID_POINTS:
            raise ConfigError(f"trajectory: montecarlo would write {n_rows} rows, "
                              f"more than {_MAX_GRID_POINTS}; use fewer steps")

    digested = {name: dict(sorted(value.items())) if isinstance(value, dict) else value
                for name, value in sorted({"mode": mode, **blocks}.items())}
    return RunConfig(
        mode=mode,
        noise=noise,
        precession=precession,
        params=params,
        params_omega=params_omega,
        times=blocks.get("times"),
        initial=initial,
        trajectory=trajectory,
        round_trip=round_trip,
        output_path=output["path"],
        output_format=output["format"],
        config_digest=hashlib.sha256(_json_value(digested).encode()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return f"{x:.17g}"
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _csv_cell(value) -> str:
    """Empty for a missing value, a bare number for a float, JSON text otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt_float(value)
    return _json_value(value)


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value) if math.isfinite(value) else json.dumps(_fmt_float(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_csv(metadata: dict, columns: list[str], rows: list[list]) -> str:
    lines = ["# metadata: " + _json_value(metadata), ",".join(columns)]
    lines += [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _render_json(metadata: dict, columns: list[str], rows: list[list]) -> str:
    keys = [json.dumps(c) + ": " for c in columns]
    parts = [
        '"metadata": ' + _json_value(metadata),
        '"columns": ' + _json_value(columns),
        '"records": ['
        + ", ".join(
            "{" + ", ".join(k + _json_value(v) for k, v in zip(keys, row)) + "}" for row in rows
        )
        + "]",
    ]
    return "{" + ", ".join(parts) + "}\n"


def _diagnostic(level: str, code: str, message: str):
    record = {"level": level, "code": code, "message": message}
    sys.stderr.write(_json_value(record) + "\n")


# ---------------------------------------------------------------------------
# mode handlers


def _generator_pieces(cfg: RunConfig):
    """(params, omega 3-vector) from whichever route the config supplies."""
    if cfg.params is not None:
        return cfg.params, np.array(cfg.params_omega)
    return _averaged_dynamics(cfg.noise, cfg.precession)


def _table(times, **stems):
    """A mode's table with columns t, <stem>1, <stem>2, <stem>3 per stem, and no extras.

    Each stem is a (len(times), 3) array; values are copied, not recomputed.
    """
    columns = ["t"] + [f"{stem}{i}" for stem in stems for i in (1, 2, 3)]
    return columns, np.column_stack([times, *stems.values()]).tolist(), {}


def _mode_evolve(cfg: RunConfig):
    gen = build_generator(*_generator_pieces(cfg))
    s0 = cfg.initial.as_array()
    return _table(cfg.times, rho=[mueller_exact(gen, t).matrix @ s0 for t in cfg.times])


def _mode_mueller(cfg: RunConfig):
    gen = build_generator(*_generator_pieces(cfg))
    m = np.array([mueller_exact(gen, t).matrix for t in cfg.times])
    return _table(cfg.times, m1=m[:, 0], m2=m[:, 1], m3=m[:, 2])


def _mode_cp_check(cfg: RunConfig):
    params, _ = _generator_pieces(cfg)
    residuals = cp_inequalities(params)._asdict()
    noise_residual = unsupported = None
    if cfg.noise is not None:
        try:
            noise_residual = noise_cp_condition(cfg.noise, cfg.precession)
        except UnsupportedConfigurationError as exc:
            unsupported = str(exc)
    # checked before eigvalsh, which does not converge on a non-finite matrix
    if not np.isfinite(list(residuals.values())).all():
        raise NumericalFailureError("complete-positivity residuals are not finite")
    if unsupported is not None:
        _diagnostic("warning", "no-noise-residual", unsupported)
    row = {
        **residuals,
        "min_eig": float(np.linalg.eigvalsh(kossakowski_from_params(params).matrix)[0]),
        "completely_positive": is_completely_positive(params),
        "noise_residual": noise_residual,
    }
    return list(row), [list(row.values())], {}


def _mode_experiment(cfg: RunConfig):
    params, omega = _generator_pieces(cfg)
    if abs(omega[0]) > TOL or abs(omega[1]) > TOL:
        raise ConfigError("experiment mode requires precession about axis 3")
    scan = r_scan(params, omega[2], cfg.times)
    for t in scan.singular_times:
        _diagnostic(
            "warning",
            "singular-time",
            f"R(t) denominator vanishes at t = {_fmt_float(t)}; point skipped",
        )
    rows = list(zip(scan.times, scan.r_value, scan.r_closed, scan.cp_verdict))
    return ["t", "r_value", "r_closed", "verdict"], rows, {}


def _mode_montecarlo(cfg: RunConfig):
    runner = mc_double_pass if cfg.round_trip else ensemble_average
    ens = runner(cfg.noise, cfg.precession, cfg.trajectory, n_workers=_available_cpus())
    return _table(ens.times, mean=ens.mean_stokes, stderr=ens.stderr)


def _mode_compare(cfg: RunConfig):
    report = mc_vs_master_report(cfg.noise, cfg.precession, cfg.trajectory,
                                 n_workers=_available_cpus())
    columns, rows, _ = _table(report.times, mc=report.mc_mean, stderr=report.mc_stderr,
                              master=report.master, z=report.z)
    return columns, rows, {"max_abs_z": report.max_abs_z, "frac_above_3": report.frac_above_3}


#: mode -> (handler, stochastic: needs noise and a trajectory block, needs times)
_MODES = {
    "evolve": (_mode_evolve, False, True),
    "mueller": (_mode_mueller, False, True),
    "cp-check": (_mode_cp_check, False, False),
    "experiment": (_mode_experiment, False, True),
    "montecarlo": (_mode_montecarlo, True, False),
    "compare": (_mode_compare, True, False),
}
#: the mode names, a tuple: membership of an unhashable value is False, not a TypeError
MODES = tuple(_MODES)


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration and write its output table."""
    # results are checked for overflow and nan, which raise NumericalFailureError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        columns, rows, extras = _MODES[cfg.mode][0](cfg)
    metadata = {
        "mode": cfg.mode,
        "version": __version__,
        "config_digest": cfg.config_digest,
        "seed": cfg.trajectory.seed if cfg.trajectory is not None else None,
        **extras,
    }
    render = _render_csv if cfg.output_format == "csv" else _render_json
    text = render(metadata, columns, rows)
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.output_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fiberpol",
        description="Polarization decoherence in a noisy fiber: propagators, "
        "complete-positivity tests and stochastic cross-checks.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--mode", choices=MODES, help="override the configured mode")
    parser.add_argument("--seed", type=int, help="override the trajectory seed")
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"), help="override the output format")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        # flags are written into the config, so they are validated with it
        obj = _load(text)
        if args.mode is not None:
            obj["mode"] = args.mode
        if args.seed is not None and "trajectory" not in obj:
            raise ConfigError("--seed requires a trajectory block")
        for block, key, value in (
            ("trajectory", "seed", args.seed),
            ("output", "path", args.out),
            ("output", "format", args.format),
        ):
            if value is not None and isinstance(obj.setdefault(block, {}), dict):
                obj[block][key] = value
        return run(parse_config(json.dumps(obj)))
    except (ConfigError, InvalidInputError, UnsupportedConfigurationError) as exc:
        _diagnostic("error", "invalid-input", str(exc))
        return 2
    except NumericalFailureError as exc:
        _diagnostic("error", "numerical-failure", str(exc))
        return 3
    except OverflowError:  # Python float arithmetic past the float range
        _diagnostic("error", "numerical-failure", "a result overflows the float range")
        return 3


if __name__ == "__main__":
    sys.exit(main())
