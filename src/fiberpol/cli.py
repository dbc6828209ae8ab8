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

The value types (NoiseSpec, FreePrecession, DissipativeParams and
TrajectoryConfig) declare the fields, defaults and rules of the noise,
precession, params and trajectory blocks; ``_SCHEMA`` adds only the keys
JSON adds (params.omega, trajectory.double_pass) and the times and output
blocks.  A refusal names its block, as in "noise.lam[1] must be positive".
``_MODES`` is the one declaration of what each mode runs on: evolve, mueller,
cp-check and experiment take exactly one of "noise"+"precession" or "params";
montecarlo and compare take "noise"+"precession"+"trajectory" and no params;
evolve, mueller and experiment take "times".  Command-line flags override the
corresponding config fields before the config is validated.  The stochastic
modes split their trajectories over every CPU in the process's affinity mask;
the output bytes do not depend on the count.

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
from dataclasses import MISSING, dataclass, fields
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


def _passing(test, what: str):
    """A parser that returns a value passing test and refuses the rest: it must be what."""
    def parse(value, path: str):
        if not test(value):
            raise ConfigError(f"{path} must be {what}")
        return value
    return parse


_boolean = _passing(lambda v: isinstance(v, bool), "a boolean")
_string = _passing(lambda v: isinstance(v, str), "a string")
_format = _passing(lambda v: v in ("csv", "json"), "'csv' or 'json'")


_REQUIRED = object()


def _typed(kind, **extra):
    """A block that builds kind: kind's fields but initial, which kind's rules check, then extra."""
    return kind, {**{f.name: (None, _REQUIRED if f.default is MISSING else f.default)
                     for f in fields(kind) if f.name != "initial"}, **extra}


#: block -> (value type or None, key -> (parser or None, default or _REQUIRED));
#: "times" is the grid form, and the top-level "initial" completes a trajectory
_SCHEMA = {
    "noise": _typed(NoiseSpec),
    "precession": _typed(FreePrecession),
    "params": _typed(DissipativeParams, omega=(_omega, _REQUIRED)),
    # with start >= 0, stop - start and so the grid stay within the float range
    "times": (None, {"start": (_non_negative, _REQUIRED), "stop": (_number, _REQUIRED),
                     "count": (_integer, _REQUIRED)}),
    "trajectory": _typed(TrajectoryConfig, double_pass=(_boolean, False)),
    "output": (None, {"path": (_string, None), "format": (_format, "csv")}),
}


def _fields(block, name: str, **supplied) -> tuple:
    """(name's value type built from block and supplied, or None; every key's value, defaults in).

    A refusal of the value type is re-raised as a ConfigError that names the block.
    """
    kind, keys = _SCHEMA[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown field {name}.{key!r}")
    parsed = {}
    for key, (parse, default) in keys.items():
        if key in block:
            parsed[key] = parse(block[key], f"{name}.{key}") if parse else block[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{name}.{key} is required")
        else:
            parsed[key] = default
    if kind is None:
        return None, parsed
    own = [key for key, (parse, _) in keys.items() if parse is None]
    try:
        value = kind(**{key: parsed[key] for key in own}, **supplied)
    except InvalidInputError as exc:
        raise ConfigError(f"{name}.{exc}") from exc
    return value, {**parsed, **{key: getattr(value, key) for key in own}}


def _times(value) -> tuple[float, ...]:
    if isinstance(value, dict):
        start, stop, count = _fields(value, "times")[1].values()
        if count < 2:
            raise ConfigError("times.count must be at least 2")
        if count > _MAX_GRID_POINTS:
            raise ConfigError(f"times.count must be at most {_MAX_GRID_POINTS}")
        if not stop > start:
            raise ConfigError("times.stop must exceed times.start")
        with np.errstate(all="ignore"):  # only the last point overflows, and it is set to stop
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


def parse_config(config: str | dict) -> RunConfig:
    """Parse and validate a run configuration: JSON text, or the dict it loads to."""
    obj = config if isinstance(config, dict) else _load(config)
    for key in obj:
        if key not in ("mode", "initial", *_SCHEMA):
            raise ConfigError(f"unknown field {key!r}")
    mode = obj.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}")
    _, route, needs = _MODES[mode]

    # every value as validated, defaults filled in, which the digest covers
    digested = {"mode": mode}
    digested["initial"] = _vec3(obj["initial"], "initial") if "initial" in obj else (1.0, 0.0, 0.0)
    initial = StokesVector(*digested["initial"])
    if not initial.is_physical():
        raise ConfigError("initial must lie in the unit ball (within 1e-12)")
    built = dict.fromkeys(("noise", "precession", "params", "trajectory"))
    for name in built:
        if name in obj:
            supplied = {"initial": initial} if name == "trajectory" else {}
            built[name], digested[name] = _fields(obj[name], name, **supplied)
    if "times" in obj:
        digested["times"] = _times(obj["times"])
    _, output = _fields(obj.get("output", {}), "output")
    noise, precession, params, trajectory = built.values()

    if noise is not None and precession is None:
        raise ConfigError("precession is required alongside noise")
    if precession is not None and noise is None:
        raise ConfigError("precession is only meaningful together with noise")
    if (noise is None) if route == _NOISE else (noise is None) == (params is None):
        raise ConfigError(f"mode {mode!r} needs {route}")
    if route == _NOISE and params is not None:
        raise ConfigError(f"mode {mode!r} derives its dynamics from noise; params is not allowed")
    for block in needs:
        if block not in obj:
            raise ConfigError(f"mode {mode!r} requires {_NEEDED[block]}")
    round_trip = digested["trajectory"]["double_pass"] if trajectory is not None else False

    digested = {name: dict(sorted(value.items())) if isinstance(value, dict) else value
                for name, value in sorted(digested.items())}
    return RunConfig(
        mode=mode, noise=noise, precession=precession, params=params,
        params_omega=digested["params"]["omega"] if params is not None else None,
        times=digested.get("times"), initial=initial, trajectory=trajectory, round_trip=round_trip,
        output_path=output["path"], output_format=output["format"],
        config_digest=hashlib.sha256(_json_value(digested).encode()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


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
    rho = np.array([mueller_exact(gen, t).apply(cfg.initial).as_array() for t in cfg.times])
    return _table(cfg.times, rho=rho)


def _mode_mueller(cfg: RunConfig):
    gen = build_generator(*_generator_pieces(cfg))
    m = np.array([mueller_exact(gen, t).matrix for t in cfg.times])
    return _table(cfg.times, m1=m[:, 0], m2=m[:, 1], m3=m[:, 2])


def _mode_cp_check(cfg: RunConfig):
    params, _ = _generator_pieces(cfg)
    residuals = cp_inequalities(params)._asdict()
    noise_residual = None
    if cfg.noise is not None:
        try:
            noise_residual = noise_cp_condition(cfg.noise, cfg.precession)
        except UnsupportedConfigurationError as exc:
            _diagnostic("warning", "no-noise-residual", str(exc))
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
    n_rows = (2 if cfg.round_trip else 1) * cfg.trajectory.n_steps + 1
    if n_rows > _MAX_GRID_POINTS:
        raise ConfigError(f"trajectory: montecarlo would write {n_rows} rows, "
                          f"more than {_MAX_GRID_POINTS}; use fewer steps")
    runner = mc_double_pass if cfg.round_trip else ensemble_average
    ens = runner(cfg.noise, cfg.precession, cfg.trajectory, n_workers=_available_cpus())
    return _table(ens.times, mean=ens.mean_stokes, stderr=ens.stderr)


def _mode_compare(cfg: RunConfig):
    report = mc_vs_master_report(cfg.noise, cfg.precession, cfg.trajectory,
                                 n_workers=_available_cpus())
    columns, rows, _ = _table(report.times, mc=report.mc_mean, stderr=report.mc_stderr,
                              master=report.master, z=report.z)
    return columns, rows, {"max_abs_z": report.max_abs_z, "frac_above_3": report.frac_above_3}


#: the two routes to the dynamics, and the blocks a mode may need besides, as refusals name them
_EITHER, _NOISE = "exactly one of noise or params", "noise and precession"
_NEEDED = {"times": "times", "trajectory": "a trajectory block"}
#: mode -> (handler, route, the blocks it needs): the one declaration of what a mode runs on
_MODES = {
    "evolve": (_mode_evolve, _EITHER, ("times",)),
    "mueller": (_mode_mueller, _EITHER, ("times",)),
    "cp-check": (_mode_cp_check, _EITHER, ()),
    "experiment": (_mode_experiment, _EITHER, ("times",)),
    "montecarlo": (_mode_montecarlo, _NOISE, ("trajectory",)),
    "compare": (_mode_compare, _NOISE, ("trajectory",)),
}
#: the mode names, a tuple: membership of an unhashable value is False, not a TypeError
MODES = tuple(_MODES)


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration and write its output table."""
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
        return run(parse_config(obj))
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
