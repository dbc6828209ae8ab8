"""End-to-end tests for the command-line front end."""

import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberpol import (
    ConfigError,
    DissipativeParams,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedConfigurationError,
    build_generator,
    mueller_exact,
)
from fiberpol import cli
from fiberpol.cli import _SCHEMA, MODES, RunConfig, main, parse_config, run

PARAMS_BLOCK = {
    "a": 0.8,
    "b": 0.12,
    "c": -0.05,
    "alpha": 0.6,
    "beta": 0.2,
    "gamma": 0.9,
    "omega": 1.7,
}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diagnostics(err):
    return [json.loads(line) for line in err.splitlines() if line]


def csv_parts(text):
    lines = text.split("\n")
    assert lines[-1] == ""
    assert lines[0].startswith("# metadata: ")
    metadata = json.loads(lines[0][len("# metadata: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:-1]]
    return metadata, header, rows


def test_parse_minimal_config():
    cfg = parse_config(json.dumps({"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.5]}))
    assert cfg.mode == "evolve"
    assert cfg.params_omega == (0.0, 0.0, 1.7)
    assert cfg.times == (0.5,)
    assert np.array_equal(cfg.initial.as_array(), [1.0, 0.0, 0.0])
    assert cfg.output_format == "csv"
    assert cfg.output_path is None
    assert cfg.trajectory is None


def test_parse_config_takes_text_or_the_loaded_dict(tmp_path, capsys, monkeypatch):
    obj = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.5]}
    assert parse_config(obj) == parse_config(json.dumps(obj))
    # main parses the loaded, flag-edited object through parse_config, which
    # perfbench/child.py wraps to split set-up from run time
    seen = []
    monkeypatch.setattr("fiberpol.cli.parse_config",
                        lambda config: seen.append(config) or parse_config(config))
    code, _, _ = run_cli(capsys, ["--config", write_config(tmp_path, obj), "--format", "json"])
    assert code == 0
    assert seen == [{**obj, "output": {"format": "json"}}]


def test_syntax_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "evolve",}')
    code, out, err = run_cli(capsys, ["--config", str(path)])
    assert code == 2
    assert out == ""
    (diag,) = diagnostics(err)
    assert diag["level"] == "error"
    assert diag["code"] == "invalid-input"
    assert "config syntax error at line 1, column" in diag["message"]


def test_unknown_fields_rejected(tmp_path, capsys):
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1], "extra": 1}
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "unknown field" in diagnostics(err)[0]["message"]

    cfg = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1, 1, 1], "foo": 2},
        "precession": {"omega0": 1.0},
        "times": [0.1],
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    message = diagnostics(err)[0]["message"]
    assert "unknown field" in message and "foo" in message


def test_noise_validation_propagates(tmp_path, capsys):
    cfg = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1.0, 0.0, 1.0]},
        "precession": {"omega0": 1.0},
        "times": [0.1],
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert out == ""
    assert "lam[1] must be positive" in diagnostics(err)[0]["message"]


def test_route_conflicts(tmp_path, capsys):
    both = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "params": PARAMS_BLOCK,
        "times": [0.1],
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, both)])
    assert code == 2
    assert "exactly one of noise or params" in diagnostics(err)[0]["message"]

    neither = {"mode": "evolve", "times": [0.1]}
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, neither)])
    assert code == 2
    assert "exactly one of noise or params" in diagnostics(err)[0]["message"]


def test_precession_noise_pairing(tmp_path, capsys):
    missing = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1, 1, 1]},
        "times": [0.1],
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, missing)])
    assert code == 2
    assert "precession is required alongside noise" in diagnostics(err)[0]["message"]

    orphan = {
        "mode": "evolve",
        "params": PARAMS_BLOCK,
        "precession": {"omega0": 1.0},
        "times": [0.1],
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, orphan)])
    assert code == 2
    assert "only meaningful together with noise" in diagnostics(err)[0]["message"]


def test_times_validation(tmp_path, capsys):
    base = {"mode": "evolve", "params": PARAMS_BLOCK}
    for times, fragment in (
        ([0.3, 0.3], "strictly increasing"),
        ([-0.1, 0.2], "non-negative"),
        ([], "must not be empty"),
        ({"start": 0.0, "stop": 1.0, "count": 1}, "at least 2"),
        ({"start": 1.0, "stop": 0.5, "count": 3}, "must exceed"),
    ):
        cfg = dict(base, times=times)
        code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert fragment in diagnostics(err)[0]["message"]

    missing = dict(base)
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, missing)])
    assert code == 2
    assert "requires times" in diagnostics(err)[0]["message"]


NOISE_BLOCKS = {"noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
                "precession": {"omega0": 1.0}}
TRAJECTORY_BLOCK = {"dt": 0.01, "n_steps": 5, "n_traj": 100, "seed": 1}


@pytest.mark.parametrize("mode", MODES)
def test_mode_route_and_times_rules(mode):
    stochastic = mode in ("montecarlo", "compare")
    timed = mode in ("evolve", "mueller", "experiment")
    good = {"mode": mode, **NOISE_BLOCKS,
            **({"trajectory": TRAJECTORY_BLOCK} if stochastic else {"times": [0.5]})}
    assert parse_config(json.dumps(good)).mode == mode
    bare = {"mode": mode, **({"times": [0.5]} if timed else {})}
    route = "needs noise and precession" if stochastic else "needs exactly one of noise or params"
    with pytest.raises(ConfigError, match=f"mode '{mode}' {route}"):
        parse_config(json.dumps(bare))
    if stochastic:
        with pytest.raises(ConfigError, match="params is not allowed"):
            parse_config(json.dumps({**good, "params": PARAMS_BLOCK}))
        with pytest.raises(ConfigError, match="requires a trajectory block"):
            parse_config(json.dumps({"mode": mode, **NOISE_BLOCKS}))
    else:
        with pytest.raises(ConfigError, match="needs exactly one"):
            parse_config(json.dumps({**good, "params": PARAMS_BLOCK}))
        without_times = {"mode": mode, **NOISE_BLOCKS}
        if timed:
            with pytest.raises(ConfigError, match=f"mode '{mode}' requires times"):
                parse_config(json.dumps(without_times))
        else:
            assert parse_config(json.dumps(without_times)).mode == mode


@pytest.mark.parametrize("mode", [None, "bogus", [], ["evolve"], {"evolve": 1}])
def test_bad_mode_exits_2(tmp_path, capsys, mode):
    cfg = {"mode": mode, "params": PARAMS_BLOCK, "times": [0.5]}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert diagnostics(err)[0]["message"] == (
        "mode must be one of evolve, mueller, cp-check, experiment, montecarlo, compare")


def test_time_grid_expansion(tmp_path, capsys):
    cfg = {
        "mode": "evolve",
        "params": PARAMS_BLOCK,
        "times": {"start": 0.0, "stop": 1.0, "count": 5},
    }
    code, out, _ = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    _, _, rows = csv_parts(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_initial_must_be_physical(tmp_path, capsys):
    for initial in ([1.1, 0, 0], [1e200, 0, 0]):
        cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1], "initial": initial}
        code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
        assert code == 2
        (diag,) = diagnostics(err)
        assert "unit ball" in diag["message"]


def test_precession_axis_must_be_unit(tmp_path, capsys):
    cfg = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0, "n": [1e200, 0, 0]},
        "times": [0.1],
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    (diag,) = diagnostics(err)
    assert "unit vector" in diag["message"]


def test_non_finite_numbers_rejected(tmp_path, capsys):
    montecarlo = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1], "mean": [math.nan, 0, 0]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 10, "n_traj": 100, "seed": 5},
    }
    for cfg, path in (
        ({"mode": "evolve", "params": dict(PARAMS_BLOCK, a=math.nan), "times": [0.1]}, "params.a"),
        ({"mode": "evolve", "params": PARAMS_BLOCK, "times": [math.inf]}, "times[0]"),
        ({"mode": "evolve", "params": dict(PARAMS_BLOCK, b=10**400), "times": [0.1]}, "params.b"),
        (montecarlo, "noise.mean[0]"),
    ):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert out == ""
        (diag,) = diagnostics(err)
        assert diag["message"] == f"{path} must be a finite number"


def test_evolve_csv_matches_library(tmp_path, capsys):
    times = [0.0, 0.25, 1.3]
    initial = [0.4, -0.2, 0.5]
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": times, "initial": initial}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert err == ""
    metadata, header, rows = csv_parts(out)
    assert header == ["t", "rho1", "rho2", "rho3"]
    assert metadata["mode"] == "evolve"
    assert metadata["seed"] is None
    assert len(metadata["config_digest"]) == 64

    params = DissipativeParams(a=0.8, b=0.12, c=-0.05, alpha=0.6, beta=0.2, gamma=0.9)
    gen = build_generator(params, np.array([0.0, 0.0, 1.7]))
    s0 = np.array(initial)
    # 17 significant digits round-trip doubles exactly
    for row, t in zip(rows, times):
        expected = mueller_exact(gen, t).matrix @ s0
        assert float(row[0]) == t
        for cell, value in zip(row[1:], expected):
            assert float(cell) == value


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 30, "n_traj": 100, "seed": 12},
    }
    path = write_config(tmp_path, cfg)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["--config", path, "--out", str(out_a)]) == 0
    assert main(["--config", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"\r" not in out_a.read_bytes()


def test_csv_and_json_carry_identical_numbers(tmp_path, capsys):
    cfg = {"mode": "mueller", "params": PARAMS_BLOCK, "times": [0.2, 0.7]}
    path = write_config(tmp_path, cfg)
    code, out_csv, _ = run_cli(capsys, ["--config", path])
    assert code == 0
    code, out_json, _ = run_cli(capsys, ["--config", path, "--format", "json"])
    assert code == 0

    _, header, rows = csv_parts(out_csv)
    doc = json.loads(out_json)
    assert doc["columns"] == header
    assert len(doc["records"]) == len(rows)
    for row, record in zip(rows, doc["records"]):
        for name, cell in zip(header, row):
            assert float(cell) == record[name]


def test_cp_check_params_route_negative(tmp_path, capsys):
    params = {"a": 1.0, "b": 0.0, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 3.0, "omega": 5.0}
    cfg = {"mode": "cp-check", "params": params}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert err == ""
    _, header, rows = csv_parts(out)
    assert header == [
        "two_r", "two_s", "two_t", "rs_minus_b2", "rt_minus_c2",
        "st_minus_beta2", "det", "min_eig", "completely_positive", "noise_residual",
    ]
    (row,) = rows
    record = dict(zip(header, row))
    assert float(record["two_t"]) == -1.0
    assert float(record["min_eig"]) < 0.0
    assert record["completely_positive"] == "false"
    # explicit-generator route has no underlying noise model to score
    assert record["noise_residual"] == ""


def test_cp_check_noise_route_positive(tmp_path, capsys):
    cfg = {
        "mode": "cp-check",
        "noise": {"g": [0.5, 0.5, 0.2], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert err == ""
    _, header, rows = csv_parts(out)
    record = dict(zip(header, rows[0]))
    assert record["completely_positive"] == "true"
    for name in ("two_r", "two_s", "two_t", "rs_minus_b2", "rt_minus_c2", "st_minus_beta2", "det"):
        assert float(record[name]) >= 0.0
    assert float(record["noise_residual"]) >= 0.0
    assert float(record["min_eig"]) >= -1e-12


def test_cp_check_tilted_axis_warns(tmp_path, capsys):
    cfg = {
        "mode": "cp-check",
        "noise": {"g": [0.5, 0.5, 0.2], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0, "n": [1.0, 0.0, 0.0]},
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    (diag,) = diagnostics(err)
    assert diag["level"] == "warning"
    assert diag["code"] == "no-noise-residual"
    _, header, rows = csv_parts(out)
    record = dict(zip(header, rows[0]))
    assert record["noise_residual"] == ""
    assert record["completely_positive"] in ("true", "false")


def test_experiment_gamma_dominates(tmp_path, capsys):
    params = {"a": 1.0, "b": 0.0, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 3.0, "omega": 5.0}
    cfg = {"mode": "experiment", "params": params, "times": [0.1, 0.2, 0.4]}
    code, out, _ = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    _, header, rows = csv_parts(out)
    assert header == ["t", "r_value", "r_closed", "verdict"]
    assert len(rows) == 3
    for row in rows:
        record = dict(zip(header, row))
        assert float(record["r_value"]) > 1.0
        assert record["verdict"] == "false"


def test_experiment_singular_time_skipped(tmp_path, capsys):
    params = {"a": 1.0, "b": 0.0, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 2.0, "omega": 1.0}
    cfg = {"mode": "experiment", "params": params, "times": [0.3, 0.8, math.pi / 2]}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    diags = diagnostics(err)
    assert any(d["code"] == "singular-time" and "point skipped" in d["message"] for d in diags)
    _, _, rows = csv_parts(out)
    assert [float(r[0]) for r in rows] == [0.3, 0.8]


def test_experiment_needs_axis3(tmp_path, capsys):
    params = dict(PARAMS_BLOCK, omega=[1.0, 0.0, 0.5])
    cfg = {"mode": "experiment", "params": params, "times": [0.1]}
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "requires precession about axis 3" in diagnostics(err)[0]["message"]


def test_montecarlo_row_counts(tmp_path, capsys):
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 50, "n_traj": 100, "seed": 5},
    }
    code, out, _ = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    metadata, header, rows = csv_parts(out)
    assert header == ["t", "mean1", "mean2", "mean3", "stderr1", "stderr2", "stderr3"]
    assert len(rows) == 51
    assert metadata["seed"] == 5

    cfg["trajectory"]["double_pass"] = True
    code, out, _ = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    _, _, rows = csv_parts(out)
    assert len(rows) == 101


def test_compare_refuses_a_round_trip(tmp_path, capsys, monkeypatch):
    # compare checks the one-way ensemble: a round trip is refused before anything runs
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("fiberpol.cli.mc_vs_master_report", refuse)
    cfg = {
        "mode": "compare",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 50, "n_traj": 100, "seed": 5, "double_pass": True},
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert (code, out) == (2, "")
    (record,) = diagnostics(err)
    assert record["code"] == "invalid-input"
    assert record["message"].startswith("trajectory.double_pass ")


def test_montecarlo_requires_trajectory(tmp_path, capsys):
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
    }
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "requires a trajectory block" in diagnostics(err)[0]["message"]


def test_montecarlo_work_cap_exits_2(tmp_path, capsys):
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        # 1.8e10 trajectory-steps, in fewer steps than the output-row cap
        "trajectory": {"dt": 0.01, "n_steps": 9_000_000, "n_traj": 2000, "seed": 5},
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert out == ""
    (record,) = diagnostics(err)
    assert record["code"] == "invalid-input"
    assert "n_traj * n_steps" in record["message"]


def test_montecarlo_row_cap_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # 2e9 trajectory-steps and 0.96 GB of moments pass the work caps;
    # 2e7 output rows do not
    def refuse(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr("fiberpol.cli.ensemble_average", refuse)
    monkeypatch.setattr("fiberpol.cli.mc_double_pass", refuse)
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 20_000_000, "n_traj": 100, "seed": 5},
    }
    # a round trip writes 2 n_steps + 1 rows
    for n_steps, double_pass in ((20_000_000, False), (10_000_000, False), (5_000_000, True)):
        cfg["trajectory"].update(n_steps=n_steps, double_pass=double_pass)
        code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert out == ""
        (record,) = diagnostics(err)
        assert record["code"] == "invalid-input"
        assert "rows" in record["message"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
def test_compare_stderr_is_empty_with_default_thread_settings(tmp_path):
    # numpy's BLAS threads are left to start, so the CLI forks from a
    # multi-threaded process; pinned to one CPU, it runs the serial loop
    cfg = {
        "mode": "compare",
        "noise": {"g": [0.001, 0.002, 0.001], "lam": [2, 2, 2]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 40, "n_traj": 700, "seed": 8},
    }
    argv = [sys.executable, "-m", "fiberpol.cli", "--config", write_config(tmp_path, cfg)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    one_cpu = min(os.sched_getaffinity(0))
    runs = [
        subprocess.run(argv, env=env, capture_output=True, timeout=120, preexec_fn=pin)
        for pin in (None, lambda: os.sched_setaffinity(0, {one_cpu}))
    ]
    for run in runs:
        assert run.returncode == 0
        assert run.stderr == b""
    assert runs[0].stdout == runs[1].stdout


def test_compare_smoke_and_metadata(tmp_path, capsys):
    cfg = {
        "mode": "compare",
        "noise": {"g": [0.0001, 0.0001, 0.0001], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 50, "n_traj": 100, "seed": 8},
        "output": {"format": "json"},
    }
    code, out, _ = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][:4] == ["t", "mc1", "mc2", "mc3"]
    assert isinstance(doc["metadata"]["max_abs_z"], float)
    assert 0.0 <= doc["metadata"]["frac_above_3"] <= 1.0


def test_seed_override(tmp_path, capsys):
    cfg = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 10, "n_traj": 100, "seed": 5},
    }
    path = write_config(tmp_path, cfg)
    code, out, _ = run_cli(capsys, ["--config", path, "--seed", "99"])
    assert code == 0
    metadata, _, _ = csv_parts(out)
    assert metadata["seed"] == 99


def test_seed_needs_trajectory(tmp_path, capsys):
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1]}
    code, _, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg), "--seed", "7"])
    assert code == 2
    assert "--seed requires a trajectory block" in diagnostics(err)[0]["message"]


def test_mode_override_revalidates(tmp_path, capsys):
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1]}
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, ["--config", path, "--mode", "montecarlo"])
    assert code == 2
    assert "needs noise and precession" in diagnostics(err)[0]["message"]


def test_overrides_replace_the_fields_they_name(tmp_path, capsys):
    # each flag is validated in place of the config field it overrides
    untimed = {"mode": "evolve", "params": PARAMS_BLOCK}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, untimed),
                                      "--mode", "cp-check"])
    assert (code, err) == (0, "")
    assert csv_parts(out)[0]["mode"] == "cp-check"

    xml = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1], "output": {"format": "xml"}}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, xml), "--format", "csv"])
    assert (code, err) == (0, "")
    csv_parts(out)

    bad_seed = {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.01, 0.01], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "trajectory": {"dt": 0.01, "n_steps": 10, "n_traj": 100, "seed": -4},
    }
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, bad_seed),
                                      "--seed", "4"])
    assert (code, err) == (0, "")
    assert csv_parts(out)[0]["seed"] == 4


def test_mode_override_accepted(tmp_path, capsys):
    cfg = {
        "mode": "evolve",
        "noise": {"g": [0.1, 0.1, 0.1], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "times": [0.1, 0.5],
    }
    path = write_config(tmp_path, cfg)
    code, out, _ = run_cli(capsys, ["--config", path, "--mode", "mueller"])
    assert code == 0
    metadata, header, _ = csv_parts(out)
    assert metadata["mode"] == "mueller"
    assert header[:2] == ["t", "m11"]


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def raiser(gen, t):
        raise NumericalFailureError("synthetic propagator breakdown")

    monkeypatch.setattr("fiberpol.cli.mueller_exact", raiser)
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1]}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 3
    assert out == ""
    (diag,) = diagnostics(err)
    assert diag["code"] == "numerical-failure"
    assert "synthetic propagator breakdown" in diag["message"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read config" in diagnostics(err)[0]["message"]


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # JSON text is UTF-8 (RFC 8259, section 8.1); UTF-16 starts with the bytes ff fe
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps({"mode": "cp-check", "params": PARAMS_BLOCK}).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    code, out, err = run_cli(capsys, ["--config", str(path)])
    assert (code, out) == (2, "")
    (diag,) = diagnostics(err)
    assert diag["message"].startswith("cannot read config: 'utf-8' codec can't decode")


NON_CP = {"a": -1.0, "b": 0.0, "c": 0.0, "alpha": -1.0, "beta": 0.0, "gamma": -1.0, "omega": 0.3}


# Each run overflows the float range at its last time: the matrix
# exponential, the closed-form damping, R(t) against a decaying circular
# probe, and cos(2 Omega t) at t = 1e308.
@pytest.mark.parametrize("cfg", [
    {"mode": "evolve", "params": NON_CP, "times": [1.0, 400.0]},
    {"mode": "mueller", "params": NON_CP, "times": [1.0, 400.0]},
    {"mode": "experiment", "params": NON_CP, "times": [1.0, 400.0]},
    {"mode": "experiment", "params": dict(NON_CP, a=-0.05, alpha=-0.05, gamma=0.8),
     "times": [1.0, 400.0]},
    {"mode": "experiment", "params": dict(NON_CP, a=0.1, alpha=0.1, gamma=0.3, omega=5.0),
     "times": [1.0, 1e308]},
    # every entry of M(t) is finite, but M21 s1 + M22 s2 passes the float range
    {"mode": "evolve", "params": dict(NON_CP, gamma=0.0, omega=[0, 0, 0.0011065374670988874]),
     "times": [354.8914], "initial": [0.7071067811865475, 0.7071067811865475, 0.0]},
], ids=["evolve", "mueller", "experiment-damping", "experiment-r", "experiment-huge-t",
        "evolve-state"])
def test_non_finite_results_exit_3(tmp_path, capsys, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 3
    assert out == ""
    (diag,) = diagnostics(err)
    assert diag["code"] == "numerical-failure"
    assert f"t = {cfg['times'][-1]}" in diag["message"]


def _all(value):
    return {k: value for k in ("a", "b", "c", "alpha", "beta", "gamma")}


def _noise(g, lam, omega0, mean=(0.0, 0.0, 0.0)):
    return {"noise": {"g": g, "lam": lam, "mean": list(mean)}, "precession": {"omega0": omega0}}


# Inputs at the edge of the float range: each overflowed, wrote nan, ended
# in a LinAlgError or printed a raw numpy warning before exiting.
@pytest.mark.parametrize("cfg", [
    {"mode": "cp-check", "params": dict(_all(1e300), omega=1.0)},
    {"mode": "cp-check", "params": dict(_all(1e120), omega=1.0)},
    {"mode": "evolve", **_noise([1, 1, 1], [1, 1, 1], 1e200), "times": [0.5]},
    {"mode": "cp-check", **_noise([1, 1, 1], [1, 1, 1], 1e200)},
    {"mode": "experiment", **_noise([1, 1, 1], [1, 1, 1], 1e200), "times": [0.5]},
    {"mode": "experiment", "params": dict(_all(0.0), b=1e307, omega=1.7e308), "times": [0.5]},
    {"mode": "cp-check", **_noise([1, 0, 1e155], [1e200, 1e155, 1e154], 0.0)},
    {"mode": "cp-check", **_noise([1e154, 0, 1.7e308], [1e200, 1e200, 1], 1e-300)},
    {"mode": "mueller", **_noise([1e154, 1e154, 1], [1, 1e-300, 1e154], 0.0), "times": [0.5]},
    {"mode": "montecarlo", **_noise([0, 0, 0], [1, 1, 1], 0.0, mean=(1e200, 0, 0)),
     "trajectory": {"dt": 0.01, "n_steps": 3, "n_traj": 100, "seed": 1}},
], ids=["cp-1e300", "cp-1e120", "evolve-omega0", "cp-omega0", "experiment-omega0",
        "experiment-b-omega", "cp-noise-residual", "cp-eigvalsh", "mueller-divide",
        "montecarlo-mean"])
def test_float_range_edges_exit_3(tmp_path, capsys, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert code == 3
    assert out == ""
    (diag,) = diagnostics(err)
    assert diag["code"] == "numerical-failure"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = str(tmp_path / "absent" / "x.csv")
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1]}
    for obj, flags in ((cfg, ["--out", target]), (dict(cfg, output={"path": target}), [])):
        code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, obj)] + flags)
        assert code == 2
        assert out == ""
        (diag,) = diagnostics(err)
        assert diag["message"].startswith("cannot write output: ")


def test_output_path_with_a_nul_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mode ran")

    monkeypatch.setattr("fiberpol.cli.mueller_exact", refuse)
    cfg = {"mode": "evolve", "params": PARAMS_BLOCK, "times": [0.1],
           "output": {"path": str(tmp_path / "a\u0000b.csv")}}
    code, out, err = run_cli(capsys, ["--config", write_config(tmp_path, cfg)])
    assert (code, out) == (2, "")
    (diag,) = diagnostics(err)
    assert diag["message"] == "output.path must be a string without NUL characters"
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_closed_stdout_exits_2_with_one_diagnostic(tmp_path):
    # about 1.2 MB of CSV, far more than a pipe holds: the reader takes 100
    # bytes and closes its end while the writer still has chunks to write
    path = write_config(tmp_path, GOLDEN_CONFIGS["montecarlo-long"])
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "fiberpol.cli", "--config", path], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"# metadata: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert diagnostics(err) == [{"level": "error", "code": "invalid-input",
                                 "message": "cannot write output: [Errno 32] Broken pipe"}]
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_memory_per_output_row(fmt):
    # the traced peak grows by at most 200 B per output row, the ensemble's own
    # moments included, so the writer may hold no Python object per row
    def config(n_steps):
        return parse_config({
            "mode": "montecarlo",
            "noise": {"g": [0.01, 0.02, 0.03], "lam": [1, 1, 1]},
            "precession": {"omega0": 1.0},
            "trajectory": {"dt": 0.01, "n_steps": n_steps, "n_traj": 100, "seed": 3},
            "output": {"path": os.devnull, "format": fmt},
        })

    run(config(10))  # one-time allocations, untraced
    peaks = []
    for n_steps in (5_000, 20_000):
        tracemalloc.start()
        try:
            run(config(n_steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 15_000 <= 200


def test_deeply_nested_config_is_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, ["--config", str(path)])
    assert code == 2
    (diag,) = diagnostics(err)
    assert diag["message"].startswith("config syntax error")


# One small config per mode.  Each is run in CSV and, through --format, in
# JSON, plus a --seed and a --mode override; stdout is pinned by SHA-256,
# the config digest in the metadata included.
GOLDEN_CONFIGS = {
    "evolve": {
        "mode": "evolve",
        "params": dict(PARAMS_BLOCK, omega=[0.3, -0.1, 1.2]),
        "times": [0.0, 0.25, 1.3],
        "initial": [0.4, -0.2, 0.5],
    },
    "mueller": {
        "mode": "mueller",
        "noise": {"g": [0.04, 0.03, 0.02], "lam": [1.5, 2.0, 2.5], "mean": [0.3, -0.2, 0.1]},
        "precession": {"omega0": 1.7, "n": [0.6, 0.0, 0.8]},
        "times": {"start": 0.0, "stop": 2.0, "count": 5},
    },
    "cp-check": {
        "mode": "cp-check",
        "noise": {"g": [0.5, 0.5, 0.2], "lam": [1, 2, 3]},
        "precession": {"omega0": 1.0},
        "times": [0.5],
    },
    "experiment": {
        "mode": "experiment",
        "params": {"a": 1.0, "b": 0.1, "c": 0.0, "alpha": 1.0, "beta": 0.0, "gamma": 3.0,
                   "omega": 5},
        "times": {"start": 0.1, "stop": 0.9, "count": 7},
    },
    "montecarlo": {
        "mode": "montecarlo",
        "noise": {"g": [0.01, 0.02, 0.03], "lam": [1, 1, 1]},
        "precession": {"omega0": 1.0},
        "initial": [0.0, 1.0, 0.0],
        "trajectory": {"dt": 0.01, "n_steps": 20, "n_traj": 120, "seed": 2**63 + 5,
                       "double_pass": True},
    },
    "compare": {
        "mode": "compare",
        "noise": {"g": [0.001, 0.002, 0.001], "lam": [2, 2, 2], "mean": [0.1, 0.0, 0.0]},
        "precession": {"omega0": 1.0, "n": [0.6, 0.0, 0.8]},
        "trajectory": {"dt": 0.01, "n_steps": 30, "n_traj": 300, "seed": 8},
    },
    # 8,201 rows: the only golden long enough to cross the writer's chunk
    # boundaries at rows 4,096 and 8,192.  It is stochastic, because the
    # ensemble's bits hold on every BLAS kernel and the master route's do not
    "montecarlo-long": {
        "mode": "montecarlo",
        "noise": {"g": [0.03, 0.01, 0.02], "lam": [2, 1, 3], "mean": [0.0, 0.1, 0.0]},
        "precession": {"omega0": 1.3},
        "initial": [0.6, 0.0, 0.8],
        "trajectory": {"dt": 0.001, "n_steps": 8200, "n_traj": 100, "seed": 27},
    },
}

GOLDEN_RUNS = {
    "evolve-csv": ("evolve", [],
        "f5163315ff978d996e1a5dd5bcc85406116fb16f36f89ed27a3cbe27b0cc14b1"),
    "evolve-json": ("evolve", ["--format", "json"],
        "56ded747e34f30087032da0a7551380241d65b8085851e6ae4200cffe1e9a34e"),
    "mueller-csv": ("mueller", [],
        "bbd7e6815c6ebcf65327302d6decc34f93f76007b4b936395fb8b43883d37422"),
    "mueller-json": ("mueller", ["--format", "json"],
        "36c72b5a1d3dc765a4069950b9894f762035e77ece3f35c765d10641a0c14608"),
    "cp-check-csv": ("cp-check", [],
        "79e59627f2e125d3d533b105f7385000a7e7913ba5a3d7f590f635156006da88"),
    "cp-check-json": ("cp-check", ["--format", "json"],
        "dbe9832325276560683cc656ec232fce71742664b4c2072f22ec6bea98d936be"),
    "experiment-csv": ("experiment", [],
        "ee115c7bdc238e53e01c480db5a0d3d1ee83d7e0618f74e061f55a5084046d77"),
    "experiment-json": ("experiment", ["--format", "json"],
        "048684150610eab79e7c0aca451d4fc9b992dc51318e131641eb4d05e4c7ae0b"),
    "montecarlo-csv": ("montecarlo", [],
        "d55ec28726022e292f50028af04cb764e624c01af6240d697b1e4461a1492055"),
    "montecarlo-json": ("montecarlo", ["--format", "json"],
        "3d06d016c97a6503ee97d23fe8e1093b1b1c98c40a6b3eb521b61942880d9584"),
    "compare-csv": ("compare", [],
        "35bdab41b6a89c8b5be23a7e5e2d486425daa3ea4232ad33cf75dc6aad648e9a"),
    "compare-json": ("compare", ["--format", "json"],
        "6627baa01491f22146aeefbff10b866767ba37300d614836142255937f166269"),
    "montecarlo-long-csv": ("montecarlo-long", [],
        "590be7ce9d5e251f57c0d77bbae8452bb2e7067b87b60750cf93a56a0afb57ea"),
    "montecarlo-long-json": ("montecarlo-long", ["--format", "json"],
        "6cf7b6f2bb9f5587fd09bba13444a53ffeebe053d14373dead8cb423e7700a3d"),
    "seed-override": ("montecarlo", ["--seed", "99"],
        "e37df1c4d7365598447d0c6a73c53292e399d7bb43139a0517204f3997ffc8f1"),
    "mode-override": ("mueller", ["--mode", "evolve"],
        "107eed6a5baae35380bfcc6eaad1dd8723b15a382620f60e30bea1bca3070db6"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_golden_cli_bytes(tmp_path, capsys, case):
    name, flags, expected = GOLDEN_RUNS[case]
    path = write_config(tmp_path, GOLDEN_CONFIGS[name])
    code, out, err = run_cli(capsys, ["--config", path] + flags)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_golden_cli_bytes_do_not_depend_on_the_write_chunk(tmp_path, capsys, monkeypatch, case):
    name, flags, expected = GOLDEN_RUNS[case]
    path = write_config(tmp_path, GOLDEN_CONFIGS[name])
    for rows in (1, 2, 3):
        monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
        code, out, err = run_cli(capsys, ["--config", path] + flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == expected, rows


def test_config_surface_is_pinned():
    # the value types declare their blocks' keys: a field added to one of them
    # must not become a config key unnoticed
    accepted = {(block, key) for block, (_, keys) in _SCHEMA.items() for key in keys}
    assert accepted == {
        ("noise", "g"), ("noise", "lam"), ("noise", "mean"),
        ("precession", "omega0"), ("precession", "n"),
        *(("params", key) for key in ("a", "b", "c", "alpha", "beta", "gamma", "omega")),
        ("times", "start"), ("times", "stop"), ("times", "count"),
        *(("trajectory", key) for key in ("dt", "n_steps", "n_traj", "seed", "double_pass")),
        ("output", "path"), ("output", "format"),
    }
    # the top level supplies a trajectory's initial state
    with pytest.raises(ConfigError, match="^unknown field trajectory.'initial'$"):
        parse_config(json.dumps(edited("trajectory", "initial", [1.0, 0.0, 0.0])))


#: the fields of the value types; the golden config that holds each block; the
#: fields that hold 3 numbers or an integer, which a float does not fill
VALUE_TYPE_FIELDS = {"noise": ("g", "lam", "mean"), "precession": ("omega0", "n"),
                     "params": ("a", "b", "c", "alpha", "beta", "gamma"),
                     "trajectory": ("dt", "n_steps", "n_traj", "seed")}
HOLDER = {"noise": "mueller", "precession": "mueller", "params": "evolve",
          "trajectory": "montecarlo"}
NOT_A_FLOAT = {"g", "lam", "mean", "n", "n_steps", "n_traj", "seed"}


def edited(block, key, value):
    obj = copy.deepcopy(GOLDEN_CONFIGS[HOLDER[block]])
    obj[block][key] = value
    return obj


@pytest.mark.parametrize("block, key", [(block, key) for block, keys in VALUE_TYPE_FIELDS.items()
                                        for key in keys])
def test_value_of_the_wrong_kind_exits_2_naming_its_field(tmp_path, capsys, block, key):
    for value in ["x", [1.0], {"k": 1.0}, None, True, *([5.0] if key in NOT_A_FLOAT else [])]:
        path = write_config(tmp_path, edited(block, key, value))
        code, out, err = run_cli(capsys, ["--config", path])
        assert (code, out) == (2, "")
        (diag,) = diagnostics(err)
        assert diag["message"].startswith(f"{block}.{key}"), (value, diag["message"])


@pytest.mark.parametrize("block, key, value, message", [
    ("noise", "g", 5.0, "noise.g must have 3 components"),
    ("noise", "lam", [1.0, 0.0, 1.0], "noise.lam[1] must be positive"),
    ("params", "a", "x", "params.a must be a finite number"),
    ("precession", "n", [1.0, 1.0, 0.0], "precession.n must be a unit vector within 1e-12"),
    ("trajectory", "n_traj", 99, "trajectory.n_traj must be at least 100"),
])
def test_value_type_refusals_name_their_block(block, key, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(json.dumps(edited(block, key, value)))


def test_value_type_refusal_comes_before_route_errors():
    # noise without precession: the value type's refusal is the one reported
    lone_noise = {"mode": "evolve", "noise": {"g": [0.1] * 3, "lam": [1.0, 0.0, 1.0]},
                  "times": [0.1]}
    with pytest.raises(ConfigError, match=r"^noise\.lam\[1\] must be positive$"):
        parse_config(json.dumps(lone_noise))


# Fuzzing edits the golden configs: it sets or drops the top-level keys,
# an unknown key and the schema's fields of the blocks present, with
# values of every JSON kind; numbers include huge integers and floats,
# nan and inf.
NUMBERS = (
    st.sampled_from([1e200, -1e300, 1e308, 5e-324, 10**400, 2**63, 2**64, -(2**63)])
    | st.floats()
    | st.integers(-300, 300)
)
SCALARS = st.none() | st.booleans() | st.sampled_from([*MODES, "csv", "json", "xml", ""])
VALUES = (
    NUMBERS
    | st.lists(NUMBERS, min_size=3, max_size=3)
    | st.lists(NUMBERS | SCALARS, max_size=4)
    | SCALARS
    | st.dictionaries(st.text(max_size=6), NUMBERS | SCALARS, max_size=3)
)
DROP = object()


@st.composite
def fuzzed_configs(draw):
    obj = copy.deepcopy(draw(st.sampled_from(list(GOLDEN_CONFIGS.values()))))
    for _ in range(draw(st.integers(1, 3))):
        # mode last: hypothesis favours early choices, and a bad mode stops the parse
        paths = [(block, key) for block, (_, keys) in _SCHEMA.items()
                 if isinstance(obj.get(block), dict) for key in keys]
        paths += [(None, key) for key in ("initial", *_SCHEMA, "unknown", "mode")]
        block, key = draw(st.sampled_from(paths))
        target = obj if block is None else obj[block]
        value = draw(VALUES | st.just(DROP))
        if value is DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return obj


@settings(max_examples=500, deadline=None)
# a grid up to the largest float: its last step overflows inside linspace
@example(obj={**GOLDEN_CONFIGS["experiment"],
              "times": {"start": 0.1, "stop": 1.7976931348623157e308, "count": 7}})
@given(obj=fuzzed_configs())
def test_parse_config_fails_only_with_typed_errors(obj):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(json.dumps(obj))
        except (ConfigError, InvalidInputError, UnsupportedConfigurationError):
            return
    assert isinstance(cfg, RunConfig)


# Whole runs of main on values at the edges of the float range: every run
# ends in finite output or one typed diagnostic.  compare's z cells are the
# one exception: they are documented to be +-inf where the two sides
# differ at zero stderr.
# Strengths, rates and dt keep the signs validation allows, and c, beta
# and dt lean towards the values the closed form and the step-size check
# accept, so that most runs get past validation.
EDGES = [0.0, 1.0, 1e-300, 1e100, 1e154, 1e155, 1e200, 1e307, 1.7e308]
EDGE = st.sampled_from(EDGES + [-v for v in EDGES[1:]])
EDGE3 = st.lists(EDGE, min_size=3, max_size=3)
NON_NEGATIVE3 = st.lists(st.sampled_from(EDGES), min_size=3, max_size=3)
POSITIVE = st.sampled_from(EDGES[1:])
POSITIVE3 = st.lists(POSITIVE, min_size=3, max_size=3)
TIMES = st.lists(st.sampled_from(EDGES), min_size=1, max_size=3, unique=True).map(sorted)


@st.composite
def edge_runs(draw):
    mode = draw(st.sampled_from(["evolve", "mueller", "cp-check", "experiment", "montecarlo",
                                 "compare"]))
    stochastic = mode in ("montecarlo", "compare")
    obj = {"mode": mode}
    if stochastic or draw(st.booleans()):
        obj["noise"] = {"g": draw(NON_NEGATIVE3), "lam": draw(POSITIVE3), "mean": draw(EDGE3)}
        # round trips need precession about axis 3 and zero-mean noise
        axes = [[0, 0, 1]] if mode == "montecarlo" else [[0, 0, 1], [1, 0, 0], [0.6, 0, 0.8]]
        obj["precession"] = {"omega0": draw(EDGE), "n": draw(st.sampled_from(axes))}
    else:
        obj["params"] = {k: draw(EDGE) for k in ("a", "b", "alpha", "gamma")}
        obj["params"].update(c=draw(st.just(0.0) | EDGE), beta=draw(st.just(0.0) | EDGE),
                             omega=draw(EDGE | EDGE3))
    if stochastic:
        round_trip = mode == "montecarlo" and draw(st.booleans())
        obj["trajectory"] = {"dt": draw(st.just(1e-300) | POSITIVE),
                             "n_steps": draw(st.integers(1, 5)), "n_traj": 100,
                             "seed": draw(st.integers(0, 9)), "double_pass": round_trip}
        if round_trip:
            obj["noise"]["mean"] = [0.0, 0.0, 0.0]
    elif mode != "cp-check":
        obj["times"] = draw(TIMES)
    return obj


@settings(max_examples=400, deadline=None)
# lam3 squared underflows to 0 in the damping matrix
@example(obj={"mode": "evolve", "noise": {"g": [0, 0, 0], "lam": [1, 1, 1e-300]},
              "precession": {"omega0": 1}, "times": [0.0]})
# the precession vector passes the float range
@example(obj={"mode": "experiment",
              "noise": {"g": [1e154, 1e154, 1.7e308], "lam": [1e100, 1, 1],
                        "mean": [1e155, 1.7e308, 1e200]},
              "precession": {"omega0": 1e100, "n": [0.6, 0, 0.8]}, "times": [1e100, 1e154]})
@given(obj=edge_runs())
def test_runs_end_in_finite_output_or_one_diagnostic(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "edge.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["--config", str(path)])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert all(isinstance(json.loads(line), dict) for line in lines)
    if code == 2:
        # every number here is finite: the number or array rule's message would
        # mean a computed overflow reported as invalid input
        messages = [json.loads(line)["message"] for line in lines]
        assert not any("must be a finite number" in m or "must have finite entries" in m
                       for m in messages)
    if code == 3:
        assert len(lines) == 1
    if code == 0:
        _, header, rows = csv_parts(out.getvalue())
        for row in rows:
            for name, cell in zip(header, row):
                if cell in ("", "true", "false"):
                    continue
                value = float(cell)
                assert math.isfinite(value) or (name.startswith("z") and math.isinf(value))
