#!/usr/bin/env python3
"""fiberpol benchmark: four command-line workloads across both routes.

Usage, from the root of a fiberpol checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc-wide, mc-roundtrip-long, master-evolve-dense, master-r-scan
(RATIONALE.md says why each exists and what it should and should not
move).  The seed generates the one config file the program receives.
BENCHMARK.json lists mc-wide and master-r-scan; the other two stay
runnable by name.  Each attempt is a fresh ``fiberpol`` process on that
config; attempts repeat while the next one is expected to end within S
seconds (at least three).  Every attempt is checked: exit code, stderr
made of coded JSON records, finite cells, output bytes identical across
attempts, and the workload's oracle.

With ``--trace 0`` the result carries the end-to-end metrics, each a
median over the attempts, with set-up and run times adjusted to the host
speed that a reference process, timed before each attempt, measures
(RATIONALE.md, "Noise on a shared host").  With ``--trace 1`` plain and
traced attempts alternate, then the standalone probes run, and the result
carries the per-layer metrics.  The last line of standard output is the
result object; the lines before it hold the provenance record, the
oracle readings and a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INHERITED_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_ENV}
# numpy loads later (workloads.py), so this holds in this process and in every child
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ATTEMPTS = 3
MIN_TRACE_PAIRS = 2
IMPORT_PROBES = 3
#: every process this benchmark starts ends before this many seconds have passed
HARD_LIMIT_S = 170.0
STDERR_TARGET = 1e-4
#: The host-speed reference: a fresh interpreter importing what fiberpol
#: imports, but no fiberpol code, so no change to the program moves it.
REFERENCE_CODE = "import numpy, scipy.linalg"
#: Its median duration on the host where the benchmark was set up, in a
#: quiet phase; timings are reported as if the reference had taken this long.
REFERENCE_S = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mc_cost_s_at_stderr_1e-4": "s",
}


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Attempt:
    traced: bool
    ok: bool = False
    reason: str = ""
    wall_s: float = 0.0
    reference_s: float | None = None
    setup_s: float | None = None
    run_s: float | None = None
    rss_mb: float | None = None
    output: bytes | None = None
    spans: dict | None = None


@dataclass
class Session:
    workload: object
    inp: object
    workdir: Path
    config_path: Path
    started: float
    attempts: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)  # output bytes -> (ok, reason, table, info)
    reference: bytes | None = None

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=max(timeout, 1.0)
    )


def stderr_problem(stderr: bytes) -> str | None:
    for line in stderr.decode(errors="replace").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return f"stderr line is not JSON: {line[:120]}"
        if not isinstance(record, dict) or "code" not in record:
            return f"stderr record without a code: {line[:120]}"
    return None


def judge_output(sess: Session, data: bytes):
    """Finite cells and the oracle, once per distinct output."""
    from workloads import all_cells_finite, parse_table

    if data not in sess.verdicts:
        wl = sess.workload
        try:
            table = parse_table(data.decode(), wl.fmt)
            if not all_cells_finite(table):
                sess.verdicts[data] = (False, "non-finite output cell", table, {})
            else:
                ok, info = wl.check(table, sess.inp)
                sess.verdicts[data] = (ok, "" if ok else "oracle failed", table, info)
        except (ValueError, KeyError, IndexError) as exc:
            sess.verdicts[data] = (False, f"unreadable output: {exc}", None, {})
    return sess.verdicts[data]


def time_reference(sess: Session) -> float:
    start = time.perf_counter()
    proc = run_process([sys.executable, "-c", REFERENCE_CODE], sess.remaining())
    if proc.returncode != 0:
        raise BenchSetupError("the reference process failed: "
                              + proc.stderr.decode(errors="replace")[-300:])
    return time.perf_counter() - start


def attempt(sess: Session, traced: bool) -> Attempt:
    n = len(sess.attempts)
    timing = sess.workdir / f"timing{n}.json"
    spans = sess.workdir / f"spans{n}.json"
    out = sess.workdir / f"out{n}.{sess.workload.fmt}"
    argv = [sys.executable, str(HERE / "child.py"), str(timing)]
    argv += ["trace", str(spans)] if traced else ["plain"]
    argv += ["--", "--config", str(sess.config_path), "--out", str(out), *sess.inp.cli_args]
    result = Attempt(traced)
    sess.attempts.append(result)
    t_spawn = time.perf_counter()
    try:
        proc = run_process(argv, sess.remaining())
    except subprocess.TimeoutExpired:
        result.reason = "timed out"
        return result
    finally:
        result.wall_s = time.perf_counter() - t_spawn
    if proc.returncode != 0:
        result.reason = f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        return result
    problem = stderr_problem(proc.stderr)
    if problem:
        result.reason = problem
        return result
    try:
        marks = json.loads(timing.read_text())
        output = out.read_bytes()
        if traced:
            result.spans = json.loads(spans.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        result.reason = f"no output, timing or spans file: {exc}"
        return result
    if Path(marks["fiberpol_file"]).resolve().parent.parent != SRC.resolve():
        result.reason = f"fiberpol imported from {marks['fiberpol_file']}, not the checkout"
        return result
    result.setup_s = marks["t_parsed"] - t_spawn
    result.run_s = marks["t_end"] - marks["t_parsed"]
    result.rss_mb = marks["maxrss_kb"] / 1024.0
    result.output = output
    if sess.reference is None:
        sess.reference = result.output
    elif result.output != sess.reference:
        result.reason = "output bytes differ from the first attempt at the same seed"
        return result
    ok, reason, _, _ = judge_output(sess, result.output)
    result.ok, result.reason = ok, reason
    return result


# ---------------------------------------------------------------------------
# metrics


def end_to_end(sess: Session) -> tuple[dict, dict]:
    """Medians over the run's untraced attempts, timings adjusted to host speed.

    Other tenants' load slows every process on this kind of host by up to
    1.8x, in phases that outlast a run.  Each attempt is preceded by the
    reference process, whose median over the run gives the host's speed in
    that run; set-up and run times are divided by the median's ratio to
    REFERENCE_S (RATIONALE.md, "Noise on a shared host").  The raw medians
    are returned with the facts.
    """
    timed = [a for a in sess.attempts if a.ok and not a.traced]
    reference_s = statistics.median(a.reference_s for a in sess.attempts if not a.traced)
    slowdown = reference_s / REFERENCE_S
    raw_setup_s = statistics.median(a.setup_s for a in timed)
    raw_run_s = statistics.median(a.run_s for a in timed)
    run_s = raw_run_s / slowdown
    stderr = judge_output(sess, sess.reference)[3].get("median_stderr")
    # The master routes are deterministic with errors far below 1e-4, so their
    # cost at that accuracy is the run itself.
    scale = 1.0 if stderr is None else (stderr / STDERR_TARGET) ** 2
    values = {
        "setup_s": raw_setup_s / slowdown,
        "run_s": run_s,
        "items_per_s": sess.inp.items / run_s,
        "peak_rss_mb": statistics.median(a.rss_mb for a in timed),
        "mc_cost_s_at_stderr_1e-4": run_s * scale,
    }
    facts = {"reference_s": reference_s, "slowdown": slowdown,
             "raw_setup_s": raw_setup_s, "raw_run_s": raw_run_s}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, facts


def span_totals(doc: dict):
    """Per span name: calls, total ns, self ns; and ns of children by (parent, child) name."""
    names, spans = doc["names"], doc["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, total, own, nested = {}, {}, {}, {}
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + end - start - covered[i]
        if parent >= 0:
            key = (names[spans[parent][0]], name)
            nested[key] = nested.get(key, 0) + end - start
    return calls, total, own, nested


def per_layer_from_spans(sess: Session, a: Attempt) -> dict:
    from workloads import MC_BLOCK

    inp = sess.inp
    calls, total, own, nested = span_totals(a.spans)
    _, _, table, info = judge_output(sess, a.output)
    rows = len(table.rows)

    def tot(*names):
        return sum(total.get(n, 0) for n in names)

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    traj = inp.config.get("trajectory")
    is_mc = traj is not None
    r_points = n_calls("experiment.r_observable")
    block_rows = 0
    if is_mc:
        block_rows = 2 * traj["n_steps"] + 1 if traj.get("double_pass") else traj["n_steps"] + 1
    return {
        "montecarlo.ns_per_traj_step": (
            per(tot("montecarlo.ensemble_average", "montecarlo.mc_double_pass"),
                inp.items if is_mc else 0), "ns"),
        "montecarlo.report_overhead_ms": (
            (tot("montecarlo.mc_vs_master_report")
             - nested.get(("montecarlo.mc_vs_master_report", "montecarlo.ensemble_average"), 0))
            / 1e6, "ms"),
        "montecarlo.blocks": (math.ceil(traj["n_traj"] / MC_BLOCK) if is_mc else 0, "count"),
        "montecarlo.state_mb_computed": (
            min(MC_BLOCK, traj["n_traj"]) * block_rows * 3 * 8 / 1e6 if is_mc else 0.0, "MB"),
        "montecarlo.median_stderr": (info.get("median_stderr", 0.0), "stokes"),
        "montecarlo.max_abs_z": (info.get("max_abs_z", 0.0), "z"),
        "propagator.expm_us_per_point": (
            per(tot("propagator.mueller_exact"), n_calls("propagator.mueller_exact"), 1e-3), "us"),
        "propagator.calls": (
            n_calls("propagator.mueller_exact", "propagator.mueller_closed_form",
                    "propagator.backward_mueller"), "count"),
        "propagator.closed_form_us_per_point": (
            per(tot("propagator.mueller_closed_form", "propagator.backward_mueller"),
                r_points, 1e-3), "us"),
        "experiment.r_us_per_point": (per(tot("experiment.r_scan"), r_points, 1e-3), "us"),
        "experiment.singular_points": (r_points - rows if r_points else 0, "count"),
        "states.stokes_from_array_us": (
            per(tot("states.StokesVector.from_array"),
                n_calls("states.StokesVector.from_array"), 1e-3), "us"),
        "cli.parse_config_ms": (tot("cli.parse_config") / 1e6, "ms"),
        "cli.residual_ns_per_row": (per(own.get("cli.run", 0), rows), "ns"),
        "cli.output_bytes": (len(a.output), "bytes"),
        "noise.c_matrix_closed_us": (tot("noise.c_matrix_closed") / 1e3, "us"),
        "noise.effective_hamiltonian_us": (tot("noise.effective_hamiltonian") / 1e3, "us"),
        "generator.build_us": (tot("generator.build_generator") / 1e3, "us"),
        "generator.cp_check_us": (
            tot("generator.cp_inequalities", "generator.is_completely_positive") / 1e3, "us"),
    }


def import_probe(sess: Session) -> float:
    code = "import time; t = time.perf_counter(); import fiberpol.cli; print(time.perf_counter() - t)"
    readings = []
    for _ in range(IMPORT_PROBES):
        proc = run_process([sys.executable, "-c", code], sess.remaining())
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace")[-300:])
        readings.append(float(proc.stdout.decode().strip()) * 1e3)
    return min(readings)


def library_probes(sess: Session, seed: int) -> dict:
    from workloads import WORKLOADS

    cfg_path = sess.workdir / "probe_config.json"
    cfg_path.write_text(json.dumps(WORKLOADS["mc-wide"].make(seed).config))
    out = sess.workdir / "probes.json"
    proc = run_process([sys.executable, str(HERE / "probes.py"), str(cfg_path), str(out)],
                       sess.remaining())
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace")[-300:])
    return json.loads(out.read_text())


def per_layer(sess: Session, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics, and facts about the probes; a failed probe reads 0."""
    traced = [a for a in sess.attempts if a.traced and a.ok]
    per_attempt = [per_layer_from_spans(sess, a) for a in traced]
    # fastest traced attempt per metric; counts repeat exactly, so min is the count
    metrics = {
        name: (min(m[name][0] for m in per_attempt), unit)
        for name, (_, unit) in per_attempt[0].items()
    }
    plain_run = min(a.run_s for a in sess.attempts if not a.traced and a.ok)
    metrics["trace.overhead_s"] = (min(a.run_s for a in traced) - plain_run, "s")
    facts = {"missing_trace_targets": traced[0].spans["missing"],
             "spans_per_traced_run": len(traced[0].spans["spans"])}
    try:
        probes = library_probes(sess, seed)
        import_ms = import_probe(sess)
        facts.update(probes, probes_ok=probes["workers_identical"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        probes = {"single_traj_ns_per_step": 0.0, "worker_speedup": 0.0}
        import_ms = 0.0
        facts.update(probes_ok=False, probe_error=str(exc))
    metrics["montecarlo.single_traj_ns_per_step"] = (probes["single_traj_ns_per_step"], "ns")
    metrics["montecarlo.worker_speedup"] = (probes["worker_speedup"], "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    return metrics, facts


# ---------------------------------------------------------------------------
# provenance


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def provenance() -> dict:
    import numpy
    import scipy

    import fiberpol

    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "thread_env_children": THREAD_ENV,
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "info_src_lines": src_lines,
        "info_fiberpol_exports": len(fiberpol.__all__),
    }


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def check_checkout():
    if not (SRC / "fiberpol" / "cli.py").is_file():
        raise BenchSetupError(f"no fiberpol sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    proc = run_process([sys.executable, "-c", "import fiberpol.cli"], 60.0)
    if proc.returncode != 0:
        raise BenchSetupError("fiberpol.cli does not import: "
                              + proc.stderr.decode(errors="replace")[-300:])


def collect(sess: Session, seconds: int, trace: bool):
    """Attempts until the deadline; a traced run alternates plain and traced
    attempts and stops at half time, leaving the rest for the probes.

    Past the minimum, no attempt (or plain-and-traced pair) starts that the
    last one's duration says would end after the deadline, so a run takes
    about ``seconds`` however long one attempt is.  An untraced run times
    the reference process before each attempt.
    """
    deadline = sess.started + (seconds / 2 if trace else seconds)
    minimum = 2 * MIN_TRACE_PAIRS if trace else MIN_ATTEMPTS
    while sess.remaining() > 0:
        done = len(sess.attempts)
        if done >= minimum and not (trace and done % 2):
            last = sess.attempts[-2:] if trace else sess.attempts[-1:]
            step = sum(a.wall_s + (a.reference_s or 0.0) for a in last)
            if time.perf_counter() + step > deadline:
                break
        reference_s = None if trace else time_reference(sess)
        attempt(sess, traced=trace and done % 2 == 1).reference_s = reference_s


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    from workloads import WORKLOADS

    try:
        check_checkout()
    except BenchSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    inp = wl.make(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(inp.config, indent=1))
        sess = Session(wl, inp, workdir, config_path, time.perf_counter())
        try:
            collect(sess, args.seconds, bool(args.trace))
        except BenchSetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        failed = sum(not a.ok for a in sess.attempts)
        attempted = len(sess.attempts)
        info = judge_output(sess, sess.reference)[3] if sess.reference is not None else {}
        facts = {}
        kinds = {a.traced for a in sess.attempts if a.ok}
        if kinds != ({False, True} if args.trace else {False}):
            metrics = {}
        elif args.trace:
            metrics, facts = per_layer(sess, args.seed)
            attempted += 1
            failed += 0 if facts["probes_ok"] else 1
        else:
            metrics, facts = end_to_end(sess)
        print(json.dumps({"provenance": provenance()}))
        print(json.dumps({
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "attempts": [{"traced": a.traced, "ok": a.ok, "reason": a.reason, "setup_s": a.setup_s,
                          "run_s": a.run_s, "rss_mb": a.rss_mb, "reference_s": a.reference_s}
                         for a in sess.attempts],
            "failed_frac": failed / attempted, "oracle": info, "facts": facts,
        }))
        samples = sum(1 for a in sess.attempts if a.ok and a.traced == bool(args.trace))
        print(f"{wl.name}: {samples} {'traced' if args.trace else 'plain'} attempts passed, "
              f"{failed} of {attempted} failed")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if metrics else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
