"""The four benchmark workloads: seeded inputs and independent output oracles.

Each workload turns a seed into one fiberpol config file (the only input
the program receives) plus the facts the oracle needs, and checks an
output table against a reference that does not reuse the code path that
produced it.  Why each workload exists is written down in RATIONALE.md.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass

import numpy as np

# Criterion 6's weak-coupling noise about axis 3: Lam_i = G_i / (lam_i^2 + omega0^2) <= 0.01.
MC_LAM = (10.0, 10.0, 10.0)
MC_G = tuple(w * (10.0**2 + 1.0**2) for w in (2e-5, 1e-5, 1.5e-5))
MC_OMEGA0 = 1.0
MC_DT = 1e-3
#: trajectories per Welford block in fiberpol.montecarlo; used only for computed counts
MC_BLOCK = 256

Z_GATE = 5.0
Z_EXACT = 1e-9
EVOLVE_TOL = 1e-9
R_REL_TOL = 1e-9
CP_VERDICT_TOL = 1e-10


@dataclass
class Input:
    """A generated config and what the checks need to know about it."""

    config: dict
    cli_args: list[str]
    items: int
    rows: int


@dataclass
class Table:
    metadata: dict
    columns: list[str]
    rows: list[list]


def parse_table(text: str, fmt: str) -> Table:
    """Read a fiberpol CSV or JSON output table; cells stay as written."""
    if fmt == "json":
        obj = json.loads(text)
        cols = obj["columns"]
        return Table(obj["metadata"], cols, [[rec[c] for c in cols] for rec in obj["records"]])
    lines = text.split("\n")
    prefix = "# metadata: "
    if not lines[0].startswith(prefix) or lines[-1] != "":
        raise ValueError("CSV output lacks the metadata line or the final newline")
    cols = lines[1].split(",")
    return Table(json.loads(lines[0][len(prefix):]), cols, [ln.split(",") for ln in lines[2:-1]])


def all_cells_finite(table: Table) -> bool:
    for row in table.rows:
        for cell in row:
            if isinstance(cell, bool) or cell in ("true", "false"):
                continue
            if not math.isfinite(float(cell)):
                return False
    return True


def column(table: Table, name: str) -> np.ndarray:
    k = table.columns.index(name)
    return np.array([float(row[k]) for row in table.rows])


def median_stderr(table: Table) -> float:
    """Median reported standard error over samples with t > 0 and components."""
    t = column(table, "t")
    errs = np.stack([column(table, f"stderr{i}") for i in (1, 2, 3)], axis=1)
    return float(statistics.median(errs[t > 0.0].ravel().tolist()))


def _z(mc: np.ndarray, ref: np.ndarray, err: np.ndarray) -> np.ndarray:
    diff = mc - ref
    z = np.zeros_like(diff)
    exact = np.abs(diff) <= Z_EXACT
    finite = ~exact & (err > 0.0)
    z[finite] = diff[finite] / err[finite]
    z[~exact & ~finite] = np.inf
    return z


def _mc_config(mode: str, n_steps: int, n_traj: int, seed: int, double_pass: bool) -> dict:
    traj = {"dt": MC_DT, "n_steps": n_steps, "n_traj": n_traj, "seed": seed % 2**64}
    if double_pass:
        traj["double_pass"] = True
    return {
        "mode": mode,
        "noise": {"g": list(MC_G), "lam": list(MC_LAM)},
        "precession": {"omega0": MC_OMEGA0},
        "initial": [1.0, 0.0, 0.0],
        "trajectory": traj,
    }


def _mc_reference():
    from fiberpol import FreePrecession, NoiseSpec, simplified_params

    spec = NoiseSpec(g=MC_G, lam=MC_LAM)
    fp = FreePrecession(omega0=MC_OMEGA0)
    return simplified_params(spec, fp)


class McWide:
    name = "mc-wide"
    fmt = "csv"
    n_traj = 4096
    n_steps = 1000
    #: z is gated once the noise has relaxed: t >= 5 / min(lam)
    t_gate = 5.0 / min(MC_LAM)

    def make(self, seed: int) -> Input:
        cfg = _mc_config("compare", self.n_steps, self.n_traj, seed, False)
        return Input(cfg, [], self.n_traj * self.n_steps, rows=20)

    def check(self, table: Table, inp: Input) -> tuple[bool, dict]:
        from fiberpol import mueller_closed_form

        params, omega = _mc_reference()
        t = column(table, "t")
        s0 = np.array(inp.config["initial"])
        closed = np.stack([mueller_closed_form(params, omega, tk).matrix @ s0 for tk in t])
        mc = np.stack([column(table, f"mc{i}") for i in (1, 2, 3)], axis=1)
        err = np.stack([column(table, f"stderr{i}") for i in (1, 2, 3)], axis=1)
        master = np.stack([column(table, f"master{i}") for i in (1, 2, 3)], axis=1)
        z = np.abs(_z(mc, closed, err))
        gated = z[t >= self.t_gate]
        master_dev = float(np.max(np.abs(master - closed)))
        info = {
            "max_abs_z_gated": float(np.max(gated)),
            # recorded, not gated: the Markov reference's startup transient
            "max_abs_z": float(table.metadata["max_abs_z"]),
            "t_of_max_abs_z": float(t[np.argmax(np.max(z, axis=1))]),
            "master_vs_closed_form": master_dev,
            "median_stderr": median_stderr(table),
        }
        ok = (
            len(t) == inp.rows
            and gated.size > 0
            and bool(np.all(gated <= Z_GATE))
            and master_dev <= Z_EXACT
        )
        return ok, info


class McRoundtripLong:
    name = "mc-roundtrip-long"
    fmt = "csv"
    n_traj = 256
    n_steps = 5000

    def make(self, seed: int) -> Input:
        cfg = _mc_config("montecarlo", self.n_steps, self.n_traj, seed, True)
        return Input(cfg, [], 2 * self.n_traj * self.n_steps, rows=2 * self.n_steps + 1)

    def check(self, table: Table, inp: Input) -> tuple[bool, dict]:
        from fiberpol import StokesVector, double_pass, mueller_closed_form

        params, omega = _mc_reference()
        s0 = np.array(inp.config["initial"])
        t_flight = self.n_steps * MC_DT
        mirror_ref = mueller_closed_form(params, omega, t_flight).matrix @ s0
        final_ref = double_pass(params, omega, t_flight, StokesVector.from_array(s0)).as_array()
        t = column(table, "t")
        mean = np.stack([column(table, f"mean{i}") for i in (1, 2, 3)], axis=1)
        err = np.stack([column(table, f"stderr{i}") for i in (1, 2, 3)], axis=1)
        n = self.n_steps
        z_mirror = np.abs(_z(mean[n], mirror_ref, err[n]))
        z_final = np.abs(_z(mean[-1], final_ref, err[-1]))
        info = {
            "max_abs_z": float(max(np.max(z_mirror), np.max(z_final))),
            "median_stderr": median_stderr(table),
        }
        ok = (
            len(t) == inp.rows
            and abs(t[n] - t_flight) <= 1e-9
            and bool(np.all(z_mirror <= Z_GATE))
            and bool(np.all(z_final <= Z_GATE))
        )
        return ok, info


class MasterEvolveDense:
    name = "master-evolve-dense"
    fmt = "csv"
    count = 50_000
    stop = 10.0

    def make(self, seed: int) -> Input:
        rng = random.Random(f"{self.name}/{seed}")
        theta = rng.uniform(0.4, 1.2)  # off axis 3, so only the expm route applies
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        u = rng.uniform(-1.0, 1.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        s0 = [math.sqrt(1.0 - u * u) * math.cos(psi), math.sqrt(1.0 - u * u) * math.sin(psi), u]
        cfg = {
            "mode": "evolve",
            "noise": {
                "g": [rng.uniform(0.01, 0.05) for _ in range(3)],
                "lam": [rng.uniform(0.5, 2.0) for _ in range(3)],
                "mean": [rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.1) for _ in range(3)],
            },
            "precession": {"omega0": rng.uniform(0.8, 1.2), "n": n},
            "times": {"start": 0.0, "stop": self.stop, "count": self.count},
            "initial": s0,
        }
        return Input(cfg, [], self.count, rows=self.count)

    def check(self, table: Table, inp: Input) -> tuple[bool, dict]:
        """Every row against the semigroup product M(dt)^k s0."""
        from scipy.linalg import expm

        from fiberpol import (
            FreePrecession,
            NoiseSpec,
            build_generator,
            c_matrix_closed,
            effective_hamiltonian,
            params_from_kossakowski,
        )

        noise = inp.config["noise"]
        spec = NoiseSpec(g=tuple(noise["g"]), lam=tuple(noise["lam"]), mean=tuple(noise["mean"]))
        prec = inp.config["precession"]
        fp = FreePrecession(omega0=prec["omega0"], n=tuple(prec["n"]))
        params = params_from_kossakowski(c_matrix_closed(spec, fp).symmetric_part())
        gen = build_generator(params, effective_hamiltonian(spec, fp))
        step = expm(-2.0 * (self.stop / (self.count - 1)) * gen.matrix)
        states = np.empty((self.count, 3))
        s = np.array(inp.config["initial"], dtype=float)
        for k in range(self.count):
            states[k] = s
            s = step @ s
        out = np.stack([column(table, f"rho{i}") for i in (1, 2, 3)], axis=1)
        if out.shape != states.shape:
            return False, {"rows": len(out)}
        dev = float(np.max(np.abs(out - states)))
        return dev <= EVOLVE_TOL, {"max_dev_vs_semigroup": dev}


class MasterRScan:
    name = "master-r-scan"
    fmt = "json"
    count = 40_000
    start = 0.01
    stop = 4.0

    def make(self, seed: int) -> Input:
        rng = random.Random(f"{self.name}/{seed}")
        # a + alpha - gamma < 0: not completely positive, so R > 1 and every verdict is false.
        # omega keeps 2 Omega t below pi on the grid: no zero of the linear probe's
        # second component, hence no singular point.
        params = {
            "a": rng.uniform(0.05, 0.15),
            "b": rng.uniform(-0.05, 0.05),
            "c": 0.0,
            "alpha": rng.uniform(0.05, 0.15),
            "beta": 0.0,
            "gamma": rng.uniform(0.4, 0.6),
            "omega": rng.uniform(0.2, 0.3),
        }
        cfg = {
            "mode": "experiment",
            "params": params,
            "times": {"start": self.start, "stop": self.stop, "count": self.count},
        }
        return Input(cfg, ["--format", "json"], self.count, rows=self.count)

    def check(self, table: Table, inp: Input) -> tuple[bool, dict]:
        p = inp.config["params"]
        rate = p["a"] + p["alpha"] - p["gamma"]
        t = column(table, "t")
        r_value = column(table, "r_value")
        r_closed = np.exp(-2.0 * rate * t)
        k = table.columns.index("verdict")
        verdicts = np.array([row[k] for row in table.rows])
        rel = float(np.max(np.abs(r_value / r_closed - 1.0)))
        closed_dev = float(np.max(np.abs(column(table, "r_closed") / r_closed - 1.0)))
        verdict_ok = bool(np.all(verdicts == (r_closed <= 1.0 + CP_VERDICT_TOL)))
        ok = len(t) == inp.rows and rel <= R_REL_TOL and closed_dev <= R_REL_TOL and verdict_ok
        return ok, {"max_rel_dev_r": rel, "max_rel_dev_r_closed": closed_dev,
                    "verdicts_true": int(np.count_nonzero(verdicts))}


WORKLOADS = {w.name: w for w in (McWide(), McRoundtripLong(), MasterEvolveDense(), MasterRScan())}
