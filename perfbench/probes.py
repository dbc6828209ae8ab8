"""Standalone library probes the CLI never makes, run in a fresh process.

Usage::

    python3 perfbench/probes.py CONFIG_JSON OUT_JSON

CONFIG_JSON is mc-wide's generated config.  Measures, on that config,
one trajectory through ``evolve_trajectory`` (the per-step floor of the
kernel, with no ensemble width to amortize it) and ``ensemble_average``
with one worker against two.  The two
ensembles must agree bit for bit: that is the determinism contract.
"""

from __future__ import annotations

import json
import sys
import time

SINGLE_TRAJ_REPEATS = 15
WORKERS = 2


def main() -> int:
    config_path, out_path = sys.argv[1], sys.argv[2]
    import numpy as np

    from fiberpol.cli import parse_config
    from fiberpol.montecarlo import ensemble_average, evolve_trajectory

    with open(config_path) as handle:
        cfg = parse_config(handle.read())
    spec, fp, traj = cfg.noise, cfg.precession, cfg.trajectory

    single = []
    for _ in range(SINGLE_TRAJ_REPEATS):
        start = time.perf_counter()
        evolve_trajectory(spec, fp, traj, 0)
        single.append(time.perf_counter() - start)

    start = time.perf_counter()
    serial = ensemble_average(spec, fp, traj, n_workers=1)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    pooled = ensemble_average(spec, fp, traj, n_workers=WORKERS)
    t_pooled = time.perf_counter() - start

    identical = bool(
        np.array_equal(serial.mean_stokes, pooled.mean_stokes)
        and np.array_equal(serial.stderr, pooled.stderr)
    )
    with open(out_path, "w") as handle:
        json.dump(
            {
                "single_traj_ns_per_step": min(single) / traj.n_steps * 1e9,
                "serial_s": t_serial,
                "workers_s": t_pooled,
                "worker_speedup": t_serial / t_pooled,
                "workers_identical": identical,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
