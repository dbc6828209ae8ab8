"""Span recorders around the fiberpol functions the CLI and the ensemble call.

Each wrapped call records (name, start ns, end ns, parent span index).
Spans stay in memory and are written out once, after the CLI returns.
Only module attributes are replaced; no fiberpol source is touched.  A
function is wrapped in every namespace that imported it, so that calls
from inside the library (the ensemble's reference path, the damping
matrix inside the effective precession vector) are seen too.  The stack
of open spans assumes one thread, which holds for every CLI mode.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  backward_mueller's own call to
# mueller_closed_form goes through fiberpol.propagator, which is left
# unwrapped, so each R point counts two propagator calls, not three.
TARGETS = (
    ("fiberpol.cli", "parse_config", "cli.parse_config"),
    ("fiberpol.cli", "run", "cli.run"),
    ("fiberpol.cli", "mueller_exact", "propagator.mueller_exact"),
    ("fiberpol.montecarlo", "mueller_exact", "propagator.mueller_exact"),
    ("fiberpol.experiment", "mueller_closed_form", "propagator.mueller_closed_form"),
    ("fiberpol.experiment", "backward_mueller", "propagator.backward_mueller"),
    ("fiberpol.cli", "r_scan", "experiment.r_scan"),
    ("fiberpol.experiment", "r_observable", "experiment.r_observable"),
    ("fiberpol.cli", "ensemble_average", "montecarlo.ensemble_average"),
    ("fiberpol.montecarlo", "ensemble_average", "montecarlo.ensemble_average"),
    ("fiberpol.cli", "mc_double_pass", "montecarlo.mc_double_pass"),
    ("fiberpol.cli", "mc_vs_master_report", "montecarlo.mc_vs_master_report"),
    ("fiberpol.cli", "c_matrix_closed", "noise.c_matrix_closed"),
    ("fiberpol.montecarlo", "c_matrix_closed", "noise.c_matrix_closed"),
    ("fiberpol.noise", "c_matrix_closed", "noise.c_matrix_closed"),
    ("fiberpol.cli", "effective_hamiltonian", "noise.effective_hamiltonian"),
    ("fiberpol.montecarlo", "effective_hamiltonian", "noise.effective_hamiltonian"),
    ("fiberpol.cli", "build_generator", "generator.build_generator"),
    ("fiberpol.generator", "build_generator", "generator.build_generator"),
    ("fiberpol.cli", "cp_inequalities", "generator.cp_inequalities"),
    ("fiberpol.cli", "is_completely_positive", "generator.is_completely_positive"),
)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i] = (nid, start, clock(), parent)
                stack.pop()

        return traced

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, handle)


def install() -> SpanRecorder:
    """Wrap every target that exists; record the ones that do not."""
    rec = SpanRecorder()
    wrapped = {}
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            rec.missing.append(f"{module_name}.{attr}")
            continue
        if id(fn) not in wrapped:
            wrapped[id(fn)] = rec.wrap(span, fn)
        setattr(module, attr, wrapped[id(fn)])
    states = importlib.import_module("fiberpol.states")
    from_array = states.StokesVector.__dict__.get("from_array")
    if isinstance(from_array, classmethod):
        states.StokesVector.from_array = classmethod(
            rec.wrap("states.StokesVector.from_array", from_array.__func__)
        )
    else:
        rec.missing.append("fiberpol.states.StokesVector.from_array")
    return rec
