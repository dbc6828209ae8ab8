"""One fiberpol command-line run in a fresh process, timed from inside.

Usage::

    python3 perfbench/child.py TIMING_JSON plain -- CLI_ARGS...
    python3 perfbench/child.py TIMING_JSON trace SPANS_JSON -- CLI_ARGS...

It calls ``fiberpol.cli:main``, the function the ``fiberpol`` console
script calls, with CLI_ARGS.  The only addition on the plain path is one
clock reading when ``parse_config`` returns, which splits set-up from
run time.  The trace path also wraps the library's public functions with
span recorders (see tracer.py).  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    timing_path, mode = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    spans_path = rest.pop(0) if mode == "trace" else None
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py TIMING_JSON (plain | trace SPANS_JSON) -- CLI_ARGS...")
    cli_args = rest[1:]

    import fiberpol.cli as cli

    recorder = None
    if spans_path is not None:
        import tracer

        recorder = tracer.install()

    marks = {}
    parse = cli.parse_config

    def parse_and_mark(text):
        cfg = parse(text)
        marks["t_parsed"] = time.perf_counter()
        return cfg

    cli.parse_config = parse_and_mark
    code = cli.main(cli_args)
    t_end = time.perf_counter()
    if recorder is not None:
        recorder.dump(spans_path)
    with open(timing_path, "w") as handle:
        json.dump(
            {
                "t_parsed": marks.get("t_parsed"),
                "t_end": t_end,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "fiberpol_file": cli.__file__,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
