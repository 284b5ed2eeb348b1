"""Start the ``repro`` CLI with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launcher.py SPANS_OUT <repro CLI args...>``

Used for the traced ``durable_service`` daemon so the process layout is
the same as the untraced ``python3 -m repro serve``.  Besides the
layer wrappers it brackets every ``run_simulation`` call as a run,
marks a period at each ``step_hook`` call, keeps each run's
``result.perf``, and writes everything to ``SPANS_OUT`` as JSON when the
CLI returns (after a SIGTERM drain for the daemon).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import tracing


def _traced_engine(tracer: tracing.Tracer, perfs: list, run_simulation):
    @functools.wraps(run_simulation)
    def traced(*args, step_hook=None, **kwargs):
        def hook(info):
            tracer.mark_period()
            return step_hook(info) if step_hook is not None else None
        tracer.begin_run()
        try:
            result = run_simulation(*args, step_hook=hook, **kwargs)
        finally:
            tracer.end_run()
        perfs.append(result.perf)
        return result
    return traced


def main(argv: list[str]) -> int:
    spans_out, cli_args = Path(argv[0]), argv[1:]
    import repro.cli
    import repro.sim
    tracer = tracing.Tracer()
    tracing.install(tracer)
    perfs: list = []
    repro.sim.run_simulation = _traced_engine(tracer, perfs,
                                              repro.sim.run_simulation)
    try:
        return repro.cli.main(cli_args)
    finally:
        dump = tracer.dump()
        dump["perf"] = perfs
        with open(spans_out, "w") as fh:
            json.dump(dump, fh, default=_plain)


def _plain(value):
    """JSON fallback for numpy scalars in perf dicts."""
    try:
        return value.item()
    except AttributeError:
        return str(value)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
