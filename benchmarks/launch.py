"""Run the singlimit command line in this process, optionally traced.

    python3 benchmarks/launch.py [--trace-out FILE] -- <singlimit arguments>

Without ``--trace-out`` this does what the installed ``singlimit`` script
does: it calls ``singlimit.cli:main``.  With it, the hooks of
``tracer.HOOKS`` are installed before the command runs, and the span summary
is written to FILE as JSON when it ends.  ``singlimit`` is imported from
``PYTHONPATH``, which the benchmark points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from singlimit.cli import cli_dispatch

    if trace_out is None:
        return cli_dispatch(argv)

    from tracer import HOOKS, Tracer

    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        return cli_dispatch(argv)
    finally:
        tracer.uninstall()
        trace_out.write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
