"""Launch ``repro serve`` for the serve-mix workload.

Usage::

    python3 perfbench/serve_main.py [--layers-out FILE] serve ROOT --port 0

Runs the program's own command line (``repro.cli.main``) with the
arguments given, so the service starts exactly as ``python -m repro
serve`` would.  With ``--layers-out`` the process installs the layer
clock on SIGUSR1 (the start of the traced half of the run) and writes
the clock's totals to FILE when the service has drained and exited.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    layers_out = None
    if argv[:1] == ["--layers-out"]:
        layers_out, argv = Path(argv[1]), argv[2:]
    from repro import cli

    if layers_out is None:
        return cli.main(argv)

    from layers import LayerClock

    clock = LayerClock()

    def start_tracing(signum, frame):  # noqa: ARG001
        clock.install_pipeline()
        clock.install_serve()

    signal.signal(signal.SIGUSR1, start_tracing)
    try:
        return cli.main(argv)
    finally:
        clock.uninstall()
        layers_out.write_text(json.dumps({"ms": clock.ms,
                                          "count": clock.count}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
