"""``repro serve`` with every layer entry point traced.

Usage (the benchmark starts it; ``src/`` must be on ``PYTHONPATH``)::

    python perfbench/serve_traced.py SPANS.npz serve --port 0 --store DIR

Runs the program's own CLI in-process after installing the span wrappers,
so the server is exactly ``python -m repro serve`` plus tracing.  When the
server exits (SIGTERM drains it) the span log is written to ``SPANS.npz``.
"""
from __future__ import annotations

import sys


def main() -> int:
    from spans import Tracer, instrument

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrumentation = instrument(tracer).install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        instrumentation.remove()
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
