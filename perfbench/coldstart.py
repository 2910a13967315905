"""One cold start: a fresh interpreter runs a workload's first operation.

Usage (the benchmark starts it; ``src/`` must be on ``PYTHONPATH``)::

    python perfbench/coldstart.py sweep_jpeg --seed N
    python perfbench/coldstart.py search_fft --seed N --store DIR

The first stdout line is ``RESULT <json>`` and is printed the moment the
first usable result exists; the parent's clock stops when it reads it.
With ``--trace FILE`` the layer entry points are traced and, after the
result line, the span log goes to ``FILE.npz`` and the table-cache
counters to ``FILE.json``.
"""
from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("sweep_jpeg", "search_fft"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer).install()
        tracer.new_iteration()
    import ops

    if args.workload == "sweep_jpeg":
        result = {"rows": ops.sweep_rows(args.seed)}
    else:
        outcome = ops.search(args.store, args.seed)
        result = {"front": outcome.front.rows,
                  "evaluations": outcome.evaluations}
    print("RESULT " + json.dumps(ops.plain(result)), flush=True)

    if tracer is not None:
        from repro.core.backends import cache_stats

        tracer.save(args.trace + ".npz")
        with open(args.trace + ".json", "w") as handle:
            json.dump(ops.plain(cache_stats()), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
