#!/usr/bin/env python3
"""The repository's benchmark of record.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_jpeg --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_jpeg`` (warm in-process JPEG multiplier sweep),
``search_fft`` (successive-halving search on ``fft_joint`` against an empty
and then a warm store) and ``serve_mix`` (an open-loop request stream to a
``repro serve`` subprocess).  See ``perfbench/README.md`` for why each was
chosen and what each metric should move.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it traces the layer entry points and reports the per-layer
metrics.  Human-readable lines come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Every output
is checked; the exit code is 1 when any check failed, 2 when the benchmark
could not run.  A JSON copy of the result, with provenance, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; a traced run
leaves its span logs in ``perfbench/out/<workload>-seed<N>-trace1/``.

The measuring happens in a child process; this one only waits for it and
for every process it started, so none outlives the run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict

WORKLOADS = ("sweep_jpeg", "search_fft", "serve_mix")


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse(argv)
    from common import MEASURING, supervise

    if os.environ.get(MEASURING) != "1":
        return supervise(Path(__file__).resolve(), argv)
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    from common import (
        OUT,
        BenchError,
        prepare,
        provenance,
        purge_arena,
        remove_tree,
        steal_ticks,
    )

    started = time.perf_counter()
    try:
        run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        work = prepare(run_name)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import importlib

    from layers import PER_LAYER
    from report import END_TO_END

    module = importlib.import_module(args.workload)
    trace = bool(args.trace)
    steal_before, ticks_before = steal_ticks()
    try:
        purge_arena()
        report = module.run(args.seed, args.seconds, trace, work)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        purge_arena()
    steal_after, ticks_after = steal_ticks()
    steal_share = (steal_after - steal_before) / (ticks_after - ticks_before) \
        if ticks_after > ticks_before else 0.0
    report.details["host_steal_share"] = steal_share
    units = {name: unit
             for name, unit, _better in (PER_LAYER if trace else END_TO_END)}
    missing = set(units) - set(report.metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2
    metrics: Dict[str, Dict[str, object]] = {
        name: {"value": float(report.metrics[name]), "unit": unit}
        for name, unit in units.items()}

    info = provenance(args.workload, args.seed, trace)
    print(f"repro {info['repro_version']}, numpy {info['numpy_version']}, "
          f"python {info['python_version']}, kernel engine "
          f"{info['kernel_engine']}, arena "
          f"{'on' if info['arena']['enabled'] else 'off'}, nproc "
          f"{info['nproc']}, commit {info['git_commit']}")
    for line in report.lines:
        print(line)
    print(f"host steal time during the run: {100 * steal_share:.1f}% of CPU "
          f"time (time the hypervisor gave other guests)")
    for name, entry in metrics.items():
        count = report.samples.get(name)
        suffix = f" (n={count})" if count is not None else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{suffix}")
    print(f"failed_share = {report.failed / max(1, report.attempted):.6g} "
          f"({report.failed} of {report.attempted} checked operations)")
    for failure in report.failures:
        print(f"FAILED {failure}")

    correct = report.failed == 0
    document = {"provenance": info,
                "wall_s": time.perf_counter() - started,
                "correct": correct, "attempted": report.attempted,
                "failed": report.failed, "failures": report.failures,
                "metrics": metrics, "details": report.details,
                "lines": report.lines}
    output = OUT / f"{run_name}.json"
    output.write_text(json.dumps(document, indent=2, default=str) + "\n")
    if not trace:
        remove_tree(work)
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
