"""``sweep_jpeg``: the warm in-process JPEG multiplier sweep.

``jpeg(size=192, quality=90, frames=10)`` over ``MULt(16,16)``, ``AAM(16)``,
``ABM(16)`` and ``BOOTH(16)`` on the ``"compiled"`` backend, with no store
and no energy model.  Its time goes to the DCT (``apps``), the compiled
bank serve (``core.backends``), stimulus generation (``apps.images``) and
SSIM (``metrics``); the store, hardware and server layers do no work.

Sweeps run in pairs on one study seed, alternating between two seeds whose
images never overlap: the first sweep of a pair is a *front* sample (its
inputs differ from the previous sweep's), the second a *replay* sample
(the same sweep again at once, so only in-process reuse can make it
cheaper).
"""
from __future__ import annotations

import json
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

import ops
from common import (
    cold_start,
    mark,
    net_seconds,
    nproc,
    peak_rss_mb,
    purge_arena,
)
from layers import cold_tables, complete, from_spans, overhead
from report import Report
from spans import Tracer, instrument, load_columns
from stats import describe, latency_line, median

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Latency limit of one sweep for ``slo_share``.
SLO_S = 1.5
#: Gap between the two study seeds: more than ``frames`` image seeds.
SEED_GAP = 1000


def study_seeds(seed: int) -> Tuple[int, int]:
    """The two study seeds of a run (deterministic in the workload seed)."""
    first = random.Random(f"sweep_jpeg:{seed}").randrange(1_000_000)
    return first, first + SEED_GAP


def _references(seeds: Tuple[int, ...]) -> Dict[int, List[Dict]]:
    """Direct-backend rows of each study seed, one process per seed.

    Runs after the measured window, so the processes compete with nothing
    that is timed.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(len(seeds), nproc()),
                             mp_context=context) as pool:
        futures = {seed: pool.submit(ops.sweep_rows, seed, "direct")
                   for seed in seeds}
        return {seed: future.result() for seed, future in futures.items()}


def _row_problems(rows: List[Dict], reference: List[Dict]) -> List[str]:
    if rows == reference:
        return []
    return [f"{len(rows)} rows differ from the direct-backend reference"]


def run(seed: int, seconds: float, trace: bool, work: Path) -> Report:
    report = Report()
    first, second = study_seeds(seed)
    cold_file = work / "cold"
    setups = [cold_start("sweep_jpeg", first, work,
                         cold_file if trace else None)
              for _ in range(1 if trace else SETUP_SAMPLES)]

    purge_arena()
    warm = {study: ops.sweep_rows(study) for study in (first, second)}

    tracer = Tracer()
    instrumentation = instrument(tracer) if trace else None
    samples = []  # (kind, study seed, seconds, traced, rows, iteration)
    window_start = mark()
    deadline = window_start[0] + seconds
    pair = 0
    while time.perf_counter() < deadline:
        study = first if pair % 2 == 0 else second
        traced = trace and (pair // 2) % 2 == 1
        for kind in ("front", "replay"):
            iteration = 0
            if traced:
                instrumentation.install()
                iteration = tracer.new_iteration()
                started = mark()
                with tracer.span("bench.sweep"):
                    rows = ops.sweep_rows(study)
                elapsed = net_seconds(started)
                instrumentation.remove()
            else:
                started = mark()
                rows = ops.sweep_rows(study)
                elapsed = net_seconds(started)
            samples.append((kind, study, elapsed, traced, rows, iteration))
        pair += 1
    window_s = net_seconds(window_start)
    rss = peak_rss_mb()

    references = _references((first, second))
    plain_first = ops.plain(references[first])
    for index, (_seconds, result) in enumerate(setups):
        report.check(f"cold start {index}",
                     _row_problems(result["rows"], plain_first))
    for study, rows in warm.items():
        report.check(f"warm-up seed {study}",
                     _row_problems(rows, references[study]))
    correct = []
    for index, (kind, study, _s, _t, rows, _i) in enumerate(samples):
        correct.append(report.check(
            f"sweep {index} ({kind}, seed {study})",
            _row_problems(rows, references[study])))

    report.details.update(study_seeds=[first, second], sweeps=len(samples),
                          window_s=window_s)
    if trace:
        return _traced(report, samples, tracer, cold_file, work)

    times = [s[2] for s in samples]
    fronts = [s[2] for s in samples if s[0] == "front"]
    replays = [s[2] for s in samples if s[0] == "replay"]
    setup_times = [seconds for seconds, _result in setups]
    within = sum(1 for ok, s in zip(correct, samples) if ok and s[2] <= SLO_S)
    report.record({"setup_s": median(setup_times)}, len(setup_times))
    report.record({"front_s": median(fronts)}, len(fronts))
    report.record({"replay_s": median(replays)}, len(replays))
    report.record({
        "points_per_s": len(ops.JPEG_MULTIPLIERS) * len(samples) / window_s,
        "cost_units": median([len(s[4]) for s in samples]),
        "slo_share": within / len(samples),
    }, len(samples))
    report.record({"peak_rss_mb": rss}, 1)
    report.say(describe("setup_s (cold interpreter -> first sweep rows)",
                        setup_times, "s"))
    report.say(describe("sweep latency (all sweeps)", times, "ms", 1e3))
    report.say(latency_line(times, "sweeps"))
    report.say(describe("front_s (inputs new to the previous sweep)",
                        fronts, "s"))
    report.say(describe("replay_s (same sweep again at once)", replays, "s"))
    report.say(f"slo_share: {within}/{len(samples)} sweeps correct within "
               f"{SLO_S:g} s")
    return report


def _traced(report: Report, samples, tracer: Tracer, cold_file: Path,
            work: Path) -> Report:
    tracer.save(str(work / "spans.npz"))
    columns = tracer.columns()
    iterations = [s[5] for s in samples if s[3]]
    values = from_spans(columns, iterations)
    with open(f"{cold_file}.json") as handle:
        values.update(cold_tables(json.load(handle),
                                  load_columns(f"{cold_file}.npz")))
    values["trace.overhead_share"] = overhead(
        [s[2] for s in samples if s[3]], [s[2] for s in samples if not s[3]])
    report.record({name: entry["value"]
                   for name, entry in complete(values).items()},
                  len(iterations))
    report.say(f"traced sweeps: {len(iterations)} of {len(samples)}; "
               f"{len(tracer)} spans in {work / 'spans.npz'}")
    return report
