"""``search_fft``: the seeded halving search on ``fft_joint``, then its replay.

Each iteration searches the 78-point ``fft_joint`` space at full density on
the ``"direct"`` backend against an empty store with a fresh energy model
(the *front*), then replays the same search against that store (the
*replay*).  Its time goes to per-operation dispatch on the direct backend,
the ``fxp`` quantisers, hardware characterisation and store writes, then
store reads: the write-then-read use of ``core.store``, and the workload on
which candidate-batched evaluation would show.

The workload seed drives the search strategy, as ``repro search --seed``
does; the study keeps the target's own stimulus seed, the configuration
the CI recall gate validates.
"""
from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import ops
from common import (
    cold_start,
    mark,
    net_seconds,
    nproc,
    peak_rss_mb,
    purge_arena,
    remove_tree,
)
from layers import cold_tables, complete, from_spans, overhead
from report import Report
from spans import Tracer, instrument, load_columns
from stats import describe, latency_line, median

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Latency limit of one empty-store search for ``slo_share``.
SLO_S = 4.0
#: Replays timed together after each untraced empty-store search: one
#: replay takes about 70 ms, too short to time alone against the 10 ms
#: ticks of the host steal counter.
REPLAYS = 5


def _cold_start(seed: int, work: Path, trace: Optional[Path] = None
                ) -> Tuple[float, Dict]:
    """Cold start against a fresh empty store -> first searched front."""
    store = Path(tempfile.mkdtemp(prefix="store-", dir=work))
    try:
        return cold_start("search_fft", seed, work, trace, store)
    finally:
        remove_tree(store)


def _replay_problems(front, replay) -> List[str]:
    problems = []
    if replay.front.rows != front.front.rows:
        problems.append("replayed front differs from the searched front")
    if replay.rounds != front.rounds:
        problems.append("replayed schedule differs")
    if replay.store_hits != replay.evaluations:
        problems.append(f"replay served {replay.store_hits} of "
                        f"{replay.evaluations} evaluations from the store")
    return problems


def _front_problems(rows: List[Dict], reference: List[Dict]) -> List[str]:
    if rows == reference:
        return []
    return [f"front of {len(rows)} points differs from the exhaustive "
            f"front of {len(reference)}"]


def run(seed: int, seconds: float, trace: bool, work: Path) -> Report:
    report = Report()
    cold_file = work / "cold"
    setups = [_cold_start(seed, work, cold_file if trace else None)
              for _ in range(1 if trace else SETUP_SAMPLES)]

    purge_arena()
    tracer = Tracer()
    instrumentation = instrument(tracer) if trace else None
    # (front seconds, seconds per replay, outcome, replays, traced, iteration)
    samples = []
    index = 0
    deadline = time.perf_counter() + seconds
    # One untimed iteration first: the timed ones start from a warm process.
    while index == 0 or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        store = tempfile.mkdtemp(prefix="store-", dir=work)
        iteration = 0
        if traced:
            instrumentation.install()
            iteration = tracer.new_iteration()
        started = mark()
        if traced:
            with tracer.span("bench.front"):
                outcome = ops.search(store, seed)
        else:
            outcome = ops.search(store, seed)
        front_s = net_seconds(started)
        middle = mark()
        if traced:
            with tracer.span("bench.replay"):
                replays = [ops.search(store, seed)]
        else:
            replays = [ops.search(store, seed) for _ in range(REPLAYS)]
        replay_s = net_seconds(middle) / len(replays)
        if traced:
            instrumentation.remove()
        remove_tree(Path(store))
        if index == 0:
            warm_up = (outcome, replays)
            deadline = time.perf_counter() + seconds
        else:
            samples.append((front_s, replay_s, outcome, replays, traced,
                            iteration))
        index += 1
    rss = peak_rss_mb()

    reference = ops.exhaustive_front_rows(workers=min(2, nproc()))
    plain_reference = ops.plain(reference)
    for number, (_seconds, result) in enumerate(setups):
        report.check(f"cold start {number}",
                     _front_problems(result["front"], plain_reference))
    report.check("warm-up search",
                 _front_problems(warm_up[0].front.rows, reference))
    for replay in warm_up[1]:
        report.check("warm-up replay", _replay_problems(warm_up[0], replay))
    correct = []
    for number, (_f, _r, outcome, replays, _t, _i) in enumerate(samples):
        correct.append(report.check(
            f"search {number}",
            _front_problems(outcome.front.rows, reference)))
        for replay in replays:
            report.check(f"replay of search {number}",
                         _replay_problems(outcome, replay))

    outcome = samples[0][2]
    report.details.update(searches=len(samples),
                          evaluations=outcome.evaluations,
                          cost_units=outcome.cost_units,
                          front_points=len(reference))
    if trace:
        return _traced(report, samples, tracer, cold_file, work)

    fronts = [s[0] for s in samples]
    replays = [s[1] for s in samples]
    setup_times = [seconds for seconds, _result in setups]
    within = sum(1 for ok, s in zip(correct, samples) if ok and s[0] <= SLO_S)
    report.record({"setup_s": median(setup_times)}, len(setup_times))
    report.record({
        "points_per_s": sum(s[2].evaluations for s in samples) / sum(fronts),
        "front_s": median(fronts),
        "replay_s": median(replays),
        "cost_units": median([s[2].cost_units for s in samples]),
        "slo_share": within / len(samples),
    }, len(samples))
    report.record({"peak_rss_mb": rss}, 1)
    report.say(describe("setup_s (cold interpreter -> first searched front)",
                        setup_times, "s"))
    report.say(describe("front_s (empty store)", fronts, "s"))
    report.say(latency_line(fronts, "empty-store searches"))
    report.say(describe(f"replay_s (warm store, each sample the mean of "
                        f"{REPLAYS} replays in a row)", replays, "s"))
    report.say(f"slo_share: {within}/{len(samples)} searches correct within "
               f"{SLO_S:g} s")
    return report


def _traced(report: Report, samples, tracer: Tracer, cold_file: Path,
            work: Path) -> Report:
    tracer.save(str(work / "spans.npz"))
    traced = [s for s in samples if s[4]]
    values = from_spans(tracer.columns(), [s[5] for s in traced])
    with open(f"{cold_file}.json") as handle:
        values.update(cold_tables(json.load(handle),
                                  load_columns(f"{cold_file}.npz")))
    if traced:
        outcome, replay = traced[0][2], traced[0][3][0]
        values.update({
            "search.evaluations": outcome.evaluations,
            "search.fresh_evaluations": outcome.fresh_evaluations,
            "search.store_hits": replay.store_hits,
            "search.rounds": len(outcome.rounds),
        })
    values["trace.overhead_share"] = overhead(
        [s[0] + s[1] for s in samples if s[4]],
        [s[0] + s[1] for s in samples if not s[4]])
    report.record({name: entry["value"]
                   for name, entry in complete(values).items()}, len(traced))
    report.say(f"traced searches: {len(traced)} of {len(samples)}; "
               f"{len(tracer)} spans in {work / 'spans.npz'}")
    return report
