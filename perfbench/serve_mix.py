"""``serve_mix``: an open-loop stream of evaluate requests to ``repro serve``.

A ``python -m repro serve`` subprocess with its own empty store answers
``evaluate`` requests for ``fft(size=64, frames=2)`` on the ``"lut"``
backend, sent at a fixed rate from :data:`SENDERS` connections.  Four in
five requests hit points already in the store (*warm*); one in five is a
*cold* point: same workload, configuration and seed as its neighbours,
differing only in the adder, drawn from ``fft_joint``'s 78 adders, so the
batcher can coalesce cold requests that overlap.  A fresh seed is taken
only when the adder pool is used up.  Server transport and dispatch, the
``BatchQueue`` window and store reads and writes carry this workload;
images, SSIM and compiled kernels do no work.

Latency runs from each request's scheduled send time (:mod:`loadgen`).
After the stream, rounds of points no request has asked for yet, sent one
at a time, time the cold path (``front_s``), and rounds of every stored
point again, back to back, the warm path (``replay_s``): unlike a single
3 ms request, a round is long enough to have the host's steal time taken
off it (:func:`common.net_seconds`).
"""
from __future__ import annotations

import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import ops
from common import (
    BENCH,
    BenchError,
    first_line,
    mark,
    net_seconds,
    nproc,
    peak_rss_mb,
    purge_arena,
    stop,
)
from layers import cold_tables, complete, from_spans, overhead
from loadgen import Sent, due_times, run_open_loop
from report import Report
from spans import load_columns
from stats import describe, latency_line, median, percentile, tail_rank

WORKLOAD = "fft"
CONFIG = {"size": 64, "frames": 2}
BACKEND = "lut"
#: Requests per second: about half the rate at which p50 doubles (between
#: 70 and 100 req/s on a 2-CPU machine).  Much above it, the median request
#: sits where warm requests start to queue behind cold computations, and
#: p50 jumps with small changes in machine speed.
RATE = 35.0
#: One request in every block of this many is cold.
COLD_EVERY = 5
#: Points evaluated before the stream starts; warm requests draw from them.
WARM_POOL = 16
#: Latency limit for ``slo_share``.
SLO_MS = 100.0
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Every this many cold rows is re-computed in-process as a check.
CHECK_EVERY = 10
#: Rounds of points no request has asked for yet, sent one at a time after
#: the stream (``front_s`` is the median round), and points per round.
FRONT_ROUNDS = 7
FRONT_POINTS = 12
#: Rounds of asking for every stored point again after that
#: (``replay_s`` is the median round).
REPLAY_ROUNDS = 7
#: Open-loop connections: at most two, never more than the machine's CPUs.
SENDERS = max(1, min(2, nproc()))
#: A gap between study seeds wider than ``frames`` (FFT frames use
#: ``seed + frame``), so no two seeds share a stimulus frame.
SEED_GAP = 100


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path, log: Path,
                 spans: Optional[Path] = None) -> None:
        args = ["serve", "--port", "0", "--store", str(store)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH / "serve_traced.py"),
                       str(spans), *args]
        self.started = mark()
        with open(log, "ab") as out:
            self.process = subprocess.Popen(
                command, cwd=str(BENCH.parent), stdout=out,
                stderr=subprocess.PIPE, text=True)
        try:
            _, line = first_line(self.process, "stderr", "serving on ")
            match = re.search(r"serving on (http://\S+)", line)
            if match is None:
                raise BenchError(f"unexpected server banner: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.url = match.group(1)

    def query(self, action: str, params: Optional[Dict] = None) -> Dict:
        from repro.server import query

        return query(self.url, action, params, timeout=60.0, retries=0)

    def status(self) -> Dict:
        envelope = self.query("status")
        if envelope.get("status") != "ok":
            raise BenchError(f"status request failed: {envelope}")
        return envelope["result"]

    def stop(self) -> None:
        stop(self.process)
        if self.process.stderr is not None:
            self.process.stderr.close()


def evaluate_params(adder: str, seed: int) -> Dict[str, object]:
    return {"workload": WORKLOAD, "config": dict(CONFIG), "adder": adder,
            "seed": seed, "backend": BACKEND}


class Mix:
    """The generated inputs of one run: warm pool, stream and front rounds."""

    def __init__(self, seed: int, count: int) -> None:
        from repro.search import get_target

        rng = random.Random(f"serve_mix:{seed}")
        self.adders = [point.adder.name
                       for point in get_target(ops.SEARCH_TARGET).space()]
        base = rng.randrange(1_000_000) * SEED_GAP
        self.warm_seed = base
        self.warm = rng.sample(self.adders, WARM_POOL)
        cold_positions = {block * COLD_EVERY + rng.randrange(COLD_EVERY)
                          for block in range(count // COLD_EVERY + 1)}
        self.requests: List[Tuple[str, str, int]] = []
        cold_seed, pool = base, []
        for index in range(count):
            if index in cold_positions:
                if not pool:
                    cold_seed += SEED_GAP
                    pool = rng.sample(self.adders, len(self.adders))
                self.requests.append(("cold", pool.pop(), cold_seed))
            else:
                self.requests.append(("warm", rng.choice(self.warm),
                                      self.warm_seed))
        # Seeds past ``cold_seed``, the last one the stream asks for, so
        # that no front point is stored before its round.
        front_seed = cold_seed + SEED_GAP * (count // len(self.adders) + 2)
        self.fronts = [[(adder, front_seed + SEED_GAP * number)
                        for adder in rng.sample(self.adders, FRONT_POINTS)]
                       for number in range(FRONT_ROUNDS)]


def start_server(work: Path, name: str, traced: bool = False) -> Server:
    """A fresh server on an empty store, the table arena purged first."""
    purge_arena()
    spans = work / f"spans-{name}.npz" if traced else None
    return Server(work / f"store-{name}", work / f"server-{name}.log", spans)


def _first_answer(server: Server, adder: str, seed: int
                  ) -> Tuple[float, Dict]:
    """Seconds from spawning ``server`` to its first evaluate answer."""
    envelope = server.query("evaluate", evaluate_params(adder, seed))
    return net_seconds(server.started), envelope


def _stream(server: Server, mix: Mix) -> Tuple[List[Sent], float, float]:
    """The open loop: every request of ``mix`` at :data:`RATE`."""
    due = due_times(RATE, len(mix.requests))

    def send(index: int) -> Dict:
        _kind, adder, seed = mix.requests[index]
        return server.query("evaluate", evaluate_params(adder, seed))

    window_start = time.perf_counter()
    sent = run_open_loop(due, send, senders=SENDERS)
    return sent, window_start, time.perf_counter()


def _ask(server: Server, adder: str, seed: int) -> Optional[Dict]:
    """One evaluate request; ``None`` when no envelope came back."""
    try:
        return server.query("evaluate", evaluate_params(adder, seed))
    except Exception:  # noqa: BLE001 - counted as a failed replay
        return None


def _rounds(server: Server, rounds: List[List[Tuple[str, int]]],
            senders: int
            ) -> Tuple[float, List[Tuple[str, int, Optional[Dict]]]]:
    """Each round's points asked for back to back, round after round.

    A round is sent as fast as the server answers, from ``senders``
    connections.  Returns the median over rounds of the seconds per
    request (the round's time less host steal time, over its requests)
    and ``(adder, seed, envelope)`` per request.
    """
    answers, seconds = [], []
    for points in rounds:
        started = mark()
        replies = run_open_loop([0.0] * len(points),
                                lambda index: _ask(server, *points[index]),
                                senders=senders)
        seconds.append(net_seconds(started) / len(points))
        answers += [(*points[reply.index], reply.response)
                    for reply in replies]
    return median(seconds), answers


def _answered(answers) -> List[Tuple[str, int]]:
    """The points among ``(adder, seed, envelope)`` answered ``ok``."""
    return [(adder, seed) for adder, seed, envelope in answers
            if isinstance(envelope, dict) and envelope.get("status") == "ok"]


def _bursts(server: Server, mix: Mix, sent: List[Sent]) -> Dict[str, object]:
    """After the stream: fresh cold points, then every stored point again.

    ``front`` asks for :data:`FRONT_ROUNDS` rounds of points no request
    has asked for yet, one at a time, so that none is batched with
    another; ``replay`` then asks for every point stored so far (warm
    pool, the stream's cold points and the front's), in
    :data:`REPLAY_ROUNDS` rounds from :data:`SENDERS` connections.
    """
    front_s, fronts = _rounds(server, mix.fronts, 1)
    stored = [(adder, mix.warm_seed) for adder in mix.warm]
    stored += _answered([(*mix.requests[result.index][1:], result.response)
                         for result in sent
                         if mix.requests[result.index][0] == "cold"])
    stored += _answered(fronts)
    replay_s, replays = _rounds(server, [stored] * REPLAY_ROUNDS, SENDERS)
    return {"front_s": front_s, "fronts": fronts,
            "replay_s": replay_s, "replays": replays}


def _server_life(work: Path, name: str, mix: Mix, report: Report,
                 traced: bool = False, bursts: bool = False
                 ) -> Dict[str, object]:
    """One server's life: cold start, warm pool, the stream, its checks.

    With ``bursts`` the stream is followed by :func:`_bursts`.  Rows to
    re-compute in-process are returned under ``checks``; they run after
    every server has stopped (see :func:`_check_in_process`).
    """
    server = start_server(work, name, traced)
    try:
        setup_s, first = _first_answer(server, mix.warm[0], mix.warm_seed)
        answers = {mix.warm[0]: first}
        for adder in mix.warm[1:]:
            answers[adder] = server.query(
                "evaluate", evaluate_params(adder, mix.warm_seed))
        before = server.status()
        sent, window_start, window_end = _stream(server, mix)
        after = server.status()
        burst = _bursts(server, mix, sent) if bursts else \
            {"front_s": None, "fronts": [], "replay_s": None, "replays": []}
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
        purge_arena()
    warm_rows = {}
    for adder, envelope in answers.items():
        problems = _envelope_problems(envelope, cached=False)
        if not problems:
            warm_rows[adder] = envelope["result"]["row"]
        report.check(f"{name} warm-pool point {adder}", problems)
    outcomes = []
    cold_rows: Dict[Tuple[str, int], Dict] = {}
    checks = [(adder, mix.warm_seed, row) for adder, row in warm_rows.items()]
    cold_seen = 0
    for result in sent:
        kind, adder, seed = mix.requests[result.index]
        envelope = result.response if isinstance(result.response, dict) \
            else None
        problems = [result.error] if result.error else \
            _envelope_problems(envelope, cached=kind == "warm")
        if not problems and kind == "warm" \
                and envelope["result"]["row"] != warm_rows.get(adder):
            problems.append("warm row differs from its cold row")
        if not problems and kind == "cold":
            if cold_seen % CHECK_EVERY == 0:
                checks.append((adder, seed, envelope["result"]["row"]))
            cold_seen += 1
        ok = report.check(f"{name} request {result.index} ({kind} {adder})",
                          problems)
        outcomes.append((kind, ok, result, envelope))
        if ok and kind == "cold":
            cold_rows[(adder, seed)] = envelope["result"]["row"]
    for number, (adder, seed, envelope) in enumerate(burst["fronts"]):
        problems = _envelope_problems(envelope, cached=False)
        if not problems:
            cold_rows[(adder, seed)] = envelope["result"]["row"]
            if number % CHECK_EVERY == 0:
                checks.append((adder, seed, envelope["result"]["row"]))
        report.check(f"{name} front point {adder} seed {seed}", problems)
    for adder, seed, envelope in burst["replays"]:
        problems = _envelope_problems(envelope, cached=True)
        expected = warm_rows.get(adder) if seed == mix.warm_seed \
            else cold_rows.get((adder, seed))
        if not problems and envelope["result"]["row"] != expected:
            problems.append("replayed row differs from its first answer")
        report.check(f"{name} replay of {adder} seed {seed}", problems)
    return {"setup_s": setup_s, "outcomes": outcomes, "checks": checks,
            "front_s": burst["front_s"], "fronts": len(burst["fronts"]),
            "replay_s": burst["replay_s"], "replays": len(burst["replays"]),
            "before": before,
            "after": after, "rss": rss, "window": (window_start, window_end),
            "spans": work / f"spans-{name}.npz" if traced else None}


def _envelope_problems(envelope: Optional[Dict], cached: bool) -> List[str]:
    if envelope is None:
        return ["no envelope"]
    if envelope.get("status") != "ok":
        error = envelope.get("error", {})
        return [f"error envelope {error.get('code')}: {error.get('message')}"]
    if bool(envelope["result"].get("cached")) != cached:
        return [f"cached is {envelope['result'].get('cached')}, expected "
                f"{cached}"]
    return []


def _check_in_process(report: Report, name: str, checks) -> None:
    """Server rows against in-process Studies of the same points."""
    for adder, seed, row in checks:
        expected = _in_process_row(adder, seed)
        report.check(f"{name} in-process check {adder} seed {seed}",
                     [] if row == expected else
                     ["server row differs from an in-process Study"])


def _in_process_row(adder: str, seed: int) -> Dict:
    from repro import DatapathEnergyModel, Study

    study = (Study().workload(WORKLOAD, **CONFIG).seed(seed)
             .backend(BACKEND).energy(DatapathEnergyModel()))
    study.adders([adder])
    return ops.plain(study.run().rows[0])


def run(seed: int, seconds: float, trace: bool, work: Path) -> Report:
    report = Report()
    if trace:
        mix = Mix(seed, int(RATE * seconds / 2.0))
        plain = _server_life(work, "untraced", mix, report)
        traced = _server_life(work, "traced", mix, report, traced=True)
        _check_in_process(report, "untraced", plain["checks"])
        _check_in_process(report, "traced", traced["checks"])
        return _traced(report, plain, traced)

    mix = Mix(seed, int(RATE * seconds))
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        server = start_server(work, f"setup{index}")
        try:
            setup_s, envelope = _first_answer(server, mix.warm[0],
                                              mix.warm_seed)
        finally:
            server.stop()
        report.check(f"setup server {index}",
                     _envelope_problems(envelope, cached=False))
        setups.append(setup_s)
    life = _server_life(work, "main", mix, report, bursts=True)
    setups.append(life["setup_s"])
    _check_in_process(report, "main", life["checks"])

    outcomes = life["outcomes"]
    latency = [o[2].latency for o in outcomes]
    cold = [o[2].latency for o in outcomes if o[0] == "cold"]
    warm = [o[2].latency for o in outcomes if o[0] == "warm"]
    answered = [o for o in outcomes if o[1]]
    span = max(o[2].done for o in outcomes) - min(o[2].due for o in outcomes)
    within = sum(1 for o in answered if o[2].latency * 1e3 <= SLO_MS)
    computed = sum(1 for o in answered
                   if not o[3]["result"].get("cached", True))
    report.record({"setup_s": median(setups)}, len(setups))
    report.record({"front_s": life["front_s"]}, life["fronts"])
    report.record({"replay_s": life["replay_s"]}, life["replays"])
    report.record({
        "points_per_s": len(answered) / span,
        "cost_units": computed / len(outcomes),
        "slo_share": within / len(outcomes),
    }, len(outcomes))
    report.record({"peak_rss_mb": life["rss"]}, 1)
    report.say(describe("setup_s (spawn -> first ok evaluate)", setups, "s"))
    report.say(latency_line(latency, "requests, from their due times"))
    report.say(describe("latency, all requests (from due)", latency, "ms",
                        1e3))
    report.say(describe("cold requests (from due)", cold, "ms", 1e3))
    report.say(f"front_s: {1e3 * life['front_s']:.6g} ms per request "
               f"(median of {FRONT_ROUNDS} rounds of {FRONT_POINTS} points "
               f"no request had asked for, one at a time)")
    report.say(describe("warm requests (from due)", warm, "ms", 1e3))
    report.say(f"replay_s: {1e3 * life['replay_s']:.6g} ms per request "
               f"(median of {REPLAY_ROUNDS} rounds; {life['replays']} "
               f"stored points asked for again back to back from "
               f"{SENDERS} connection(s))")
    report.say(f"slo_share: {within}/{len(outcomes)} requests answered ok "
               f"within {SLO_MS:g} ms at {RATE:g} req/s from {SENDERS} "
               f"connection(s)")
    report.details.update(rate=RATE, senders=SENDERS, sent=len(outcomes),
                          batching=life["after"]["batching"])
    return report


def _traced(report: Report, plain: Dict, traced: Dict) -> Report:
    outcomes = traced["outcomes"]
    ok = [o for o in outcomes if o[1]]
    seconds = {kind: [o[3]["result"]["seconds"] for o in ok if o[0] == kind]
               for kind in ("warm", "cold")}
    transport = [o[2].done - o[2].sent - o[3]["result"]["seconds"] for o in ok]
    late = [o[2].late for o in outcomes]
    before, after = traced["before"], traced["after"]
    batches = {key: after["batching"][key] - before["batching"][key]
               for key in ("requests", "coalesced")}
    store = {key: after["store"][key] - before["store"][key]
             for key in ("hits", "misses", "saves", "bytes")}
    errors = sum(after["errors"].values()) - sum(before["errors"].values())
    columns = load_columns(str(traced["spans"]))
    start, end = traced["window"]
    iterations = [columns["iteration"][i] for i, name in
                  enumerate(columns["name"])
                  if name == "server.dispatch" and columns["parent"][i] < 0
                  and start <= columns["start"][i] <= end]
    values = from_spans(columns, iterations, root="server")
    values.update(cold_tables(after["table_cache"], columns))
    sent = len(outcomes)
    loads = store["hits"] + store["misses"]
    values.update({
        "core.store.loads": loads / sent,
        "core.store.saves": store["saves"] / sent,
        "core.store.hit_share": store["hits"] / loads if loads else 0.0,
        "core.store.bytes_written": store["bytes"] / sent,
        "server.warm_ms": 1e3 * median(seconds["warm"]),
        "server.cold_ms": 1e3 * median(seconds["cold"]),
        "server.transport_ms": 1e3 * median(transport),
        "server.coalesced_share": batches["coalesced"] / batches["requests"]
        if batches["requests"] else 0.0,
        "server.largest_batch": after["batching"]["largest_batch"],
        "server.shed": after["shed"] - before["shed"],
        "server.errors": errors,
        "loadgen.sent": sent,
        "loadgen.late_ms": 1e3 * percentile(late, tail_rank(len(late))),
        "trace.overhead_share": overhead(
            [o[2].latency for o in outcomes],
            [o[2].latency for o in plain["outcomes"]]),
    })
    report.record({name: entry["value"]
                   for name, entry in complete(values).items()}, sent)
    report.say(f"traced server: {len(iterations)} requests in the window, "
               f"{len(columns['name'])} spans in {traced['spans']}")
    return report
