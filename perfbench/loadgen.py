"""Open-loop load generation with due-time accounting.

Requests are sent on a fixed schedule whatever the server is doing: each
request has a *due* time, and its latency runs from that due time, not from
the moment a free sender got round to it.  A stall therefore charges its
wait to every request queued behind it, and ``late`` records how far behind
schedule the generator itself ran.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass
class Sent:
    """Outcome of one scheduled request (times relative to the loop start)."""

    index: int
    due: float
    sent: float
    done: float
    #: Whatever ``send`` returned (``None`` when it raised).
    response: object = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Time from when the request was due to when its answer arrived."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How long after its due time the request actually left."""
        return max(0.0, self.sent - self.due)


def due_times(rate: float, count: int) -> List[float]:
    """Evenly spaced due times (seconds from the start) at ``rate``/s."""
    if rate <= 0:
        raise ValueError("the request rate must be positive")
    return [index / rate for index in range(count)]


def run_open_loop(due: Sequence[float], send: Callable[[int], object],
                  senders: int = 1,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> List[Sent]:
    """Send request ``i`` at ``due[i]`` from ``senders`` threads.

    A sender takes the next request in schedule order, waits until it is
    due (never sending early) and sends it; if every sender is busy when a
    request falls due, it leaves late.  ``send`` gets the request index and
    its return value is kept; an exception is recorded as the request's
    error, never raised.  Returns one :class:`Sent` per request, in
    schedule order.
    """
    if senders < 1:
        raise ValueError("the open loop needs at least one sender")
    results: List[Optional[Sent]] = [None] * len(due)
    lock = threading.Lock()
    cursor = [0]
    origin = clock()

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(due):
                    return
                cursor[0] += 1
            wait = due[index] - (clock() - origin)
            if wait > 0:
                sleep(wait)
            sent = clock() - origin
            response, error = None, None
            try:
                response = send(index)
            except Exception as failure:  # noqa: BLE001 - counted as failed
                error = f"{failure.__class__.__name__}: {failure}"
            results[index] = Sent(index, due[index], sent,
                                  clock() - origin, response, error)

    threads = [threading.Thread(target=sender, name=f"loadgen-{n}")
               for n in range(senders - 1)]
    for thread in threads:
        thread.start()
    sender()
    for thread in threads:
        thread.join()
    return [result for result in results if result is not None]
