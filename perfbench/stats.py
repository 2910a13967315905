"""Order statistics with the sample count that supports them.

A timing is reported as its median plus the highest percentile that still
has at least :data:`BEYOND` samples beyond it: 99 at 1000 samples, 60 at
25.  A percentile the sample cannot support is not reported as if it could:
the tail metric falls back to the highest supported one (:func:`tail_rank`).
"""
from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of a sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not samples:
        raise ValueError("median of an empty sample")
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def supported_percentile(count: int, beyond: int = BEYOND) -> Optional[float]:
    """Highest percentile with ``beyond`` samples past it, to 0.1.

    ``None`` when the sample is too small to support any tail percentile
    above the median.
    """
    if count <= 0:
        return None
    q = math.floor(1000.0 * (count - beyond) / count) / 10.0
    return q if q > 50.0 else None


def tail_rank(count: int) -> float:
    """Rank of the tail reported as ``p99_ms`` for ``count`` samples.

    99 where the sample supports it, else the highest percentile it
    supports, and never below the median: a maximum of a few dozen samples
    measures one hiccup, not a tail.
    """
    q = supported_percentile(count)
    return 50.0 if q is None else min(99.0, q)


def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the highest supported percentile and the sample count."""
    q = supported_percentile(len(samples))
    return {"n": len(samples),
            "median": median(samples) if samples else None,
            "tail_q": q,
            "tail": percentile(samples, q) if q is not None else None}


def describe(name: str, samples: Sequence[float], unit: str,
             scale: float = 1.0) -> str:
    """One human-readable line: ``name: median, pQ, n``."""
    info = summary(samples)
    if info["median"] is None:
        return f"{name}: no samples"
    text = f"{name}: median {info['median'] * scale:.6g} {unit}"
    if info["tail_q"] is not None:
        text += f", p{info['tail_q']:g} {info['tail'] * scale:.6g} {unit}"
    else:
        text += ", no tail percentile supported"
    return text + f" (n={info['n']})"


def latency_line(samples: Sequence[float], what: str) -> str:
    """``p50_ms`` and ``p99_ms`` of ``samples`` (seconds), with their ranks.

    The tail is :func:`tail_rank`'s percentile.  Printed by name in every
    run; not end-to-end metrics of record (see ``perfbench/README.md``).
    """
    rank = tail_rank(len(samples))
    return (f"p50_ms = {1e3 * percentile(samples, 50):.6g} ms, p99_ms = "
            f"{1e3 * percentile(samples, rank):.6g} ms (p{rank:g} of "
            f"{len(samples)} {what}: the highest rank they support, at "
            f"most 99)")
