"""The program operations the workloads time, through the public API only.

Shared by the measuring process and by the fresh interpreters that time a
cold start (:mod:`coldstart`), so both run exactly the same calls.
"""
from __future__ import annotations

import json
from typing import Dict, List

#: ``sweep_jpeg``: the 16-bit JPEG multiplier comparison on the compiled
#: backend, no store, no energy model.
JPEG_WORKLOAD = "jpeg(size=192, quality=90, frames=10)"
JPEG_MULTIPLIERS = ("MULt(16,16)", "AAM(16)", "ABM(16)", "BOOTH(16)")

#: ``search_fft``: the enumerable, CI-gated search target.
SEARCH_TARGET = "fft_joint"


def sweep_rows(seed: int, backend: str = "compiled") -> List[Dict]:
    """Rows of one JPEG multiplier sweep at study seed ``seed``."""
    from repro import Study

    study = (Study().workload(JPEG_WORKLOAD).seed(int(seed))
             .backend(backend))
    study.multipliers(list(JPEG_MULTIPLIERS))
    return study.run().rows


def search(store: str, seed: int):
    """The seeded halving search on ``fft_joint`` against ``store``.

    The same configuration as ``repro search fft_joint --strategy halving
    --seed SEED --full --store STORE``: the seed drives the strategy, the
    study keeps the target's own stimulus seed, and each call builds a
    fresh energy model.
    """
    from repro.search import get_target

    target = get_target(SEARCH_TARGET)
    return (target.study(backend="direct", store=store)
            .search(target.strategy("halving", seed=int(seed))))


def exhaustive_front_rows(workers: int = 1) -> List[Dict]:
    """Front of the exhaustive ``fft_joint`` sweep (the search reference).

    ``workers`` only speeds the untimed reference up: rows do not depend
    on the worker count.
    """
    from repro.search import get_target, search_row

    target = get_target(SEARCH_TARGET)
    result = (target.study(backend="direct")
              .design_space(target.space()).rows(search_row)
              .run(workers=workers))
    return result.front(target.quality, target.cost).rows


def plain(value: object) -> object:
    """``value`` as it reads after a JSON round trip (wire or pipe)."""
    from repro.core.results import _jsonify

    return json.loads(json.dumps(value, default=_jsonify))
