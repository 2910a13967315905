"""Per-layer metrics: every name the traced run reports, and how.

Counts and times are means per iteration (one sweep, one search with its
replay, or one server request), so they do not depend on how many
iterations fit in a run.  Layers that do no work on a workload read 0.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from spans import ROOT_LAYER, LayerTotals, group_totals, layer_of
from stats import median

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("workloads.point_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("core.study.self_s", "s", "lower"),
    ("apps.images.calls", "count", "lower"),
    ("apps.images.busy_s", "s", "lower"),
    ("apps.images.unique_share", "share", "higher"),
    ("apps.jpeg.self_s", "s", "lower"),
    ("apps.fft.self_s", "s", "lower"),
    ("fxp.calls", "count", "lower"),
    ("fxp.busy_s", "s", "lower"),
    ("core.backends.calls", "count", "lower"),
    ("core.backends.busy_s", "s", "lower"),
    ("core.backends.self_s", "s", "lower"),
    ("core.backends.elements", "count", "lower"),
    ("core.backends.ns_per_element", "ns", "lower"),
    ("core.backends.table_builds", "count", "lower"),
    ("core.backends.arena_attached", "count", "lower"),
    ("core.backends.table_hit_share", "share", "higher"),
    ("core.backends.build_s", "s", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("hardware.characterize_calls", "count", "lower"),
    ("hardware.busy_s", "s", "lower"),
    ("hardware.hit_share", "share", "higher"),
    ("core.store.loads", "count", "lower"),
    ("core.store.load_s", "s", "lower"),
    ("core.store.saves", "count", "lower"),
    ("core.store.save_s", "s", "lower"),
    ("core.store.hit_share", "share", "higher"),
    ("core.store.bytes_written", "bytes", "lower"),
    ("search.evaluations", "count", "lower"),
    ("search.fresh_evaluations", "count", "lower"),
    ("search.store_hits", "count", "higher"),
    ("search.rounds", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("server.warm_ms", "ms", "lower"),
    ("server.cold_ms", "ms", "lower"),
    ("server.transport_ms", "ms", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.coalesced_share", "share", "higher"),
    ("server.largest_batch", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.late_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.coverage_share", "share", "higher"),
)

UNITS = {name: unit for name, unit, _better in PER_LAYER}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_spans(columns: Mapping[str, list], iterations: Iterable[int],
               root: str = ROOT_LAYER) -> Dict[str, float]:
    """Layer metrics of the given iterations of a span log.

    ``root`` is the group whose spans delimit an iteration (the
    benchmark's own iteration span, or the server's ``dispatch``);
    ``trace.coverage_share`` is the share of their time spent inside some
    layer below them.
    """
    chosen = sorted(set(iterations))
    if not chosen:
        return {}
    layers = group_totals(columns, layer_of)
    entries = group_totals(columns, str)
    count = len(chosen)

    def pick(table, group: str) -> List[LayerTotals]:
        return [table[i][group] for i in chosen
                if i in table and group in table[i]]

    def total(table, group: str, attribute: str) -> float:
        return sum(getattr(entry, attribute) for entry in pick(table, group))

    def mean(group: str, attribute: str, table=None) -> float:
        return total(layers if table is None else table, group,
                     attribute) / count

    point_durations = [d for entry in pick(layers, "workloads")
                       for d in entry.durations]
    image_shares = [_ratio(len(set(entry.values)), entry.calls)
                    for entry in pick(layers, "apps.images") if entry.calls]
    roots = pick(layers, root)
    root_busy = sum(entry.busy_s for entry in roots)
    root_self = sum(entry.self_s for entry in roots)
    loads = total(entries, "core.store.load", "calls")
    reports = total(layers, "core.datapath", "calls")
    return {
        "workloads.point_s": median(point_durations)
        if point_durations else 0.0,
        "workloads.self_s": mean("workloads", "self_s"),
        "core.study.self_s": mean("core.study", "self_s"),
        "apps.images.calls": mean("apps.images", "calls"),
        "apps.images.busy_s": mean("apps.images", "busy_s"),
        "apps.images.unique_share": sum(image_shares) / len(image_shares)
        if image_shares else 0.0,
        "apps.jpeg.self_s": mean("apps.jpeg", "self_s"),
        "apps.fft.self_s": mean("apps.fft", "self_s"),
        "fxp.calls": mean("fxp", "calls"),
        "fxp.busy_s": mean("fxp", "busy_s"),
        "core.backends.calls": mean("core.backends", "calls"),
        "core.backends.busy_s": mean("core.backends", "busy_s"),
        "core.backends.self_s": mean("core.backends", "self_s"),
        "core.backends.elements": mean("core.backends", "value"),
        "core.backends.ns_per_element": 1e9 * _ratio(
            total(layers, "core.backends", "busy_s"),
            total(layers, "core.backends", "value")),
        "metrics.calls": mean("metrics", "calls"),
        "metrics.busy_s": mean("metrics", "busy_s"),
        "hardware.characterize_calls": mean("hardware", "calls"),
        "hardware.busy_s": mean("hardware", "busy_s"),
        "hardware.hit_share": 1.0 - _ratio(total(layers, "hardware", "calls"),
                                           reports) if reports else 0.0,
        "core.store.loads": loads / count,
        "core.store.load_s": mean("core.store.load", "busy_s", entries),
        "core.store.saves": mean("core.store.save", "calls", entries),
        "core.store.save_s": mean("core.store.save", "busy_s", entries),
        "core.store.hit_share": _ratio(
            total(entries, "core.store.load", "value"), loads),
        "core.store.bytes_written": mean("core.store.save", "value", entries),
        "search.self_s": mean("search", "self_s"),
        "server.self_s": mean("server", "self_s"),
        "trace.coverage_share": _ratio(root_busy - root_self, root_busy),
    }


def cold_tables(cache_stats: Mapping[str, object],
                columns: Optional[Mapping[str, list]]) -> Dict[str, float]:
    """Table provisioning of one cold start, from ``cache_stats()``.

    ``core.backends.build_s`` is the time spent inside the arena's
    ``get_or_build`` (building or attaching tables) during that start.
    """
    arena = cache_stats["arena"]
    hits, misses = cache_stats["hits"], cache_stats["misses"]
    build_s = 0.0
    if columns is not None:
        build_s = sum(end - start for name, start, end in zip(
            columns["name"], columns["start"], columns["end"])
            if name == "core.backends.build")
    return {
        "core.backends.table_builds": float(arena["builds"]
                                            + arena["local_fallbacks"]),
        "core.backends.arena_attached": float(arena["attaches"]),
        "core.backends.table_hit_share": _ratio(hits, hits + misses),
        "core.backends.build_s": build_s,
    }


def complete(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; absent ones read 0."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _better in PER_LAYER}


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Median traced wall time over median untraced wall time."""
    return _ratio(median(traced), median(untraced)) if traced and untraced \
        else 0.0
