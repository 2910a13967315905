"""What one workload run hands back to ``run.py``."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: ``(name, unit, better)`` of every end-to-end metric, in report order.
#: The failure share is not among them: it reads 0 on a healthy run, so it
#: is reported through the result line's ``attempted`` / ``failed`` counts.
#: ``p50_ms`` and ``p99_ms`` are printed by name in every run but are not
#: among them either: on a shared host the latency of a 3 ms request moves
#: with the host's load more than any bound could allow.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("front_s", "s", "lower"),
    ("replay_s", "s", "lower"),
    ("cost_units", "count", "lower"),
    ("slo_share", "share", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)


@dataclass
class Report:
    """Metrics, correctness accounting and human-readable lines of a run."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Samples behind each metric (timings, iterations or requests).
    samples: Dict[str, int] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Extra readings written to the run's JSON output (not to the
    #: result line).
    details: Dict[str, object] = field(default_factory=dict)

    def check(self, what: str, problems: List[str]) -> bool:
        """Count one checked operation; ``problems`` empty means correct."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")
            return False
        return True

    def say(self, line: str) -> None:
        self.lines.append(line)

    def record(self, values: Dict[str, float], samples: int) -> None:
        """Set metrics that each rest on ``samples`` samples."""
        self.metrics.update(values)
        self.samples.update({name: samples for name in values})
