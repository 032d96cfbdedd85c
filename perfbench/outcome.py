"""What one benchmark run collects: checked outputs, metrics and a run record."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

# The per-layer figures that are exact counts, not times.
EXACT_COUNTS = (
    "sequence.profile.calls_per_cand",
    "cyclotomic.values_per_cand",
    "diffset.difference_multiset.calls_per_cand",
    "theory.calls_per_cand",
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # value, unit, samples
    layers: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)  # the first few failed checks

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit, samples)


def peak_rss_mb(pool_workers: int = 0, worker_extra_kib: int = 0) -> float:
    """Peak RSS of this process plus `pool_workers` times the most a forked
    pool worker added to what it shared with this process at the fork."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_workers * worker_extra_kib
    return kib / 1024


def rss_kib() -> int:
    """Current RSS of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() // 1024


def median_of_dicts(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def exact_counts_repeat(rows: list[dict[str, float]]) -> bool:
    """True when every traced pass gave the same exact counts."""
    return all(row[k] == rows[0][k] for row in rows for k in EXACT_COUNTS)
