"""Per-seed aggregation of sweep results.

A swept figure reports one number per grid cell; running the cell
under several seeds turns that number into a mean with a confidence
interval, which is what the analysis layer should plot (SleepScale-
style methodology: idle-state conclusions need error bars before they
generalise). Results are grouped by everything *except* the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.server.experiment import ExperimentResult

#: Normal-approximation multiplier for a two-sided 95 % interval.
Z_95 = 1.96

#: Scalar observables aggregated per cell, by result accessor.
AGGREGATED_METRICS: dict[str, object] = {
    "total_power_w": lambda r: r.total_power_w,
    "package_power_w": lambda r: r.package_power_w,
    "dram_power_w": lambda r: r.dram_power_w,
    "utilization": lambda r: r.utilization,
    "all_idle_fraction": lambda r: r.all_idle_fraction,
    "pc1a_residency": lambda r: r.pc1a_residency(),
    "pc6_residency": lambda r: r.pc6_residency(),
    "achieved_qps": lambda r: r.achieved_qps,
    "mean_latency_us": lambda r: r.latency.mean_us,
    "p99_latency_us": lambda r: r.latency.p99_us,
    "active_after_idle_mean": lambda r: r.active_after_idle_mean,
}


@dataclass(frozen=True)
class MetricStats:
    """Mean / spread of one observable across seeds."""

    mean: float
    std: float
    ci95: float
    n: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricStats":
        """Sample statistics (ddof=1; zero spread for a single seed)."""
        n = len(values)
        if n == 0:
            raise ValueError("cannot aggregate zero values")
        mean = sum(values) / n
        if n == 1:
            return cls(mean=mean, std=0.0, ci95=0.0, n=1)
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
        return cls(mean=mean, std=std, ci95=Z_95 * std / math.sqrt(n), n=n)

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ±{self.ci95:.2g}"


@dataclass(frozen=True)
class CellAggregate:
    """One grid cell's observables averaged over its seeds."""

    workload: str
    config: str
    offered_qps: float
    duration_ns: int
    seeds: tuple[int, ...]
    metrics: dict[str, MetricStats]
    #: Preset label for preset-driven workloads ("" otherwise); only
    #: known when the sweep's cells accompany the results.
    preset: str = ""
    #: Warmup of the aggregated cells; only known from the cells.
    warmup_ns: int | None = None

    @property
    def workload_label(self) -> str:
        """Workload name with the preset folded in where it applies."""
        return f"{self.workload}:{self.preset}" if self.preset else self.workload

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    def __getitem__(self, metric: str) -> MetricStats:
        return self.metrics[metric]


def aggregate_over_seeds(
    results: Iterable[ExperimentResult],
    cells: Sequence | None = None,
) -> list[CellAggregate]:
    """Group results by cell (everything but the seed) and average.

    ``cells`` are the aligned :class:`~repro.sweep.spec.ExperimentSpec`
    records; when given, the preset joins the group key so two presets
    of the same workload can never be folded together. Output order
    follows first appearance of each cell, so it matches the sweep's
    deterministic expansion order.
    """
    results = list(results)
    labels = (
        [(cell.preset_label, cell.warmup_ns, cell.key()) for cell in cells]
        if cells is not None
        else [("", None, None)] * len(results)
    )
    if len(labels) != len(results):
        raise ValueError(f"{len(results)} results but {len(labels)} cells")
    # Explicit cell lists may repeat a physical cell (the session
    # simulates it once and returns it per cell); counting the shared
    # result once per repeat would inflate n and shrink the CI.
    seen_keys: set = set()
    deduped = []
    for result, (preset, warmup_ns, key) in zip(results, labels):
        if key is not None:
            if key in seen_keys:
                continue
            seen_keys.add(key)
        deduped.append((result, (preset, warmup_ns)))
    groups: dict[tuple, list[ExperimentResult]] = {}
    for result, (preset, warmup_ns) in deduped:
        cell = (
            result.workload_name,
            preset,
            result.config_name,
            result.offered_qps,
            result.duration_ns,
            warmup_ns,
        )
        groups.setdefault(cell, []).append(result)
    aggregates = []
    for (workload, preset, config, qps, duration_ns,
         warmup_ns), members in groups.items():
        metrics = {
            name: MetricStats.from_values([accessor(r) for r in members])
            for name, accessor in AGGREGATED_METRICS.items()
        }
        aggregates.append(CellAggregate(
            workload=workload,
            config=config,
            offered_qps=qps,
            duration_ns=duration_ns,
            seeds=tuple(r.seed for r in members),
            metrics=metrics,
            preset=preset,
            warmup_ns=warmup_ns,
        ))
    return aggregates
