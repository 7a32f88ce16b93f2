"""Fleet-level energy proportionality analysis.

The paper's framing ("modern servers are not energy proportional",
Sec. 1/2, citing Lo et al. [62]) is a datacenter argument: servers
run at 5–20 % utilization, so the *low-load* part of the power curve
dominates fleet energy. This module lifts single-server measurements
to that level:

* :class:`PowerCurve` — a server's (or a measured fleet's)
  power-vs-utilization curve built from a sweep of results;
* an **energy-proportionality score** (Wong & Annavaram's EP metric,
  [93] in the paper): 1 minus the normalized area between the actual
  curve and the ideal proportional line — 1.0 is perfectly
  proportional, 0 is a flat (load-independent) power draw;
* :class:`FleetModel` — total fleet power for a given aggregate load
  under uniform load balancing, with or without APC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.server.experiment import ExperimentResult

if TYPE_CHECKING:
    from repro.fleet.result import FleetResult


@dataclass(frozen=True)
class PowerCurve:
    """A server's average power as a function of utilization."""

    utilizations: tuple[float, ...]
    powers_w: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.utilizations) != len(self.powers_w):
            raise ValueError("utilization and power series must align")
        if len(self.utilizations) < 2:
            raise ValueError("a curve needs at least two points")
        if list(self.utilizations) != sorted(self.utilizations):
            raise ValueError("utilizations must be ascending")

    @classmethod
    def from_results(
        cls, results: Sequence[ExperimentResult | FleetResult], label: str = ""
    ) -> "PowerCurve":
        """Build a curve from a sweep of server or fleet results (sorted
        by utilization)."""
        points = sorted(
            ((r.utilization, r.total_power_w) for r in results),
            key=lambda p: p[0],
        )
        return cls(
            utilizations=tuple(p[0] for p in points),
            powers_w=tuple(p[1] for p in points),
            label=label,
        )

    def power_at(self, utilization: float) -> float:
        """Linear interpolation (clamped at the measured range)."""
        return float(np.interp(utilization, self.utilizations, self.powers_w))

    @property
    def idle_power_w(self) -> float:
        """Power at the lowest measured utilization."""
        return self.powers_w[0]

    @property
    def peak_power_w(self) -> float:
        """Power at the highest measured utilization."""
        return self.powers_w[-1]

    def proportionality_score(self) -> float:
        """Wong & Annavaram's EP metric over the measured range.

        ``EP = 1 - (area between actual and proportional) / (area
        under proportional)``, where the proportional reference runs
        from 0 W at zero load to the measured peak at peak load.
        """
        lo, hi = self.utilizations[0], self.utilizations[-1]
        grid = np.linspace(lo, hi, 256)
        actual = np.array([self.power_at(u) for u in grid])
        peak_util = max(self.utilizations[-1], 1e-9)
        ideal = self.peak_power_w * grid / peak_util
        ideal_area = np.trapezoid(ideal, grid)
        if ideal_area <= 0:
            return 0.0
        gap_area = np.trapezoid(np.abs(actual - ideal), grid)
        return max(0.0, 1.0 - gap_area / ideal_area)


@dataclass(frozen=True)
class FleetModel:
    """N identical servers behind a uniform load balancer."""

    curve: PowerCurve
    n_servers: int

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("a fleet needs at least one server")

    def fleet_power_w(self, total_utilization: float) -> float:
        """Fleet power when the aggregate load spreads uniformly.

        ``total_utilization`` is in units of whole servers (e.g. 3.0
        means work equivalent to three fully busy servers).
        """
        if total_utilization < 0:
            raise ValueError("load cannot be negative")
        if total_utilization > self.n_servers:
            raise ValueError(
                f"load {total_utilization} exceeds fleet capacity "
                f"{self.n_servers}"
            )
        per_server = total_utilization / self.n_servers
        return self.n_servers * self.curve.power_at(per_server)

    def annual_energy_kwh(self, total_utilization: float) -> float:
        """Fleet energy over a year at a constant load level."""
        return self.fleet_power_w(total_utilization) * 24 * 365 / 1000.0


def fleet_savings_percent(
    baseline: FleetModel, apc: FleetModel, total_utilization: float
) -> float:
    """Fleet-level power savings of APC at an aggregate load."""
    base = baseline.fleet_power_w(total_utilization)
    if base <= 0:
        return 0.0
    return 100.0 * (1.0 - apc.fleet_power_w(total_utilization) / base)
