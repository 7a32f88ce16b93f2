"""MySQL under sysbench OLTP (paper Sec. 7.4, Fig. 8).

The paper evaluates three request rates — low/mid/high at roughly
8 %, 16 % and 42 % processor load — and finds all-idle residency
between 37 % (low) and 20 % (high). Two properties of sysbench OLTP
shape that curve:

* at low/mid rate the closed-loop clients pace transactions
  *regularly* (sub-Poisson), which spreads work out and produces
  less all-idle time than a Poisson stream at equal utilization —
  modelled with Gamma-renewal arrivals, shape > 1;
* at high rate contention and group commit produce **convoys**:
  bursts of transactions followed by common quiet gaps, which is why
  a 42 %-utilized server still spends ~20 % of its time fully idle —
  modelled with :class:`ConvoyArrivals`.

Transaction service times are log-normal (multi-query transactions
with a heavy-ish tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.units import MS, US
from repro.workloads.arrivals import ArrivalProcess, ConvoyArrivals, GammaArrivals
from repro.workloads.base import (
    InjectTarget,
    OpenLoopArrivals,
    Request,
    Workload,
    workload_rng,
)
from repro.workloads.service import LognormalService


@dataclass(frozen=True)
class MySqlParams:
    """One sysbench OLTP operating point."""

    label: str
    rate_per_s: float
    #: Gamma pacing shape for open-rate presets; None selects convoys.
    pacing_shape: float | None
    median_service_ns: int
    sigma: float = 0.5
    convoy_period_ns: int = 10 * MS
    convoy_spread_ns: int = 6 * MS

    def arrivals(self) -> ArrivalProcess:
        """Build this preset's arrival process."""
        if self.pacing_shape is not None:
            return GammaArrivals(self.rate_per_s, self.pacing_shape)
        batch_mean = self.rate_per_s * self.convoy_period_ns / 1e9
        return ConvoyArrivals(self.convoy_period_ns, batch_mean, self.convoy_spread_ns)

    def service(self) -> LognormalService:
        """Build this preset's service model."""
        return LognormalService(self.median_service_ns, self.sigma)

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Predicted processor utilization."""
        return self.rate_per_s * self.service().mean_ns(0) * 1e-9 / n_cores


MYSQL_PRESETS: dict[str, MySqlParams] = {
    # ~8 % utilization; regular pacing -> ~36 % all-idle (paper: 37 %).
    "low": MySqlParams(
        label="low",
        rate_per_s=1_450.0,
        pacing_shape=3.0,
        median_service_ns=int(500 * US),
        sigma=0.4,
    ),
    # ~15 % utilization; contention starts clumping arrivals.
    "mid": MySqlParams(
        label="mid",
        rate_per_s=2_900.0,
        pacing_shape=0.6,
        median_service_ns=int(500 * US),
        sigma=0.4,
    ),
    # ~42 % utilization; convoys -> ~20 % all-idle survives (paper: 20 %).
    "high": MySqlParams(
        label="high",
        rate_per_s=7_800.0,
        pacing_shape=None,
        median_service_ns=int(500 * US),
        sigma=0.4,
    ),
}


class MySqlWorkload(Workload):
    """sysbench-OLTP-style transaction generator."""

    name = "mysql"

    def __init__(self, preset: str | MySqlParams = "low"):
        if isinstance(preset, str):
            if preset not in MYSQL_PRESETS:
                raise KeyError(
                    f"unknown MySQL preset {preset!r}; have {sorted(MYSQL_PRESETS)}"
                )
            preset = MYSQL_PRESETS[preset]
        self.params = preset
        self.arrivals = preset.arrivals()
        self.service = preset.service()

    @property
    def offered_qps(self) -> float:
        return self.params.rate_per_s

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Predicted processor utilization for this preset."""
        return self.params.expected_utilization(n_cores)

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        OpenLoopArrivals(
            sim,
            target.inject,
            self._make_request,
            self.arrivals.next_gap_ns,
            workload_rng(sim, self.name),
        )

    def _make_request(self, rng: np.random.Generator) -> Request:
        return Request(
            kind="oltp-txn",
            service_ns=self.service.sample_ns(rng, self.params.rate_per_s),
            wire_bytes=512,
            response_bytes=2_048,
            dram_bytes=262_144,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "preset": self.params.label,
            "offered_qps": self.offered_qps,
            "expected_utilization": self.expected_utilization(),
        }
