"""Memcached under a Mutilate-style ETC load (paper Sec. 6).

The paper replays Facebook's ETC mix [8] with the Mutilate load
generator at offered rates of 4K–1000K QPS, focusing on 4K–100K
(~5–20 % utilization). Three modelling choices reproduce that setup:

* **arrivals** — Gamma-renewal with shape < 1: open-loop like
  Mutilate but with the burstiness the paper attributes to
  user-facing traffic;
* **occupancy** — :class:`LoadCalibratedService` with constants
  fitted to the paper's Fig. 6(a)/(b) residencies: 65 µs effective
  occupancy per request at 4K QPS falling to ~19 µs at 100K (kernel
  wakeup amortization);
* **mix** — ETC is GET-dominated (~30:1) with small keys and mostly
  sub-kilobyte values [8]; sizes only matter here for NIC/DRAM
  energy, which the mix models with a log-normal value distribution.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.workloads.arrivals import ArrivalProcess, GammaArrivals
from repro.workloads.base import (
    InjectTarget,
    OpenLoopArrivals,
    Request,
    Workload,
    workload_rng,
)
from repro.workloads.service import LoadCalibratedService


class MemcachedWorkload(Workload):
    """Open-loop Memcached/ETC generator at a fixed offered rate."""

    name = "memcached"

    #: Occupancy calibration (see module docstring): floor 15 µs,
    #: span 56 µs, decay 38K QPS.
    OCCUPANCY = LoadCalibratedService(floor_us=15.0, span_us=56.1, decay_qps=37_800.0)
    #: Burstiness of the offered stream (shape < 1 = bursty).
    ARRIVAL_SHAPE = 0.7
    #: ETC mix constants [8].
    GET_FRACTION = 0.97
    KEY_BYTES = 31
    VALUE_MEDIAN_BYTES = 300
    #: The value-size lognormal's ``mean`` parameter, taken once.
    VALUE_LOG_MEDIAN = np.log(VALUE_MEDIAN_BYTES)
    VALUE_SIGMA = 1.0
    VALUE_CAP_BYTES = 100_000

    def __init__(
        self,
        qps: float,
        arrival_shape: float | None = None,
        arrivals: ArrivalProcess | None = None,
    ):
        if qps <= 0:
            raise ValueError(f"offered QPS must be positive, got {qps}")
        if arrivals is not None and arrival_shape is not None:
            raise ValueError("pass arrival_shape or arrivals, not both")
        self.qps = float(qps)
        # An explicit arrival process (e.g. MMPP for diurnal scenarios)
        # replaces the default Gamma stream; the ETC mix and occupancy
        # calibration stay identical either way.
        self.arrivals = arrivals if arrivals is not None else GammaArrivals(
            self.qps,
            self.ARRIVAL_SHAPE if arrival_shape is None else arrival_shape,
        )
        #: Mean occupancy at this fixed offered rate (one ``math.exp``
        #: per workload, not per request).
        self._occupancy_mean_ns = self.OCCUPANCY.mean_ns(self.qps)

    @property
    def offered_qps(self) -> float:
        return self.qps

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Model-predicted processor utilization at this rate."""
        return self.OCCUPANCY.utilization(self.qps, n_cores)

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        OpenLoopArrivals(
            sim,
            target.inject,
            self._make_request,
            self.arrivals.next_gap_ns,
            workload_rng(sim, self.name),
        )

    def _make_request(self, rng: np.random.Generator) -> Request:
        # OCCUPANCY.sample_ns(rng, qps) with the mean taken once.
        service_ns = max(1, int(rng.exponential(self._occupancy_mean_ns)))
        value_bytes = min(
            self.VALUE_CAP_BYTES,
            int(rng.lognormal(self.VALUE_LOG_MEDIAN, self.VALUE_SIGMA)),
        )
        if rng.random() < self.GET_FRACTION:
            kind, wire, response = "get", 64 + self.KEY_BYTES, 64 + value_bytes
        else:
            kind, wire, response = "set", 64 + self.KEY_BYTES + value_bytes, 64
        return Request(
            kind=kind,
            service_ns=service_ns,
            wire_bytes=wire,
            response_bytes=response,
            dram_bytes=16_384 + 4 * value_bytes,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "offered_qps": self.qps,
            "expected_utilization": self.expected_utilization(),
            "mean_occupancy_us": self.OCCUPANCY.mean_ns(self.qps) / 1_000,
        }
