"""Nginx-style short-request web tier (beyond the paper's services).

The paper's three services leave a gap in the idleness spectrum:
none of them issues the *very* short requests of a static web tier.
"How long can you sleep?" (Antoniou et al.) shows such front-end
services produce many short idle periods — exactly the regime where
PC1A's ~200 ns transitions matter and PC6's ~100 us ones cannot be
amortized. This workload fills that gap:

* **arrivals** — slightly bursty open-loop HTTP traffic
  (:class:`GammaArrivals`, shape < 1, like a CDN edge);
* **occupancy** — a bimodal mix: cache-hit static responses served
  from the page cache in a few microseconds, and a small dynamic
  (proxied / templated) fraction with a log-normal tail;
* **sizes** — small requests, mostly small responses with occasional
  large assets.

Because per-request work is tiny, even moderate rates keep core
utilization low while chopping the all-idle signal into short
fragments — the stress case for package-state entry decisions.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.units import US
from repro.workloads.arrivals import ArrivalProcess, GammaArrivals
from repro.workloads.base import (
    InjectTarget,
    OpenLoopArrivals,
    Request,
    Workload,
    workload_rng,
)
from repro.workloads.service import ExponentialService, LognormalService


class NginxWorkload(Workload):
    """Open-loop HTTP request generator with a static/dynamic mix."""

    name = "nginx"

    #: Burstiness of the offered stream (shape < 1 = bursty).
    ARRIVAL_SHAPE = 0.8
    #: Fraction of requests served straight from the page cache.
    STATIC_FRACTION = 0.85
    #: Mean occupancy of a static (cache-hit) response.
    STATIC_MEAN_NS = 6 * US
    #: Median / sigma of the dynamic (proxied, templated) tail.
    DYNAMIC_MEDIAN_NS = 60 * US
    DYNAMIC_SIGMA = 0.7
    #: Response-size model: log-normal body sizes, capped at one asset.
    BODY_MEDIAN_BYTES = 4_096
    #: The body-size lognormal's ``mean`` parameter, taken once.
    BODY_LOG_MEDIAN = np.log(BODY_MEDIAN_BYTES)
    BODY_SIGMA = 1.2
    BODY_CAP_BYTES = 1_048_576

    def __init__(self, qps: float, arrivals: ArrivalProcess | None = None):
        if qps <= 0:
            raise ValueError(f"offered QPS must be positive, got {qps}")
        self.qps = float(qps)
        self.arrivals = arrivals if arrivals is not None else GammaArrivals(
            self.qps, self.ARRIVAL_SHAPE
        )
        self._static = ExponentialService(self.STATIC_MEAN_NS)
        self._dynamic = LognormalService(self.DYNAMIC_MEDIAN_NS, self.DYNAMIC_SIGMA)

    @property
    def offered_qps(self) -> float:
        return self.qps

    def mean_service_ns(self) -> float:
        """Mix-weighted mean per-request occupancy."""
        return (
            self.STATIC_FRACTION * self._static.mean_ns(self.qps)
            + (1.0 - self.STATIC_FRACTION) * self._dynamic.mean_ns(self.qps)
        )

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Model-predicted processor utilization at this rate."""
        return self.qps * self.mean_service_ns() * 1e-9 / n_cores

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        OpenLoopArrivals(
            sim,
            target.inject,
            self._make_request,
            self.arrivals.next_gap_ns,
            workload_rng(sim, self.name),
        )

    def _make_request(self, rng: np.random.Generator) -> Request:
        body_bytes = min(
            self.BODY_CAP_BYTES,
            int(rng.lognormal(self.BODY_LOG_MEDIAN, self.BODY_SIGMA)),
        )
        if rng.random() < self.STATIC_FRACTION:
            kind = "http-static"
            service_ns = self._static.sample_ns(rng, self.qps)
            dram_bytes = 4_096 + body_bytes  # page-cache copy
        else:
            kind = "http-dynamic"
            service_ns = self._dynamic.sample_ns(rng, self.qps)
            dram_bytes = 32_768 + 4 * body_bytes  # templating churn
        return Request(
            kind=kind,
            service_ns=service_ns,
            wire_bytes=512,
            response_bytes=256 + body_bytes,
            dram_bytes=dram_bytes,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "offered_qps": self.qps,
            "static_fraction": self.STATIC_FRACTION,
            "mean_service_us": self.mean_service_ns() / 1_000,
            "expected_utilization": self.expected_utilization(),
        }
