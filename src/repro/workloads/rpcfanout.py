"""RPC fan-out microservice: cross-core wakeup coupling.

None of the paper's three services couples cores to each other: every
memcached GET, OLTP transaction or Kafka poll batch occupies exactly
one core, so all-idle periods end one core-wakeup at a time. Real
microservice tiers behave differently — a single inbound RPC fans out
into parallel sub-requests that land on *several* cores at once, so
one arrival can wake most of the package simultaneously and the
all-idle signal collapses in a single step rather than eroding.

That coupling is the stress case for a package-level idle state:
entry opportunities are long (between fan-outs nothing runs) but
exits are violent (many cores demand wakeup at once), which is where
PC1A's parallel, hardware-only exit path matters most.

The model: root RPCs arrive open-loop; each arrival injects
``fanout`` sub-requests back-to-back at the same timestamp (the
dispatcher spreads them over cores), then a short aggregation request
after the expected sub-request completion — the "merge" phase of a
scatter-gather tier.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.units import US
from repro.workloads.arrivals import ArrivalProcess, PoissonArrivals
from repro.workloads.base import (
    InjectTarget,
    OpenLoopArrivals,
    Request,
    Workload,
    workload_rng,
)
from repro.workloads.service import ExponentialService


class RpcFanoutWorkload(Workload):
    """Scatter-gather RPC generator (one root -> N parallel subs)."""

    name = "rpc-fanout"

    #: Sub-requests issued per inbound RPC.
    DEFAULT_FANOUT = 4
    #: Mean occupancy of one sub-request.
    SUB_MEAN_NS = 25 * US
    #: Mean occupancy of the aggregation (merge) step.
    MERGE_MEAN_NS = 10 * US

    def __init__(
        self,
        qps: float,
        fanout: int = DEFAULT_FANOUT,
        arrivals: ArrivalProcess | None = None,
    ):
        if qps <= 0:
            raise ValueError(f"offered QPS must be positive, got {qps}")
        if fanout < 1:
            raise ValueError(f"fanout must be at least 1, got {fanout}")
        self.qps = float(qps)
        self.fanout = int(fanout)
        self.arrivals = arrivals if arrivals is not None else PoissonArrivals(self.qps)
        self._sub = ExponentialService(self.SUB_MEAN_NS)
        self._merge = ExponentialService(self.MERGE_MEAN_NS)

    @property
    def offered_qps(self) -> float:
        """Total request rate (subs + merge) as seen by the server."""
        return self.qps * (self.fanout + 1)

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Model-predicted processor utilization at this rate."""
        work_ns = self.fanout * self.SUB_MEAN_NS + self.MERGE_MEAN_NS
        return self.qps * work_ns * 1e-9 / n_cores

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        rng = workload_rng(sim, self.name)
        fanout = _ScatterGather(self, sim, target, rng)
        OpenLoopArrivals(
            sim, fanout.scatter, fanout.subs, self.arrivals.next_gap_ns, rng
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "root_qps": self.qps,
            "fanout": self.fanout,
            "offered_qps": self.offered_qps,
            "expected_utilization": self.expected_utilization(),
        }


class _ScatterGather:
    """One started fan-out stream: each root RPC's subs, then its merge."""

    __slots__ = ("_workload", "_sim", "_inject", "_rng", "_rpc_id")

    def __init__(
        self,
        workload: RpcFanoutWorkload,
        sim: Simulator,
        target: InjectTarget,
        rng: np.random.Generator,
    ):
        self._workload = workload
        self._sim = sim
        self._inject = target.inject
        self._rng = rng
        self._rpc_id = 0

    def subs(self, rng: np.random.Generator) -> list[Request]:
        workload = self._workload
        return [
            Request(
                kind=f"rpc{self._rpc_id}-sub",
                service_ns=workload._sub.sample_ns(rng, workload.qps),
                wire_bytes=256,
                response_bytes=1_024,
                dram_bytes=8_192,
            )
            for _ in range(workload.fanout)
        ]

    def scatter(self, subs: list[Request]) -> None:
        # Scatter: all sub-requests hit the NIC at one timestamp, so
        # the dispatcher wakes several cores simultaneously.
        for sub in subs:
            self._inject(sub)
        # Gather: the merge request lands once the slowest sub is
        # expected to have finished (open-loop approximation of the
        # response-joining thread's wakeup).
        lag_ns = max(sub.service_ns for sub in subs) + 2 * US
        # Arm the merge one zero-delay event later: without that event
        # every later seq shifts, and the pinned event streams with it.
        self._sim.schedule(0, self._arm_merge, lag_ns, self._rpc_id)
        self._rpc_id += 1

    def _arm_merge(self, lag_ns: int, rpc_id: int) -> None:
        self._sim.schedule(lag_ns, self._merge, rpc_id)

    def _merge(self, rpc_id: int) -> None:
        workload = self._workload
        self._inject(
            Request(
                kind=f"rpc{rpc_id}-merge",
                service_ns=workload._merge.sample_ns(self._rng, workload.qps),
                wire_bytes=128,
                response_bytes=4_096,
                dram_bytes=16_384,
            )
        )
