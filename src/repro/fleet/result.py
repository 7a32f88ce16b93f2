"""Cluster-level observables: what one fleet measurement produced.

A :class:`FleetResult` is the fleet analogue of
:class:`~repro.server.experiment.ExperimentResult`: fleet power
totals, the pooled end-to-end latency distribution (exact percentiles
over the concatenated per-server samples; :meth:`LatencySummary.merge
<repro.server.stats.LatencySummary.merge>` pools summaries whose
samples are gone, e.g. across seeds), and a per-server breakdown
(:class:`ServerResult`) that shows *where* the balancer put the load
and which servers actually reached deep package idle. Results are
plain data: they round-trip through JSON for the sweep result store
and compare equal after the trip.

:meth:`PowerCurve.from_results
<repro.analysis.cluster.PowerCurve.from_results>` lifts a rate sweep of
fleet results into a measured-cluster power curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.server.experiment import ServerRecord
from repro.server.stats import LatencySummary, MachineStats
from repro.units import ns_to_s, ns_to_us


@dataclass(frozen=True, kw_only=True)
class ServerResult(ServerRecord):
    """One server's share of a fleet measurement window: its
    :class:`~repro.server.experiment.ServerRecord` plus what only a
    fleet knows about it."""

    index: int
    #: Requests the balancer routed here (window-scoped).
    routed: int
    #: Park/unpark edges this server took during the window.
    park_transitions: int = 0
    #: Fraction of the window spent parked (mask raised).
    parked_residency: float = 0.0
    #: Fraction of the window at each P-state (zero entries omitted;
    #: empty = spent entirely at the table's nominal state).
    pstate_residency: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FleetResult:
    """Everything measured over one fleet experiment window."""

    #: Store-record tag (see ``repro.sweep.store``).
    result_kind = "fleet"

    config_name: str
    n_servers: int
    routing: str
    dispatch_latency_ns: int
    workload_name: str
    seed: int
    duration_ns: int
    offered_qps: float
    requests_completed: int
    achieved_qps: float
    # Fleet power totals (averages over the window).
    package_power_w: float
    dram_power_w: float
    #: Mean processor utilization across servers.
    utilization: float
    #: Pooled end-to-end latency across all servers.
    latency: LatencySummary
    servers: tuple[ServerResult, ...]
    #: Controller policy that drove the window (``static`` = none).
    control: str = "static"
    #: Control ticks whose windowed pooled-p99 exceeded the SLO.
    slo_violations: int = 0
    #: Control ticks that had any latency samples to judge.
    slo_windows: int = 0
    # Shared-kernel health at collection time; diagnostics, not an
    # observable (excluded from equality like ExperimentResult.kernel).
    kernel: MachineStats | None = field(default=None, compare=False)

    @property
    def total_power_w(self) -> float:
        """Fleet SoC + DRAM average power."""
        return self.package_power_w + self.dram_power_w

    @property
    def energy_j(self) -> float:
        """Fleet energy over the measurement window."""
        return self.total_power_w * ns_to_s(self.duration_ns)

    @property
    def power_per_server_w(self) -> float:
        return self.total_power_w / self.n_servers

    def pc1a_residency(self) -> float:
        """Mean PC1A residency across the fleet's servers."""
        return sum(s.pc1a_residency() for s in self.servers) / self.n_servers

    def pc6_residency(self) -> float:
        """Mean PC6 residency across the fleet's servers."""
        return sum(s.pc6_residency() for s in self.servers) / self.n_servers

    def active_servers(self, min_utilization: float = 0.01) -> int:
        """Servers that did non-trivial work during the window."""
        return sum(1 for s in self.servers if s.utilization > min_utilization)

    def parked_residency(self) -> float:
        """Mean parked-time fraction across the fleet's servers."""
        return sum(s.parked_residency for s in self.servers) / self.n_servers

    def park_transitions(self) -> int:
        """Total park/unpark edges across the fleet during the window."""
        return sum(s.park_transitions for s in self.servers)

    # -- persistence -------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-data form (exact float round-trip via JSON); each
        server in its record's :meth:`~ServerRecord.as_dict` form."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["latency"] = self.latency.as_dict()
        payload["servers"] = [server.as_dict() for server in self.servers]
        if self.kernel is not None:
            payload["kernel"] = self.kernel.as_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "FleetResult":
        """Inverse of :meth:`as_dict`."""
        data = dict(data)
        data["latency"] = LatencySummary(**data["latency"])
        data["servers"] = tuple(
            ServerResult.from_dict(server) for server in data["servers"]
        )
        if data.get("kernel") is not None:
            data["kernel"] = MachineStats(**data["kernel"])
        return cls(**data)


#: Column order of :func:`flatten_fleet_result` (the ``repro fleet``
#: CSV layout).
FLEET_CSV_COLUMNS = (
    "offered_qps",
    "config",
    "n_servers",
    "routing",
    "dispatch_latency_us",
    "workload",
    "preset",
    "seed",
    "utilization",
    "active_servers",
    "pc1a_residency",
    "pc6_residency",
    "package_power_w",
    "dram_power_w",
    "total_power_w",
    "power_per_server_w",
    "min_server_power_w",
    "max_server_power_w",
    "mean_latency_us",
    "p99_latency_us",
    "requests_completed",
    "control",
    "parked_residency",
    "park_transitions",
    "slo_violations",
)


def flatten_fleet_result(result: FleetResult, spec=None) -> dict:
    """One flat CSV row of the fleet observables.

    Mirrors :func:`repro.sweep.store.flatten_result` (same rounding
    discipline, so serial and parallel runs render byte-identically);
    ``spec`` supplies the preset label for preset/trace scenarios.
    """
    server_powers = [s.total_power_w for s in result.servers]
    return {
        "offered_qps": result.offered_qps,
        "config": result.config_name,
        "n_servers": result.n_servers,
        "routing": result.routing,
        "dispatch_latency_us": round(ns_to_us(result.dispatch_latency_ns), 3),
        "workload": result.workload_name,
        "preset": spec.preset_label if spec is not None else "",
        "seed": result.seed,
        "utilization": round(result.utilization, 6),
        "active_servers": result.active_servers(),
        "pc1a_residency": round(result.pc1a_residency(), 6),
        "pc6_residency": round(result.pc6_residency(), 6),
        "package_power_w": round(result.package_power_w, 4),
        "dram_power_w": round(result.dram_power_w, 4),
        "total_power_w": round(result.total_power_w, 4),
        "power_per_server_w": round(result.power_per_server_w, 4),
        "min_server_power_w": round(min(server_powers), 4),
        "max_server_power_w": round(max(server_powers), 4),
        "mean_latency_us": round(result.latency.mean_us, 3),
        "p99_latency_us": round(result.latency.p99_us, 3),
        "requests_completed": result.requests_completed,
        "control": result.control,
        "parked_residency": round(result.parked_residency(), 6),
        "park_transitions": result.park_transitions(),
        "slo_violations": result.slo_violations,
    }
