"""Cross-socket UPI traffic: the multi-socket pressure on PC1A.

The paper evaluates a single socket, but its platform has two UPI
links and its design anticipates multi-socket parts: UPI supports
only L0p (half the lanes stay awake) precisely because cross-socket
snoops never fully stop. This generator models the remote socket's
background coherence traffic — snoops and remote-line transfers
arriving on the UPI links at a configurable rate — and lets the
benches measure how PC1A residency degrades as snoop rates rise.

Snoops wake the UPI link (L0p upshift) and, through ``InL0s``, the
APMU; unlike NIC requests they occupy no core, so they probe the
*package* wake path in isolation.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.base import InjectTarget, OpenLoopArrivals, Workload, workload_rng


class UpiSnoopTraffic(Workload):
    """Background remote-socket snoop stream over the UPI links.

    Parameters
    ----------
    snoops_per_s:
        Aggregate snoop arrival rate across both UPI links.
    snoop_bytes:
        Wire size per snoop (a header-only snoop is ~64 B; a remote
        cache-line transfer ~128 B).
    """

    name = "upi-snoops"

    def __init__(self, snoops_per_s: float, snoop_bytes: int = 64):
        if snoops_per_s <= 0:
            raise ValueError(f"snoop rate must be positive, got {snoops_per_s}")
        if snoop_bytes <= 0:
            raise ValueError(f"snoop size must be positive, got {snoop_bytes}")
        self.snoops_per_s = snoops_per_s
        self.snoop_bytes = snoop_bytes
        self.snoops_sent = 0

    @property
    def offered_qps(self) -> float:
        return self.snoops_per_s

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        """Attach to a machine; requires access to its UPI links."""
        links = [link for link in target.links if link.name.startswith("upi")]
        if not links:
            raise ValueError("target machine has no UPI links")
        OpenLoopArrivals(
            sim,
            self._snoop,
            lambda rng: links[int(rng.integers(len(links)))],
            PoissonArrivals(self.snoops_per_s).next_gap_ns,
            workload_rng(sim, self.name),
        )

    def _snoop(self, link) -> None:
        link.transfer(self.snoop_bytes)
        self.snoops_sent += 1

    def describe(self) -> dict:
        return {
            "name": self.name,
            "snoops_per_s": self.snoops_per_s,
            "snoop_bytes": self.snoop_bytes,
        }


class CompositeWorkload(Workload):
    """Run several workloads against the same machine.

    Used to overlay background traffic (UPI snoops) on a foreground
    service (Memcached) — e.g. to evaluate APC under multi-socket
    coherence pressure.
    """

    name = "composite"

    def __init__(self, workloads: list[Workload]):
        if not workloads:
            raise ValueError("composite needs at least one workload")
        self.workloads = list(workloads)

    @property
    def offered_qps(self) -> float:
        """Foreground request rate (the first workload's)."""
        return self.workloads[0].offered_qps

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        for workload in self.workloads:
            workload.start(sim, target)

    def describe(self) -> dict:
        return {"name": self.name, "parts": [w.describe() for w in self.workloads]}
