"""Request-to-core dispatch policies.

The paper pins server processes to specific cores and lets NIC RSS
spread interrupts; ``random`` dispatch models that hashing. The other
policies exist for ablations: ``round_robin`` spreads perfectly;
``least_loaded`` models a work-stealing runtime; ``packed`` fills the
lowest-numbered awake core first — the request-packing idea of
CARB-like related work (Sec. 8), which *lengthens* all-idle periods.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.soc.cpu import Core

POLICIES = ("random", "round_robin", "least_loaded", "packed")


class Dispatcher:
    """Selects the core that executes each request.

    The policy is bound once: :attr:`pick` is the policy's own method,
    so a pick costs no string compare.
    """

    def __init__(self, sim: Simulator, cores: list[Core], policy: str = "random"):
        if policy not in POLICIES:
            raise ValueError(f"unknown dispatch policy {policy!r}; have {POLICIES}")
        if not cores:
            raise ValueError("dispatcher needs at least one core")
        self.sim = sim
        self.cores = cores
        self.policy = policy
        self._next = 0
        #: Choose the target core for a new request.
        self.pick: Callable[[], Core] = getattr(self, "_pick_" + policy)

    def _pick_random(self) -> Core:
        cores = self.cores
        return cores[self.sim.randbelow(len(cores))]

    def _pick_round_robin(self) -> Core:
        core = self.cores[self._next % len(self.cores)]
        self._next += 1
        return core

    def _pick_least_loaded(self) -> Core:
        return min(
            self.cores,
            key=lambda c: (len(c.queue) + (1 if c.mode == "active" else 0)),
        )

    def _pick_packed(self) -> Core:
        # Fill the lowest-numbered cores first, spilling to the next
        # core once a queue-depth watermark is reached (capacity-aware
        # packing, as CARB-style schedulers do).
        for core in self.cores:
            occupancy = len(core.queue) + (1 if core.mode == "active" else 0)
            if occupancy < self.PACK_WATERMARK:
                return core
        return min(self.cores, key=lambda c: len(c.queue))

    #: Queue depth at which "packed" dispatch spills to the next core.
    PACK_WATERMARK = 3
