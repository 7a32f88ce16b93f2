"""Clock distribution network with fast gating.

CLMR gates the CLM clock tree instead of turning off its PLL (paper
Sec. 4.3): gating an optimized clock distribution takes 1–2 cycles
([22, 79] in the paper) versus microseconds for a PLL re-lock. The
tree exposes a ``ClkGate`` control and counts gate/ungate latency in
APMU clock cycles.
"""

from __future__ import annotations

from repro.hw.signals import Signal
from repro.sim.engine import Simulator


class ClockTree:
    """A gateable clock tree fed by a PLL.

    Parameters
    ----------
    gate_cycles:
        Latency of a gate or ungate operation in source-clock cycles
        (paper: 1–2 cycles; we use 2).
    cycle_ns:
        Source clock period in nanoseconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gate_cycles: int = 2,
        cycle_ns: int = 2,
    ):
        if gate_cycles < 1:
            raise ValueError(f"gate latency must be >= 1 cycle, got {gate_cycles}")
        if cycle_ns < 1:
            raise ValueError(f"cycle time must be >= 1 ns, got {cycle_ns}")
        self.sim = sim
        self.name = name
        self.gate_cycles = gate_cycles
        self.cycle_ns = cycle_ns
        #: Wall-clock latency of one gate/ungate operation.
        self.gate_latency_ns = gate_cycles * cycle_ns
        self.clk_gate = Signal(f"{name}.ClkGate", value=False)
        self._gated = False
        self.gate_count = 0
        self.clk_gate.watch(self._on_gate_change)

    @property
    def gated(self) -> bool:
        """True once the tree has actually stopped toggling."""
        return self._gated

    @property
    def running(self) -> bool:
        """True while the tree distributes a live clock."""
        return not self._gated

    def _on_gate_change(self, signal: Signal, old: bool, new: bool) -> None:
        # The physical tree settles one gate-latency after the control
        # signal flips; the APMU accounts for this in its flow timing.
        self.sim.schedule(self.gate_latency_ns, self._settle, new)

    def _settle(self, target: bool) -> None:
        if target != self.clk_gate.value:
            return  # control flipped again before we settled
        if target and not self._gated:
            self.gate_count += 1
        self._gated = target

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ClockTree({self.name!r}, {'gated' if self._gated else 'running'})"
