"""The firmware-based global power management unit (GPMU).

Implements the legacy package C-state flow of paper Fig. 2, used by
the ``Cdeep`` baseline:

entry (once **all cores are in CC6**)::

    PC0 -> PC2 (drain) -> [IOs to L1, DRAM to self-refresh]
        -> clock-gate uncore, PLLs off -> CLM voltage to retention -> PC6

exit (wake event)::

    PC6 -> PLLs re-lock (µs), CLM voltage up, clock-ungate
        -> [IOs exit L1, DRAM exits self-refresh] (µs) -> PC2 -> PC0

Each firmware stage costs a mailbox round-trip
(``firmware_step_ns``); hardware steps take their component
latencies. The flow is **not preemptive**: a wake event arriving
mid-entry is honoured only when the entry flow completes — this
firmware property is what produces the Cdeep latency spikes the paper
shows at high load (Fig. 5).

Resulting latencies with default timings: entry ~29 µs, exit ~40 µs —
consistent with Table 1's "> 50 µs" worst-case transition to open the
path to memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.signals import AndTree, Signal
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process, WaitEvent
from repro.soc.clm import ClmDomain
from repro.soc.package import PackageController, PackageCState
from repro.units import US

#: Package residency labels as plain strings: an enum's ``.value`` is a
#: descriptor call on every flow step and wake check.
_PC0 = PackageCState.PC0.value
_PC2 = PackageCState.PC2.value
_PC6 = PackageCState.PC6.value
_TRANSITION = PackageCState.TRANSITION.value


@dataclass(frozen=True)
class Pc6FlowTimings:
    """Firmware flow timing knobs."""

    pc2_drain_ns: int = 1 * US
    #: One firmware step: evaluate conditions, exchange mailbox
    #: messages with a domain controller, update state.
    firmware_step_ns: int = 8 * US

    def __post_init__(self) -> None:
        if self.pc2_drain_ns < 0 or self.firmware_step_ns < 0:
            raise ValueError("flow timings must be non-negative")


class Gpmu(PackageController):
    """Legacy firmware package controller (PC0/PC2/PC6)."""

    def __init__(
        self,
        sim: Simulator,
        cores: list,
        links: list,
        memory_controllers: list,
        clm: ClmDomain,
        uncore_plls: list,
        timings: Pc6FlowTimings | None = None,
    ):
        super().__init__(sim, "gpmu")
        self.cores = cores
        self.links = links
        self.memory_controllers = memory_controllers
        self.clm = clm
        self.uncore_plls = uncore_plls
        self.timings = timings or Pc6FlowTimings()
        self.all_cc6 = AndTree("gpmu.AllInCC6", [c.in_cc6 for c in cores])
        self.all_cc6.output.watch(self._on_all_cc6_change)
        #: Explicit wake input (timer expiration, thermal event, ...).
        self.wakeup = Signal("gpmu.WakeUp", value=False)
        self.wakeup.watch(self._on_wakeup_signal)
        self._flow_active = False
        self._wake_pending = False
        self.pc6_entries = 0
        self.pc6_exits = 0
        for link in links:
            link.on_wake(self._on_link_wake)

    # -- PackageController interface ------------------------------------------
    @property
    def memory_path_open(self) -> bool:
        return self.package_state == _PC0

    def _trigger_exit(self) -> None:
        self._wake_pending = True
        if not self._flow_active and self.package_state == _PC6:
            self._flow_active = True
            Process(self.sim, self._exit_flow(), name="gpmu-exit")

    # -- wake sources ----------------------------------------------------
    def _on_link_wake(self, link_name: str) -> None:
        if self.package_state != _PC0:
            self._trigger_exit()

    def _on_wakeup_signal(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._trigger_exit()
            signal.set(False)  # edge-triggered pulse

    # -- entry -------------------------------------------------------------
    def _on_all_cc6_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new and not self._flow_active and self.memory_path_open:
            self._flow_active = True
            Process(self.sim, self._entry_flow(), name="gpmu-entry")

    def _entry_flow(self):
        timings = self.timings
        self.residency.enter(_PC2)
        yield Delay(timings.pc2_drain_ns)
        # A wake (or a core popping back to CC0) this early aborts
        # cheaply from PC2 — nothing has been powered down yet.
        if self._wake_pending or not self.all_cc6.value:
            self._finish_flow_to_pc0()
            return
        yield Delay(timings.firmware_step_ns)
        # Stage: IOs to L1 and DRAM to self-refresh, concurrently.
        barrier = _Barrier()
        for link in self.links:
            if link.state != "L1":
                barrier.add()
                link.enter_l1(barrier.done)
        for mc in self.memory_controllers:
            barrier.add()
            mc.enter_self_refresh(barrier.done)
        yield from barrier.wait()
        yield Delay(timings.firmware_step_ns)
        # Stage: clock-gate the uncore, stop the PLLs, drop CLM to
        # retention (the FIVR ramp completes before PC6 is declared).
        self.clm.clock_tree.clk_gate.set(True)
        for pll in self.uncore_plls:
            pll.power_off()
        barrier = _Barrier()
        barrier.add()
        self.clm.ret.set(True)
        self._on_pwr_ok(self.clm.pwr_ok, barrier.done)
        yield from barrier.wait()
        yield Delay(timings.firmware_step_ns)
        self.pc6_entries += 1
        self.residency.enter(_PC6)
        self._flow_active = False
        if self._wake_pending:
            self._trigger_exit()

    # -- exit ----------------------------------------------------------------
    def _exit_flow(self):
        timings = self.timings
        self.residency.enter(_TRANSITION)
        yield Delay(timings.firmware_step_ns)
        # Stage: power the PLLs and raise the CLM voltage, concurrently.
        barrier = _Barrier()
        for pll in self.uncore_plls:
            barrier.add()
            pll.power_on(barrier.done)
        barrier.add()
        self.clm.ret.set(False)
        self._on_pwr_ok(self.clm.pwr_ok, barrier.done)
        yield from barrier.wait()
        self.clm.clock_tree.clk_gate.set(False)
        yield Delay(self.clm.clock_tree.gate_latency_ns)
        yield Delay(timings.firmware_step_ns)
        # Stage: IOs out of L1 and DRAM out of self-refresh.
        barrier = _Barrier()
        for link in self.links:
            if link.state == "L1":
                barrier.add()
                link.exit_l1(barrier.done)
        for mc in self.memory_controllers:
            if mc.state == "self_refresh":
                barrier.add()
                mc.exit_self_refresh(barrier.done)
        yield from barrier.wait()
        yield Delay(timings.firmware_step_ns)
        self.residency.enter(_PC2)
        yield Delay(timings.pc2_drain_ns)
        self.pc6_exits += 1
        self._finish_flow_to_pc0()

    def _finish_flow_to_pc0(self) -> None:
        self.residency.enter(_PC0)
        self._flow_active = False
        self._wake_pending = False
        self._release_wake_waiters()
        # A spurious wake (timer/thermal, no core interrupt) leaves all
        # cores in CC6: the level condition still holds even though the
        # AND-tree edge will not re-fire, so re-evaluate and descend
        # again (the ACC-equivalent loop of the firmware flow).
        if self.all_cc6.value and not self._flow_active:
            self._flow_active = True
            Process(self.sim, self._entry_flow(), name="gpmu-entry")


class _Barrier:
    """Counts component completions and wakes the flow when all land."""

    def __init__(self) -> None:
        self._outstanding = 0
        self._event = WaitEvent()

    def add(self) -> None:
        self._outstanding += 1

    def done(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._event.trigger()

    def wait(self):
        if self._outstanding > 0:
            yield self._event
