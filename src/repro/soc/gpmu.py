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
latencies. Each step of the flow is one method that schedules the
next; a stage that commands several components at once moves on when
the last of them reports done. The flow is **not preemptive**: a wake
event arriving mid-entry is honoured only when the entry flow
completes — this firmware property is what produces the Cdeep latency
spikes the paper shows at high load (Fig. 5).

Resulting latencies with default timings: entry ~29 µs, exit ~40 µs —
consistent with Table 1's "> 50 µs" worst-case transition to open the
path to memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hw.signals import AndTree, Signal
from repro.sim.engine import Simulator
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
        #: Completions the current stage still waits for, plus one
        #: while it is still issuing commands (see :meth:`_open_stage`);
        #: :meth:`_close_stage` records the step that follows it.
        self._stage_pending = 0
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
            # Start one zero-delay event later: without that event every
            # later seq shifts, and the pinned event streams with it.
            self.sim.schedule(0, self._exit_begin)

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
            self._begin_entry()

    def _begin_entry(self) -> None:
        self._flow_active = True
        # One zero-delay event later, as in _trigger_exit.
        self.sim.schedule(0, self._entry_drain)

    def _entry_drain(self) -> None:
        self.residency.enter(_PC2)
        self.sim.schedule(self.timings.pc2_drain_ns, self._entry_drained)

    def _entry_drained(self) -> None:
        # A wake (or a core popping back to CC0) this early aborts
        # cheaply from PC2 — nothing has been powered down yet.
        if self._wake_pending or not self.all_cc6.value:
            self._finish_flow_to_pc0()
            return
        self.sim.schedule(self.timings.firmware_step_ns, self._entry_park_io)

    def _entry_park_io(self) -> None:
        # Stage: IOs to L1 and DRAM to self-refresh, concurrently.
        self._open_stage()
        for link in self.links:
            if link.state != "L1":
                self._stage_pending += 1
                link.enter_l1(self._stage_done)
        for mc in self.memory_controllers:
            self._stage_pending += 1
            mc.enter_self_refresh(self._stage_done)
        self._close_stage(self._entry_io_parked)

    def _entry_io_parked(self) -> None:
        self.sim.schedule(self.timings.firmware_step_ns, self._entry_gate_uncore)

    def _entry_gate_uncore(self) -> None:
        # Stage: clock-gate the uncore, stop the PLLs, drop CLM to
        # retention (the FIVR ramp completes before PC6 is declared).
        self.clm.clock_tree.clk_gate.set(True)
        for pll in self.uncore_plls:
            pll.power_off()
        self._open_stage()
        self._stage_pending += 1
        self.clm.ret.set(True)
        self._on_pwr_ok(self.clm.pwr_ok, self._stage_done)
        self._close_stage(self._entry_retained)

    def _entry_retained(self) -> None:
        self.sim.schedule(self.timings.firmware_step_ns, self._entry_declare)

    def _entry_declare(self) -> None:
        self.pc6_entries += 1
        self.residency.enter(_PC6)
        self._flow_active = False
        if self._wake_pending:
            self._trigger_exit()

    # -- exit ----------------------------------------------------------------
    def _exit_begin(self) -> None:
        self.residency.enter(_TRANSITION)
        self.sim.schedule(self.timings.firmware_step_ns, self._exit_power_up)

    def _exit_power_up(self) -> None:
        # Stage: power the PLLs and raise the CLM voltage, concurrently.
        self._open_stage()
        for pll in self.uncore_plls:
            self._stage_pending += 1
            pll.power_on(self._stage_done)
        self._stage_pending += 1
        self.clm.ret.set(False)
        self._on_pwr_ok(self.clm.pwr_ok, self._stage_done)
        self._close_stage(self._exit_ungate)

    def _exit_ungate(self) -> None:
        clock_tree = self.clm.clock_tree
        clock_tree.clk_gate.set(False)
        self.sim.schedule(clock_tree.gate_latency_ns, self._exit_ungated)

    def _exit_ungated(self) -> None:
        self.sim.schedule(self.timings.firmware_step_ns, self._exit_wake_io)

    def _exit_wake_io(self) -> None:
        # Stage: IOs out of L1 and DRAM out of self-refresh.
        self._open_stage()
        for link in self.links:
            if link.state == "L1":
                self._stage_pending += 1
                link.exit_l1(self._stage_done)
        for mc in self.memory_controllers:
            if mc.state == "self_refresh":
                self._stage_pending += 1
                mc.exit_self_refresh(self._stage_done)
        self._close_stage(self._exit_io_awake)

    def _exit_io_awake(self) -> None:
        self.sim.schedule(self.timings.firmware_step_ns, self._exit_drain)

    def _exit_drain(self) -> None:
        self.residency.enter(_PC2)
        self.sim.schedule(self.timings.pc2_drain_ns, self._exit_done)

    def _exit_done(self) -> None:
        self.pc6_exits += 1
        self._finish_flow_to_pc0()

    # -- stages ----------------------------------------------------------------
    def _open_stage(self) -> None:
        """Start a stage, held open by one count while it issues.

        A command can complete at once (an MC already in self-refresh);
        without the hold, that completion could release the stage
        before its later commands were even issued.
        """
        self._stage_pending = 1

    def _stage_done(self) -> None:
        """One of the stage's commands completed."""
        self._stage_pending -= 1
        if self._stage_pending == 0:
            # One zero-delay event later, as in _trigger_exit.
            self.sim.schedule(0, self._stage_then)

    def _close_stage(self, then: Callable[[], None]) -> None:
        """Stop issuing; run ``then`` once every command has completed."""
        self._stage_then = then
        self._stage_pending -= 1
        if self._stage_pending == 0:
            then()

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
            self._begin_entry()

