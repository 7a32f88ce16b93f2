"""The Agile Power Management Unit (APMU) and the PC1A flow.

The APMU (paper Sec. 4.1, Fig. 4) is a hardware FSM clocked at
500 MHz that orchestrates PC1A:

entry::

    PC0 --all cores in CC1--> ACC1 (set AllowL0s)
    ACC1 --&InL0s--> [ (i) ClkGate CLM; Ret to CLM FIVRs (non-blocking)
                       (ii) set Allow_CKE_OFF ] --> PC1A (set InPC1A)

exit (on an IO wake, a GPMU WakeUp, or a core interrupt)::

    PC1A --> [ (i) unset Ret; on PwrOk clock-ungate CLM
               (ii) unset Allow_CKE_OFF (MCs exit CKE-off) ] --> ACC1
    ACC1 --core interrupt--> PC0 (unset AllowL0s)

All PLLs stay locked throughout. With the default timings the entry
flow takes ~18 ns and the exit ~158 ns (dominated by the 150 ns FIVR
ramp), within the paper's <= 200 ns budget. Entry is non-preemptive:
a wake arriving mid-entry is honoured when PC1A is declared, bounding
the worst-case transition at entry + exit (paper Sec. 5.5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clmr import ClmrController
from repro.core.iosm import IosmController
from repro.hw.signals import AndTree, Signal
from repro.sim.engine import Simulator
from repro.soc.package import PackageController, PackageCState

#: Package residency labels as plain strings: an enum's ``.value`` is a
#: descriptor call on every flow step.
_PC0 = PackageCState.PC0.value
_ACC1 = PackageCState.ACC1.value
_PC1A = PackageCState.PC1A.value
_TRANSITION = PackageCState.TRANSITION.value


@dataclass(frozen=True)
class ApmuTimings:
    """FSM issue-slot schedule, in APMU clock cycles (500 MHz => 2 ns).

    The offsets reproduce the paper's Sec. 5.5 decomposition: entry
    completes ~18 ns after ``&InL0s``; the exit critical path is the
    FIVR ramp (150 ns) plus one command slot and the clock-tree
    ungate settle.
    """

    cycle_ns: int = 2
    detect_cycles: int = 1  # sample an input edge
    command_cycles: int = 1  # drive one control wire
    cke_command_cycles: int = 2  # Allow_CKE_OFF handshake with both MCs
    declare_cycles: int = 3  # bookkeeping + InPC1A assert
    gate_settle_cycles: int = 2  # clock-tree gate/ungate settle

    # -- entry offsets (from the &InL0s edge) ------------------------------
    @property
    def entry_clk_gate_at_ns(self) -> int:
        """Issue ClkGate: one detect cycle after the edge."""
        return self.detect_cycles * self.cycle_ns

    @property
    def entry_ret_at_ns(self) -> int:
        """Issue Ret after the gate command and tree settle."""
        return self.entry_clk_gate_at_ns + (
            self.command_cycles + self.gate_settle_cycles
        ) * self.cycle_ns

    @property
    def entry_cke_at_ns(self) -> int:
        """Issue Allow_CKE_OFF right after the Ret command slot."""
        return self.entry_ret_at_ns + self.cke_command_cycles * self.cycle_ns

    @property
    def entry_done_at_ns(self) -> int:
        """Declare PC1A (paper: ~18 ns with a 500 MHz controller)."""
        return self.entry_cke_at_ns + self.declare_cycles * self.cycle_ns

    # -- exit offsets (from the wake event) ---------------------------------
    @property
    def exit_ret_release_at_ns(self) -> int:
        """Unset Ret: one detect + one command cycle after the wake."""
        return (self.detect_cycles + self.command_cycles) * self.cycle_ns

    @property
    def exit_cke_release_at_ns(self) -> int:
        """Unset Allow_CKE_OFF in the following issue slot."""
        return self.exit_ret_release_at_ns + self.command_cycles * self.cycle_ns


class Apmu(PackageController):
    """The hardware package controller implementing PC1A."""

    def __init__(
        self,
        sim: Simulator,
        cores: list,
        iosm: IosmController,
        clmr: ClmrController,
        timings: ApmuTimings | None = None,
    ):
        super().__init__(sim, "apmu")
        if not cores:
            raise ValueError("APMU needs at least one core")
        self.cores = cores
        self.iosm = iosm
        self.clmr = clmr
        self.timings = timings = timings or ApmuTimings()
        # The flow's step offsets, derived once: the ApmuTimings
        # properties chain into each other on every read.
        self._gate_clm_at_ns = timings.entry_clk_gate_at_ns
        self._drop_voltage_at_ns = timings.entry_ret_at_ns
        self._allow_cke_off_at_ns = timings.entry_cke_at_ns
        self._declare_at_ns = timings.entry_done_at_ns
        self._ret_release_at_ns = timings.exit_ret_release_at_ns
        self._cke_release_at_ns = timings.exit_cke_release_at_ns
        self._ungate_settle_ns = timings.gate_settle_cycles * timings.cycle_ns
        #: ``InCC1`` aggregation over all cores (paper Sec. 5.3).
        self.all_cc1 = AndTree("apmu.AllInCC1", [c.in_cc1 for c in cores])
        # The two AND-tree outputs, read on every ACC1 pass.
        self._all_in_cc1 = self.all_cc1.output
        self._all_in_l0s = iosm.all_in_l0s
        self._all_in_cc1.watch(self._on_all_cc1_change)
        self._all_in_l0s.watch(self._on_all_in_l0s_change)
        #: Status to the GPMU (paper Fig. 3).
        self.in_pc1a = Signal("apmu.InPC1A", value=False)
        #: Wake input from the GPMU (interrupt, timer, thermal event).
        self.gpmu_wakeup = Signal("apmu.WakeUp", value=False)
        self.gpmu_wakeup.watch(self._on_gpmu_wakeup)
        self._phase = "pc0"  # pc0 | acc1 | entering | pc1a | exiting
        self._wake_pending = False
        self._held = False
        self._exit_branches_pending = 0
        self._wake_started_ns: int | None = None
        self.pc1a_entries = 0
        self.pc1a_exits = 0
        self.exit_latency_sum_ns = 0
        self.exit_latency_max_ns = 0
        self._mcs_active_waiter = None
        for link in iosm.links:
            link.on_wake(self._on_link_wake)
        for mc in iosm.memory_controllers:
            mc.on_state_change(self._on_mc_state_change)

    # -- PackageController interface ------------------------------------------
    @property
    def memory_path_open(self) -> bool:
        return self._phase in ("pc0", "acc1")

    @property
    def phase(self) -> str:
        """Internal flow phase (diagnostics)."""
        return self._phase

    def _trigger_exit(self) -> None:
        if self._held:
            # Firmware owns the uncore (deep park): the "wake" is the
            # firmware's own forced transition, or a stray event to
            # honour once the hold is released.
            self._wake_pending = True
            return
        if self._phase == "pc1a":
            self._begin_exit()
        elif self._phase == "entering":
            self._wake_pending = True
        # "exiting": nothing to do; waiters release at ACC1.

    # -- firmware hold (deeper-than-PC1A descent) ---------------------------
    def firmware_hold(self) -> bool:
        """Freeze the APC while firmware drives the uncore deeper.

        A fleet controller parking a server below PC1A (DRAM to
        self-refresh, IO links to L1) must take this hold first: the
        forced transitions pass through states the APMU reads as IO
        wakes, and its exit flow would then stall forever waiting for
        memory controllers that firmware is holding in self-refresh —
        with the CLM ungated at full voltage the whole time. Legal
        only from PC1A; returns False (retry later) otherwise.
        """
        if self._held:
            return True
        if self._phase != "pc1a":
            return False
        self._held = True
        return True

    def firmware_release(self) -> None:
        """Release the hold; any wake seen while held fires now."""
        if not self._held:
            return
        self._held = False
        if self._wake_pending:
            self._wake_pending = False
            self._begin_exit()

    # -- wake sources ----------------------------------------------------
    def _on_link_wake(self, link_name: str) -> None:
        if self._phase in ("pc1a", "entering"):
            self._trigger_exit()

    def _on_gpmu_wakeup(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            if self._phase in ("pc1a", "entering"):
                self._trigger_exit()
            signal.set(False)  # edge-triggered pulse

    def _on_all_in_l0s_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._maybe_begin_entry()
        elif self._phase in ("pc1a", "entering"):
            # An IO link started exiting L0s: traffic arrived.
            self._trigger_exit()

    # -- PC0 <-> ACC1 -----------------------------------------------------------
    def _on_all_cc1_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            if self._phase == "pc0":
                self._phase = "acc1"
                self.residency.enter(_ACC1)
                self.iosm.allow_l0s.set(True)
                self._maybe_begin_entry()
        else:
            if self._phase == "acc1":
                self._to_pc0()
            elif self._phase in ("pc1a", "entering"):
                # Core interrupt while asleep (e.g. an inter-processor
                # interrupt raised by the GPMU path): wake the package.
                self._trigger_exit()

    def _to_pc0(self) -> None:
        self._phase = "pc0"
        self.residency.enter(_PC0)
        self.iosm.allow_l0s.set(False)

    # -- entry -------------------------------------------------------------
    def _maybe_begin_entry(self) -> None:
        if (
            self._phase == "acc1"
            and self._all_in_cc1.value
            and self._all_in_l0s.value
        ):
            self._begin_entry()

    def _begin_entry(self) -> None:
        self._phase = "entering"
        self._wake_pending = False
        self.residency.enter(_TRANSITION)
        schedule = self.sim.schedule
        schedule(self._gate_clm_at_ns, self._entry_gate_clm)
        schedule(self._drop_voltage_at_ns, self._entry_drop_voltage)
        schedule(self._allow_cke_off_at_ns, self._entry_allow_cke_off)
        schedule(self._declare_at_ns, self._entry_declare)

    def _entry_gate_clm(self) -> None:
        self.clmr.clk_gate.set(True)

    def _entry_drop_voltage(self) -> None:
        self.clmr.ret.set(True)

    def _entry_allow_cke_off(self) -> None:
        self.iosm.allow_cke_off.set(True)

    def _entry_declare(self) -> None:
        self._phase = "pc1a"
        self.pc1a_entries += 1
        self.residency.enter(_PC1A)
        self.in_pc1a.set(True)
        if self._wake_pending:
            self._wake_pending = False
            self._begin_exit()

    # -- exit ----------------------------------------------------------------
    def _begin_exit(self) -> None:
        if self._phase != "pc1a":
            return
        self._phase = "exiting"
        self._wake_started_ns = self.sim.now
        self.pc1a_exits += 1
        self.residency.enter(_TRANSITION)
        self.in_pc1a.set(False)
        self._exit_branches_pending = 2
        self.sim.schedule(self._ret_release_at_ns, self._exit_branch_clm)
        self.sim.schedule(self._cke_release_at_ns, self._exit_branch_mcs)

    def _exit_branch_clm(self) -> None:
        self.clmr.raise_voltage()
        self._on_pwr_ok(self.clmr.pwr_ok, self._exit_ungate)

    def _exit_ungate(self) -> None:
        self.clmr.ungate()
        self.sim.schedule(self._ungate_settle_ns, self._exit_branch_done)

    def _exit_branch_mcs(self) -> None:
        self.iosm.allow_cke_off.set(False)
        self._when_mcs_active(self._exit_branch_done)

    def _exit_branch_done(self) -> None:
        self._exit_branches_pending -= 1
        if self._exit_branches_pending == 0:
            self._exit_complete()

    def _exit_complete(self) -> None:
        assert self._wake_started_ns is not None
        latency = self.sim.now - self._wake_started_ns
        self.exit_latency_sum_ns += latency
        self.exit_latency_max_ns = max(self.exit_latency_max_ns, latency)
        self._wake_started_ns = None
        self._phase = "acc1"
        self.residency.enter(_ACC1)
        self._release_wake_waiters()
        # A core interrupt drops AllInCC1 before its wake request
        # reaches us, so this check routes interrupt wakes to PC0 and
        # spurious wakes back toward PC1A (Fig. 4's ACC1 loop).
        if not self._all_in_cc1.value:
            self._to_pc0()
        else:
            self._maybe_begin_entry()

    # -- helpers ----------------------------------------------------------
    def _when_mcs_active(self, fn) -> None:
        if self.iosm.all_mcs_active:
            fn()
            return
        self._mcs_active_waiter = fn

    def _on_mc_state_change(self, new_state: str) -> None:
        if self._mcs_active_waiter is None:
            return
        if self.iosm.all_mcs_active:
            waiter, self._mcs_active_waiter = self._mcs_active_waiter, None
            waiter()

    @property
    def mean_exit_latency_ns(self) -> float:
        """Average measured PC1A exit latency (wake to path open)."""
        if self.pc1a_exits == 0:
            return 0.0
        return self.exit_latency_sum_ns / self.pc1a_exits

    #: Long-distance wires added for the APMU itself (Sec. 5.3): the
    #: aggregated InCC1 return paths (neighbour-combined).
    long_distance_signal_count = 3
