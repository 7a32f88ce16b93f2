"""Memory controller with the APC ``Allow_CKE_OFF`` interface.

Per the paper (Sec. 4.2.2): when ``Allow_CKE_OFF`` is asserted the
controller drops the channel into CKE-off power-down *as soon as all
outstanding transactions complete* (entry < 10 ns) and returns to
active when the wire is deasserted (exit < 24 ns, non-blocking for
the APMU flow). Self-refresh — microseconds to exit — is only ever
commanded by the firmware PC6 flow, never by the APMU.

The controller also owns the interface-side power (the MC + DDR IO
power lives in the package RAPL domain; the device power is in the
DRAM domain).
"""

from __future__ import annotations

from typing import Callable

from repro.dram.device import DramDevice, DramPowerMode
from repro.dram.timings import DramTimings
from repro.hw.signals import Signal
from repro.power.budgets import MemoryControllerPowerSpec
from repro.power.meter import PowerChannel
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Event, Simulator


class MemoryControllerError(RuntimeError):
    """Raised on invalid memory-controller commands."""


#: The DRAM device power mode behind each settled controller state.
_DEVICE_MODE = {
    "active": DramPowerMode.ACTIVE,
    "cke_off": DramPowerMode.CKE_OFF,
    "self_refresh": DramPowerMode.SELF_REFRESH,
}


class MemoryController:
    """One DDR4 channel controller."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        spec: MemoryControllerPowerSpec,
        timings: DramTimings,
        channel: PowerChannel,
        device: DramDevice,
    ):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.timings = timings
        self.channel = channel
        self.device = device
        self.state = "active"  # active | cke_off | self_refresh | transitioning
        self.residency = ResidencyCounter(sim, "active")
        self.allow_cke_off = Signal(f"{name}.Allow_CKE_OFF", value=False)
        self.allow_cke_off.watch(self._on_allow_change)
        self._outstanding = 0
        self._transition_event: Event | None = None
        self._state_listeners: list[Callable[[str], None]] = []
        self.cke_off_entries = 0
        self.accesses = 0
        channel.set_power(spec.active_w)

    def on_state_change(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(new_state)`` to fire when a transition lands."""
        self._state_listeners.append(fn)

    # -- traffic -----------------------------------------------------------
    def access(self, n_bytes: int, on_done: Callable[[], None] | None = None) -> int:
        """Issue a memory access; returns its latency in ns.

        Accesses are only legal while the channel is active — package
        flows guarantee that by waking the controller before cores
        can touch memory. Latency is the base access time plus
        serialization at channel bandwidth.
        """
        if n_bytes <= 0:
            raise MemoryControllerError(f"access size must be positive: {n_bytes}")
        if self.state != "active":
            raise MemoryControllerError(
                f"{self.name}: access while {self.state} "
                "(package flow must reactivate the channel first)"
            )
        self.accesses += 1
        self._outstanding += 1
        self.device.access(n_bytes)
        latency = self.timings.access_ns + max(
            0, round(n_bytes / self.timings.bandwidth_bytes_per_ns)
        )
        self.sim.schedule(latency, self._access_done, on_done)
        return latency

    @property
    def outstanding(self) -> int:
        """Transactions currently in flight."""
        return self._outstanding

    def _access_done(self, on_done: Callable[[], None] | None) -> None:
        self._outstanding -= 1
        if on_done is not None:
            on_done()
        self._maybe_enter_cke_off()

    # -- CKE-off (the APC path) ------------------------------------------------
    def _on_allow_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._maybe_enter_cke_off()
        else:
            if self.state == "cke_off":
                self._begin_transition("active", self.timings.cke_off_exit_ns)

    def _maybe_enter_cke_off(self) -> None:
        if (
            self.allow_cke_off.value
            and self.state == "active"
            and self._outstanding == 0
        ):
            self.cke_off_entries += 1
            self._begin_transition("cke_off", self.timings.cke_off_entry_ns)

    # -- self-refresh (the PC6 path) -------------------------------------------
    def enter_self_refresh(self, on_done: Callable[[], None] | None = None) -> int:
        """Firmware-commanded self-refresh entry; returns the latency."""
        if self._outstanding:
            raise MemoryControllerError(
                f"{self.name}: self-refresh with transactions in flight"
            )
        if self.state == "self_refresh":
            if on_done is not None:
                on_done()
            return 0
        if self.state == "cke_off":
            # Hardware first reactivates CKE, then issues SRE.
            total = self.timings.cke_off_exit_ns + self.timings.self_refresh_entry_ns
        else:
            total = self.timings.self_refresh_entry_ns
        self._begin_transition("self_refresh", total, on_done)
        return total

    def exit_self_refresh(self, on_done: Callable[[], None] | None = None) -> int:
        """Firmware-commanded self-refresh exit (microseconds)."""
        if self.state != "self_refresh":
            raise MemoryControllerError(
                f"{self.name}: exit_self_refresh while {self.state}"
            )
        total = self.timings.self_refresh_exit_ns
        self._begin_transition("active", total, on_done)
        return total

    # -- internals ---------------------------------------------------------
    def _begin_transition(
        self,
        target: str,
        duration_ns: int,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        if self._transition_event is not None and self._transition_event.pending:
            raise MemoryControllerError(
                f"{self.name}: overlapping power-mode transitions"
            )
        self.state = "transitioning"
        self.residency.enter("transitioning")
        self._transition_event = self.sim.schedule(
            duration_ns, self._transition_done, target, on_done
        )

    def _transition_done(self, target: str, on_done: Callable[[], None] | None) -> None:
        self._transition_event = None
        self.state = target
        self.residency.enter(target)
        self.channel.set_power(self.spec.watts[target])
        self.device.set_mode(_DEVICE_MODE[target])
        if on_done is not None:
            on_done()
        for fn in list(self._state_listeners):
            fn(target)
        if target == "active":
            self._maybe_enter_cke_off()
        elif target == "cke_off" and not self.allow_cke_off.value:
            # Allow_CKE_OFF was deasserted while the entry transition
            # was in flight: bounce straight back to active.
            self._begin_transition("active", self.timings.cke_off_exit_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MemoryController({self.name!r}, {self.state})"
