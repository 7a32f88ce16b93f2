"""Memory controller with the APC ``Allow_CKE_OFF`` interface.

Per the paper (Sec. 4.2.2): when ``Allow_CKE_OFF`` is asserted the
controller drops the channel into CKE-off power-down *as soon as all
outstanding transactions complete* (entry < 10 ns) and returns to
active when the wire is deasserted (exit < 24 ns, non-blocking for
the APMU flow). Self-refresh — microseconds to exit — is only ever
commanded by the firmware PC6 flow, never by the APMU.

An access nothing waits on (a request's DRAM charge) schedules no
completion event: its completion time is a deadline, and only an
``Allow_CKE_OFF`` assertion that finds such accesses in flight
schedules one drain check, at the last of them.

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
        #: Interface-state residency; its ``enter`` also sets the draw.
        self.residency = ResidencyCounter(sim, "active", channel)
        self.allow_cke_off = Signal(f"{name}.Allow_CKE_OFF", value=False)
        self.allow_cke_off.watch(self._on_allow_change)
        #: Accesses in flight with a completion callback (each has its
        #: completion event).
        self._outstanding = 0
        #: Completion times of the fire-and-forget accesses that may
        #: still be in flight, the last of them, and the time of the
        #: last drain check scheduled (see _maybe_enter_cke_off).
        self._deadlines: tuple[int, ...] = ()
        self._last_done_ns = 0
        self._drain_at_ns = -1
        self._transition_event: Event | None = None
        self._state_listeners: list[Callable[[str], None]] = []
        self.cke_off_entries = 0
        self.accesses = 0
        channel.set_power(spec.active_w)

    def connect_allow_cke_off(self, wire: Signal) -> None:
        """Take Allow_CKE_OFF from ``wire``, one wire many MCs watch.

        The IOSM drives every memory controller from its one
        Allow_CKE_OFF wire this way, with no per-controller relay. Both
        wires must be low.
        """
        if wire.value or self.allow_cke_off.value:
            raise MemoryControllerError(
                f"{self.name}: connect Allow_CKE_OFF while it is low"
            )
        self.allow_cke_off.unwatch(self._on_allow_change)
        self.allow_cke_off = wire
        wire.watch(self._on_allow_change)

    def on_state_change(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(new_state)`` to fire when a transition lands."""
        self._state_listeners.append(fn)

    # -- traffic -----------------------------------------------------------
    def access(self, n_bytes: int, on_done: Callable[[], None] | None = None) -> int:
        """Issue a memory access; returns its latency in ns.

        Accesses are only legal while the channel is active — package
        flows guarantee that by waking the controller before cores
        can touch memory. Latency is the base access time plus
        serialization at channel bandwidth. Without ``on_done`` no
        completion event is scheduled (see the module docstring).
        """
        if n_bytes <= 0:
            raise MemoryControllerError(f"access size must be positive: {n_bytes}")
        if self.state != "active":
            raise MemoryControllerError(
                f"{self.name}: access while {self.state} "
                "(package flow must reactivate the channel first)"
            )
        self.accesses += 1
        self.device.access(n_bytes)
        latency = self.timings.access_ns + max(
            0, round(n_bytes / self.timings.bandwidth_bytes_per_ns)
        )
        sim = self.sim
        if on_done is not None:
            self._outstanding += 1
            sim.schedule(latency, self._access_done, on_done)
            return latency
        now = sim.now
        done_ns = now + latency
        if self._last_done_ns > now:
            # Overlaps earlier accesses: keep those still in flight.
            self._deadlines = tuple(
                t for t in self._deadlines if t > now
            ) + (done_ns,)
            if done_ns > self._last_done_ns:
                self._last_done_ns = done_ns
        else:
            self._deadlines = (done_ns,)
            self._last_done_ns = done_ns
        if done_ns > sim.horizon_ns:
            sim.horizon_ns = done_ns
        if self.allow_cke_off.value:
            self._maybe_enter_cke_off()
        return latency

    @property
    def outstanding(self) -> int:
        """Transactions currently in flight."""
        now = self.sim.now
        if self._last_done_ns <= now:
            return self._outstanding
        return self._outstanding + sum(1 for t in self._deadlines if t > now)

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
            not self.allow_cke_off.value
            or self.state != "active"
            or self._outstanding
        ):
            # A callback access in flight re-checks when it completes.
            return
        done_ns = self._last_done_ns
        now = self.sim.now
        if done_ns > now:
            # Fire-and-forget accesses in flight: check again when the
            # last completes, which is when its event would have.
            if done_ns != self._drain_at_ns:
                self._drain_at_ns = done_ns
                self.sim.schedule(done_ns - now, self._maybe_enter_cke_off)
            return
        self.cke_off_entries += 1
        self._begin_transition("cke_off", self.timings.cke_off_entry_ns)

    # -- self-refresh (the PC6 path) -------------------------------------------
    def enter_self_refresh(self, on_done: Callable[[], None] | None = None) -> int:
        """Firmware-commanded self-refresh entry; returns the latency."""
        if self.outstanding:
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
        self.residency.enter("transitioning")  # the draw holds meanwhile
        self._transition_event = self.sim.schedule(
            duration_ns, self._transition_done, target, on_done
        )

    def _transition_done(self, target: str, on_done: Callable[[], None] | None) -> None:
        self._transition_event = None
        self.state = target
        self.residency.enter(target, self.spec.watts[target])
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
