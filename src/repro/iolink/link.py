"""IO link controller: LTSSM + power + the APC signal interface.

Responsibilities (paper Sec. 4.2.1 / 5.1):

* **AllowL0s** input — when asserted, the controller arms an idle
  timer (the programmed ``L0S_ENTRY_LAT`` window, exit latency / 4);
  when the link has no outstanding transactions for that window the
  LTSSM autonomously drops into L0s (UPI: L0p). Deasserting AllowL0s
  wakes a standby link back to L0.
* **InL0s** output — asserted while the LTSSM is in L0s *or deeper*
  (L1/NDA count, footnote 5); deasserted the moment a wake event is
  detected so the APMU can start the PC1A exit concurrently.
* **transfer()** — delivers payloads with wake latency plus
  bandwidth serialization, and notifies wake listeners (the APMU
  learns of IO-triggered wakes through the InL0s edge; the GPMU
  registers an explicit listener because in PC6 its links sit in L1).
  A transfer nothing waits on (a NIC response, a UPI snoop) schedules
  no delivery event: its delivery time is a deadline, the idle window
  opens at the last such deadline, and ``outstanding`` counts the
  deadlines still ahead of the clock.
* power accounting per L-state through the link's power channel.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.hw.signals import Signal
from repro.iolink.lstates import (
    DMI_TIMINGS,
    LSTATE_BY_NAME,
    LinkTimings,
    PCIE_TIMINGS,
    UPI_TIMINGS,
)
from repro.iolink.ltssm import Ltssm
from repro.power.budgets import DMI_POWER, LinkPowerSpec, PCIE_POWER, UPI_POWER
from repro.power.meter import PowerChannel
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Simulator
from repro.sim.timers import RestartableTimeout


class LinkError(RuntimeError):
    """Raised on invalid link usage."""


#: LTSSM state -> (power class, InL0s level). InL0s is high in L0s
#: "or deeper" and low in every other state.
_STATE_SYNC = {
    name: (lstate.power_class, lstate.counts_as_in_l0s)
    for name, lstate in LSTATE_BY_NAME.items()
}


class IoLink:
    """One high-speed IO controller + PHY pair."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        power_spec: LinkPowerSpec,
        timings: LinkTimings,
        channel: PowerChannel,
    ):
        self.sim = sim
        self.name = name
        self.power_spec = power_spec
        self.timings = timings
        self.channel = channel
        self.ltssm = Ltssm(
            sim,
            f"{name}.ltssm",
            timings,
            shallow_state=power_spec.shallow_state,
            on_transition=self._sync_state,
        )
        self.allow_l0s = Signal(f"{name}.AllowL0s", value=False)
        power_class, in_l0s = _STATE_SYNC[self.ltssm.state]
        self.in_l0s = Signal(f"{name}.InL0s", value=in_l0s)
        #: LTSSM residency; its ``enter`` also sets the link's draw.
        self.residency = ResidencyCounter(sim, self.ltssm.state, channel)
        channel.set_power(power_spec.watts[power_class])
        #: Transfers in flight with a delivery callback (each has its
        #: delivery event).
        self._outstanding = 0
        #: Delivery times of the fire-and-forget transfers that may
        #: still be in flight, and the last of them. A tuple rebound per
        #: transfer, which the recycle walker snapshots like a scalar.
        self._deadlines: tuple[int, ...] = ()
        self._last_delivery_ns = 0
        self._idle_timer = RestartableTimeout(
            sim, timings.shallow_entry_ns, self._idle_window_elapsed
        )
        self._wake_listeners: list[Callable[[str], None]] = []
        self.transfers = 0
        self.shallow_entries = 0
        self.allow_l0s.watch(self._on_allow_change)

    def connect_allow_l0s(self, wire: Signal) -> None:
        """Take AllowL0s from ``wire``, one wire that many links watch.

        This is how the IOSM fans its single AllowL0s wire out to every
        IO controller (paper Sec. 4.2): each link watches the shared
        wire directly, with no per-link relay. Both wires must be low.
        """
        if wire.value or self.allow_l0s.value:
            raise LinkError(f"{self.name}: connect AllowL0s while it is low")
        self.allow_l0s.unwatch(self._on_allow_change)
        self.allow_l0s = wire
        wire.watch(self._on_allow_change)

    # -- wake listeners ---------------------------------------------------
    def on_wake(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(link_name)`` to fire when traffic wakes the link."""
        self._wake_listeners.append(fn)

    # -- traffic -----------------------------------------------------------
    def transfer(
        self,
        n_bytes: int,
        on_delivered: Callable[..., None] | None = None,
        *args: Any,
    ) -> int:
        """Move ``n_bytes`` across the link; returns total latency in ns.

        Latency = wake latency of the current L-state (0 in L0/L0p)
        plus serialization at the link bandwidth. With ``on_delivered``
        a delivery event runs ``on_delivered(*args)`` (event arguments
        instead of a closure per transfer) and then re-arms the idle
        window. Without it nothing is scheduled: the delivery time is
        kept as a deadline and the idle window is armed to open then.
        """
        if n_bytes <= 0:
            raise LinkError(f"transfer size must be positive, got {n_bytes}")
        self.transfers += 1
        self._idle_timer.cancel()
        wake_ns = self._wake_for_traffic()
        serialize_ns = max(1, round(n_bytes / self.timings.bandwidth_bytes_per_ns))
        total = wake_ns + serialize_ns
        sim = self.sim
        if on_delivered is not None:
            self._outstanding += 1
            sim.schedule(total, self._delivered, on_delivered, *args)
            return total
        now = sim.now
        delivery_ns = now + total
        if self._last_delivery_ns > now:
            # Overlaps earlier fire-and-forget transfers: keep those
            # still in flight.
            self._deadlines = tuple(
                t for t in self._deadlines if t > now
            ) + (delivery_ns,)
            if delivery_ns > self._last_delivery_ns:
                self._last_delivery_ns = delivery_ns
        else:
            self._deadlines = (delivery_ns,)
            self._last_delivery_ns = delivery_ns
        if delivery_ns > sim.horizon_ns:
            sim.horizon_ns = delivery_ns
        if self.allow_l0s.value:
            self._maybe_arm_idle_timer()
        return total

    @property
    def outstanding(self) -> int:
        """Transactions currently in flight."""
        now = self.sim.now
        if self._last_delivery_ns <= now:
            return self._outstanding
        return self._outstanding + sum(1 for t in self._deadlines if t > now)

    @property
    def state(self) -> str:
        """Current LTSSM state label."""
        return self.ltssm.state

    # -- GPMU (PC6) interface -------------------------------------------------
    def enter_l1(self, on_done: Callable[[], None] | None = None) -> int:
        """Command deep L1 entry (PC6 flow); returns the latency."""
        if self.outstanding:
            raise LinkError(f"{self.name}: cannot enter L1 with traffic in flight")
        if self.ltssm.state == "L1":
            if on_done is not None:
                on_done()
            return 0
        total = self.ltssm.enter_l1()
        if on_done is not None:
            self.sim.schedule(total, on_done)
        return total

    def exit_l1(self, on_done: Callable[[], None] | None = None) -> int:
        """Wake from L1 back to L0 (PC6 exit); returns the latency."""
        if self.ltssm.state != "L1":
            raise LinkError(f"{self.name}: exit_l1 in state {self.ltssm.state}")
        total = self.ltssm.exit_l1()
        if on_done is not None:
            self.sim.schedule(total, on_done)
        return total

    # -- internals ---------------------------------------------------------
    def _wake_for_traffic(self) -> int:
        state = self.ltssm.state
        if state == "L0" or (state == "L0p" and self.ltssm.lstate.transmitting):
            # L0p keeps half the lanes awake: transactions flow, the
            # LTSSM upshifts to full width concurrently.
            if state == "L0p":
                self._notify_wake()
                self.ltssm.goto("L0", after_ns=self.timings.shallow_exit_ns)
            return 0
        if state == "L0s":
            self._notify_wake()
            return self.ltssm.exit_shallow()
        if state == "L1":
            self._notify_wake()
            return self.ltssm.exit_l1()
        if state in ("Recovery",):
            # Mid-retrain: deliver after the retrain completes.
            return self.timings.l1_exit_ns
        raise LinkError(f"{self.name}: traffic on untrained link ({state})")

    def _notify_wake(self) -> None:
        # InL0s must drop immediately on wake detection so the APMU
        # exit flow starts concurrently with the link's own exit.
        self.in_l0s.set(False)
        for fn in list(self._wake_listeners):
            fn(self.name)

    def _delivered(self, on_delivered: Callable[..., None] | None, *args: Any) -> None:
        self._outstanding -= 1
        if self._outstanding < 0:
            raise LinkError(f"{self.name}: outstanding underflow")
        if on_delivered is not None:
            on_delivered(*args)
        self._maybe_arm_idle_timer()

    def _on_allow_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._maybe_arm_idle_timer()
        else:
            self._idle_timer.cancel()
            ltssm = self.ltssm
            if ltssm.state == ltssm.shallow_state:  # Ltssm.in_shallow
                ltssm.exit_shallow()
                self.in_l0s.set(False)

    def _maybe_arm_idle_timer(self) -> None:
        # A transfer with a callback re-arms on its delivery; the window
        # opens once the last fire-and-forget transfer has landed.
        if (
            self.allow_l0s.value
            and self._outstanding == 0
            and self.ltssm.state == "L0"
        ):
            self._idle_timer.restart(self._last_delivery_ns)

    def _idle_window_elapsed(self) -> None:
        # Every transfer cancels the window and re-arms it no earlier
        # than its delivery, so no fire-and-forget transfer is in
        # flight here.
        if self._outstanding or not self.allow_l0s.value:
            return
        if self.ltssm.state != "L0":
            return
        self.ltssm.enter_shallow()
        self.shallow_entries += 1

    def _sync_state(self, state: str) -> None:
        # Residency, power and InL0s follow every LTSSM transition.
        # InL0s also drops eagerly in _notify_wake and on allow changes,
        # so an L0 arrival usually finds it low already.
        power_class, in_l0s = _STATE_SYNC[state]
        self.residency.enter(state, self.power_spec.watts[power_class])
        if self.in_l0s.value is not in_l0s:
            self.in_l0s.set(in_l0s)
        if state == "L0" and self.allow_l0s.value:
            # Arriving in L0 (an L0p upshift, an L0s exit or an L1
            # retrain) may find AllowL0s already asserted and the link
            # idle: the idle window starts here, or the link would stay
            # in L0 until the next transfer.
            self._maybe_arm_idle_timer()


def make_link(sim: Simulator, kind: str, index: int, channel: PowerChannel) -> IoLink:
    """Build a PCIe, DMI or UPI link with its calibrated parameters."""
    if kind == "pcie":
        return IoLink(sim, f"pcie{index}", PCIE_POWER, PCIE_TIMINGS, channel)
    if kind == "dmi":
        return IoLink(sim, f"dmi{index}", DMI_POWER, DMI_TIMINGS, channel)
    if kind == "upi":
        return IoLink(sim, f"upi{index}", UPI_POWER, UPI_TIMINGS, channel)
    raise LinkError(f"unknown link kind {kind!r}")
