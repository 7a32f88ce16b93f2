"""Phase-locked loop model.

SKX uses all-digital PLLs (ADPLLs) throughout: one per core, one per
high-speed IO controller, one for the CLM, one for the GPMU — 18 in
the modelled Xeon Silver 4114 (paper Sec. 5.4). The two facts APC
exploits are captured here: an ADPLL burns only ~7 mW when locked, and
re-locking after power-off costs *microseconds* — which is exactly why
PC1A keeps every PLL on while PC6 turns them off.
"""

from __future__ import annotations

from typing import Callable

from repro.power.meter import PowerChannel
from repro.sim.engine import Event, Simulator
from repro.units import US


class Pll:
    """One ADPLL with an on/locked/re-locking life cycle."""

    #: Re-lock time after power-on ("a few microseconds", Sec. 4.3).
    DEFAULT_RELOCK_NS = 5 * US
    #: Locked ADPLL power (Sec. 5.4, frequency independent).
    DEFAULT_POWER_W = 0.007

    def __init__(
        self,
        sim: Simulator,
        name: str,
        channel: PowerChannel | None = None,
        relock_ns: int = DEFAULT_RELOCK_NS,
        power_w: float = DEFAULT_POWER_W,
    ):
        if relock_ns < 0:
            raise ValueError(f"relock time must be non-negative, got {relock_ns}")
        if power_w < 0:
            raise ValueError(f"power must be non-negative, got {power_w}")
        self.sim = sim
        self.name = name
        self.channel = channel
        self.relock_ns = relock_ns
        self.power_w = power_w
        self._locked = True
        self._powered = True
        self._lock_event: Event | None = None
        self.relock_count = 0
        if channel is not None:
            channel.set_power(power_w)

    @property
    def powered(self) -> bool:
        """True while the PLL is supplied."""
        return self._powered

    @property
    def locked(self) -> bool:
        """True when the output clock is stable and usable."""
        return self._locked

    def power_off(self) -> None:
        """Turn the PLL off (PC6 entry). Loses lock instantly."""
        if self._lock_event is not None:
            self._lock_event.cancel()
            self._lock_event = None
        self._powered = False
        self._locked = False
        if self.channel is not None:
            self.channel.set_power(0.0)

    def power_on(self, on_locked: Callable[[], None] | None = None) -> int:
        """Supply the PLL and start re-locking; returns lock time in ns.

        ``on_locked`` fires when the clock is stable. Powering an
        already locked PLL is free and fires the callback immediately.
        """
        if self._powered and self._locked:
            if on_locked is not None:
                on_locked()
            return 0
        self._powered = True
        if self.channel is not None:
            self.channel.set_power(self.power_w)
        if self._lock_event is not None and self._lock_event.pending:
            # Re-lock already in flight; chain the callback to it.
            remaining = self._lock_event.time - self.sim.now
            if on_locked is not None:
                self.sim.schedule(remaining, on_locked)
            return remaining
        self.relock_count += 1
        self._lock_event = self.sim.schedule(
            self.relock_ns, self._locked_now, on_locked
        )
        return self.relock_ns

    def _locked_now(self, on_locked: Callable[[], None] | None) -> None:
        self._lock_event = None
        self._locked = True
        if on_locked is not None:
            on_locked()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "locked" if self._locked else ("locking" if self._powered else "off")
        return f"Pll({self.name!r}, {state})"
