"""Voltage regulator models: FIVR and motherboard VR.

The CLM retention technique (CLMR, paper Sec. 4.3/5.2) relies on two
FIVR properties that we model explicitly:

* **slew-rate-limited ramps** — 2 mV/ns (Sec. 5.5), so the 0.8 V ->
  0.5 V retention transition takes 150 ns;
* **preemptive voltage commands** (Sec. 5.5 footnote 11) — a new VID
  command interrupts an in-flight ramp from the *current* voltage, so
  a PC1A exit that arrives mid-entry does not serialize behind the
  full downward ramp;
* a pre-programmed 8-bit **retention VID (RVID)** register so the
  APMU can command retention with a single ``Ret`` wire instead of a
  firmware mailbox transaction.

``PwrOk`` is asserted whenever the output voltage equals the target
VID, matching the handshake in Fig. 4 (step 4/5).
"""

from __future__ import annotations

from typing import Callable

from repro.hw.signals import Signal
from repro.sim.engine import Event, Simulator
from repro.units import slew_time_ns


class VrError(RuntimeError):
    """Raised on invalid regulator configuration or commands."""


VID_STEP_V = 0.005
"""Voltage resolution of one VID step (5 mV, typical for FIVR)."""


def vid_to_voltage(vid: int) -> float:
    """Decode an 8-bit VID to volts (VID 0 = 0 V, 5 mV per step)."""
    if not 0 <= vid <= 255:
        raise VrError(f"VID must fit in 8 bits, got {vid}")
    return vid * VID_STEP_V


def voltage_to_vid(voltage: float) -> int:
    """Encode volts into the nearest 8-bit VID."""
    vid = round(voltage / VID_STEP_V)
    if not 0 <= vid <= 255:
        raise VrError(f"voltage {voltage} V out of VID range")
    return vid


class Fivr:
    """A fully integrated voltage regulator with timed ramps.

    Parameters
    ----------
    sim:
        Driving simulator.
    name:
        Diagnostic name, e.g. ``"Vccclm0"``.
    nominal_v:
        Operational voltage; also the initial output.
    retention_v:
        The pre-programmed RVID level used when ``Ret`` is asserted.
    slew_v_per_ns:
        Ramp slew rate (paper: >= 2 mV/ns; we use exactly 2 mV/ns).
    on_voltage_change:
        Optional callback ``fn(voltage)`` invoked whenever the output
        starts settling at a new level (used for power integration).
    follows:
        A leader FIVR this one tracks (Vccclm1 follows Vccclm0): the
        leader passes each command on to it, in the same instant, and
        its settle lands the follower right after itself. A follower
        takes no command of its own, schedules no ramp event and
        reports no voltage change.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        nominal_v: float = 0.80,
        retention_v: float = 0.50,
        slew_v_per_ns: float = 0.002,
        on_voltage_change: Callable[[float], None] | None = None,
        follows: Fivr | None = None,
    ):
        if nominal_v <= 0 or retention_v <= 0:
            raise VrError("voltages must be positive")
        if retention_v > nominal_v:
            raise VrError("retention voltage must not exceed nominal")
        if follows is not None:
            if follows.leader is not None or follows._follower is not None:
                raise VrError(f"{follows.name} cannot lead another FIVR")
            if (nominal_v, voltage_to_vid(retention_v), slew_v_per_ns) != (
                follows.nominal_v, follows.rvid, follows.slew_v_per_ns
            ):
                raise VrError("a follower FIVR must match its leader's levels")
            follows._follower = self
        #: The FIVR this one follows (None: it takes its own commands).
        self.leader = follows
        self._follower: Fivr | None = None
        self.sim = sim
        self.name = name
        self.nominal_v = nominal_v
        self.slew_v_per_ns = slew_v_per_ns
        self.rvid = voltage_to_vid(retention_v)
        #: The decoded RVID retention level in volts.
        self.retention_v = vid_to_voltage(self.rvid)
        self.on_voltage_change = on_voltage_change
        self._voltage = nominal_v
        self._target = nominal_v
        self._ramp_started_at = sim.now
        self._ramp_from = nominal_v
        self._ramp_event: Event | None = None
        #: True while the output is slewing toward the target. A plain
        #: attribute (the CLM reads it on every voltage change); only
        #: :meth:`set_voltage` and the ramp's settle write it.
        self.ramping = False
        self.pwr_ok = Signal(f"{name}.PwrOk", value=True)
        self.ramp_count = 0

    # -- observable state --------------------------------------------------
    @property
    def target_v(self) -> float:
        """The commanded output level."""
        return self._target

    @property
    def voltage(self) -> float:
        """Instantaneous output voltage (linear mid-ramp estimate)."""
        if not self.ramping:
            return self._voltage
        elapsed = self.sim.now - self._ramp_started_at
        direction = 1.0 if self._target > self._ramp_from else -1.0
        moved = direction * self.slew_v_per_ns * elapsed
        candidate = self._ramp_from + moved
        if direction > 0:
            return min(candidate, self._target)
        return max(candidate, self._target)

    # -- commands ----------------------------------------------------------
    def set_voltage(self, voltage: float) -> int:
        """Command a new output level; returns the ramp time in ns.

        Preemptive-command semantics: an in-flight ramp is interrupted
        at the *current* output voltage and the new ramp starts from
        there (paper Sec. 5.5, footnote 11).
        """
        if voltage <= 0:
            raise VrError(f"voltage must be positive, got {voltage}")
        if self.leader is not None:
            raise VrError(f"{self.name} follows {self.leader.name}: command that")
        current = self.voltage  # snapshot before cancelling the ramp
        ramp = self._ramp_event
        if ramp is not None:
            ramp.cancel()
            self._ramp_event = None
            self.ramping = False
        self._voltage = current
        self._target = voltage
        if abs(voltage - current) < 1e-12:
            self._voltage = voltage
            if ramp is not None and self.on_voltage_change is not None:
                # The cancelled ramp had reported its start; report
                # where the output settled instead.
                self.on_voltage_change(voltage)
            self.pwr_ok.set(True)
            if self._follower is not None:
                self._follower._take_command(self)
            return 0
        self.pwr_ok.set(False)
        self.ramp_count += 1
        self._ramp_from = current
        self._ramp_started_at = self.sim.now
        ramp_ns = slew_time_ns(voltage - current, self.slew_v_per_ns)
        self._ramp_event = self.sim.schedule(ramp_ns, self._settle)
        self.ramping = True
        if self.on_voltage_change is not None:
            self.on_voltage_change(current)
        if self._follower is not None:
            self._follower._take_command(self)
        return ramp_ns

    def enter_retention(self) -> int:
        """Ramp down to the pre-programmed RVID level (``Ret`` asserted)."""
        return self.set_voltage(self.retention_v)

    def exit_retention(self) -> int:
        """Ramp back to nominal (``Ret`` deasserted)."""
        return self.set_voltage(self.nominal_v)

    # -- internals ---------------------------------------------------------
    def _settle(self) -> None:
        self._ramp_event = None
        self.ramping = False
        self._voltage = self._target
        if self.on_voltage_change is not None:
            self.on_voltage_change(self._voltage)
        self.pwr_ok.set(True)
        follower = self._follower
        if follower is not None:
            # Same command, same ramp: the follower lands now, next, as
            # its own settle event (one seq later) would have.
            follower._settle()

    def _take_command(self, leader: Fivr) -> None:
        """Apply the command ``leader`` has just taken (a follower only).

        The two outputs are always equal, so the follower's ramp is the
        leader's: the same state, and ``PwrOk`` follows right after the
        leader's, in the order two separate commands would give.
        """
        self._voltage = leader._voltage
        self._target = leader._target
        self.ramping = ramping = leader.ramping
        if ramping:
            self.ramp_count += 1
            self._ramp_from = leader._ramp_from
            self._ramp_started_at = leader._ramp_started_at
        self.pwr_ok.set(not ramping)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Fivr({self.name!r}, {self.voltage:.3f} V -> {self._target:.3f} V)"


class Mbvr:
    """A motherboard voltage regulator: fixed output, no fast control.

    The SKX IO controllers and PHYs are powered from motherboard rails
    (Vccsa/Vccio, Fig. 1(c)); they cannot participate in fast
    retention, which is exactly why IOSM uses link power states rather
    than rail scaling.
    """

    def __init__(self, name: str, voltage: float):
        if voltage <= 0:
            raise VrError(f"voltage must be positive, got {voltage}")
        self.name = name
        self._voltage = voltage

    @property
    def voltage(self) -> float:
        """The fixed rail voltage."""
        return self._voltage

    def set_voltage(self, voltage: float) -> int:
        """Motherboard rails are fixed at runtime: always an error."""
        raise VrError(f"{self.name} is a fixed motherboard rail")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Mbvr({self.name!r}, {self._voltage:.3f} V)"
