"""CPU core model: execution, core C-states, and the PMA status export.

Each core runs one piece of work at a time from a private run queue
(the server pins worker threads, Sec. 6 of the paper): a service time
in whole nanoseconds, with an optional completion callback and the
payload it is called with. When the queue drains, the idle governor
picks a core C-state; the core then walks an explicit entering ->
idle -> waking life cycle with the entry/exit latencies of
:mod:`repro.soc.cstates`.

The core's power management agent (PMA, paper Sec. 5.3) exports two
status wires consumed by package controllers: ``InCC1`` (asserted
while fully resident in CC1 or deeper) and ``InCC6`` (fully resident
in CC6). Wake-ups are gated by the package controller: a core exit
begins only once interrupts are deliverable (``request_wake``), which
is how PC1A's <= 200 ns and PC6's tens of microseconds show up in
request latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.hw.signals import Signal
from repro.power.budgets import CorePowerSpec
from repro.power.meter import PowerChannel
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Event, Simulator
from repro.soc.cstates import CC0, CoreCState
from repro.soc.package import PackageController
from repro.units import whole_ns


class CoreError(RuntimeError):
    """Raised on invalid core usage (e.g. negative service time)."""


class Core:
    """One physical CPU core.

    Parameters
    ----------
    sim, index:
        Simulator and core number.
    spec:
        Per-core power by C-state.
    governor:
        Idle governor choosing the C-state on queue drain.
    channel:
        Power channel for this core.
    package:
        The package controller gating wake-ups.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        spec: CorePowerSpec,
        governor: "IdleGovernorProtocol",
        channel: PowerChannel,
        package: PackageController,
    ):
        self.sim = sim
        self.index = index
        self.spec = spec
        self.governor = governor
        self.channel = channel
        self.package = package
        #: Queued work: (service_ns, on_done, payload) in FIFO order.
        self.queue: deque[tuple[int, Callable[[Any], None] | None, Any]] = deque()
        #: C-state residency; its ``enter`` also sets the idle draw.
        self.residency = ResidencyCounter(sim, CC0.name, channel)
        self.in_cc1 = Signal(f"core{index}.InCC1", value=False)
        self.in_cc6 = Signal(f"core{index}.InCC6", value=False)
        self._mode = "active"  # active | entering | idle | waking
        self._cstate: CoreCState = CC0
        self._entry_event: Event | None = None
        self._run_event: Event | None = None
        self._wake_pending = False
        self._idle_started_ns: int | None = None
        self.jobs_completed = 0
        self.wake_count = 0
        channel.set_power(spec.cc0_w)
        # A fresh core has nothing to do: let it settle into idle.
        sim.schedule(0, self._maybe_go_idle)

    # -- observability -----------------------------------------------------
    @property
    def mode(self) -> str:
        """Life-cycle phase: ``active``/``entering``/``idle``/``waking``."""
        return self._mode

    @property
    def cstate(self) -> CoreCState:
        """The current (or target, while entering) core C-state."""
        return self._cstate

    @property
    def busy(self) -> bool:
        """True while executing or holding queued work."""
        return self._mode == "active" or bool(self.queue)

    def set_spec(self, spec: CorePowerSpec) -> None:
        """Swap the core's power spec (a controller P-state change).

        Reprices the power channel for the *current* life-cycle phase
        immediately, so a mid-run DVFS actuation shows up in the
        integrated energy from this instant on. Specs are frozen plain
        data: the swap rebinds the reference (checkpoint-safe), never
        mutates the shared baseline object.
        """
        if spec is self.spec:
            return
        self.spec = spec
        if self._mode == "active":
            self.channel.set_power(spec.cc0_w)
        elif self._mode in ("entering", "waking"):
            self.channel.set_power(spec.transition_w)
        else:  # idle
            self.channel.set_power(spec.watts[self._cstate.name])

    # -- work submission -----------------------------------------------------
    def submit(
        self,
        service_ns: int,
        on_done: Callable[[Any], None] | None = None,
        payload: Any = None,
    ) -> None:
        """Queue ``service_ns`` of work; wakes the core if it is idle.

        The service time must be whole, positive nanoseconds: a
        fractional or sub-1-ns one raises :class:`CoreError` instead of
        being truncated. ``on_done(payload)`` runs when the work
        completes.
        """
        if type(service_ns) is not int or service_ns < 1:
            service_ns = whole_ns(service_ns, "service time", CoreError, minimum=1)
        self.queue.append((service_ns, on_done, payload))
        if self._mode == "active":
            return  # will be picked up when the current work completes
        if self._mode == "waking":
            return  # wake already in flight
        if self._mode == "entering":
            # Entry is not abortable (paper Sec. 5.5 footnote 11 models
            # the VR side; the core side likewise completes its MWAIT
            # entry before the wake interrupt is serviced).
            self._wake_pending = True
            return
        self._begin_wake()

    # -- idle entry ------------------------------------------------------
    def _maybe_go_idle(self) -> None:
        if self._mode != "active" or self.queue or self._run_event is not None:
            return
        cstate = self.governor.select(self)
        if cstate.depth == 0:
            return  # governor can keep the core polling in CC0
        self._mode = "entering"
        self._cstate = cstate
        self._idle_started_ns = self.sim.now
        self.channel.set_power(self.spec.transition_w)
        self._entry_event = self.sim.schedule(cstate.entry_ns, self._entry_complete)

    def _entry_complete(self) -> None:
        self._entry_event = None
        self._mode = "idle"
        cstate = self._cstate
        name = cstate.name
        self.residency.enter(name, self.spec.watts[name])
        self.in_cc1.set(cstate.depth >= 1)
        if cstate.depth >= 3:
            self.in_cc6.set(True)  # low since the last wake
        if self._wake_pending:
            self._wake_pending = False
            self._begin_wake()

    # -- wake ----------------------------------------------------------------
    def _begin_wake(self) -> None:
        if self._mode not in ("idle", "entering"):
            raise CoreError(f"cannot wake core in mode {self._mode!r}")
        self.wake_count += 1
        self._mode = "waking"
        self.in_cc1.set(False)
        if self.in_cc6.value:
            self.in_cc6.set(False)
        # Time in the exit counts as CC0, at the transition draw.
        self.residency.enter(CC0.name, self.spec.transition_w)
        if self._idle_started_ns is not None:
            self.governor.observe_idle(self, self.sim.now - self._idle_started_ns)
            self._idle_started_ns = None
        # Interrupt delivery is gated by the package controller; the
        # core C-state exit starts once the package can deliver it.
        self.package.request_wake(self._package_ready)

    def _package_ready(self) -> None:
        self.sim.schedule(self._cstate.exit_ns, self._core_exit_complete)

    def _core_exit_complete(self) -> None:
        self._mode = "active"
        self._cstate = CC0
        self.channel.set_power(self.spec.cc0_w)
        self._start_next()

    # -- execution -------------------------------------------------------
    def _start_next(self) -> None:
        if self._mode != "active":
            return
        if not self.queue:
            self._maybe_go_idle()
            return
        service_ns, on_done, payload = self.queue.popleft()
        self._run_event = self.sim.schedule(
            service_ns, self._job_done, on_done, payload
        )

    def _job_done(self, on_done: Callable[[Any], None] | None, payload: Any) -> None:
        self._run_event = None
        self.jobs_completed += 1
        if on_done is not None:
            on_done(payload)
        self._start_next()


class IdleGovernorProtocol:
    """Structural interface idle governors must implement."""

    def select(self, core: Core) -> CoreCState:  # pragma: no cover - protocol
        """Pick the C-state for a core whose queue just drained."""
        raise NotImplementedError

    def observe_idle(self, core: Core, duration_ns: int) -> None:
        """Feedback: how long the last idle period actually lasted."""
