"""OS scheduler-tick modelling.

Package C-states only pay off if the OS lets the system stay idle:
a periodic scheduler tick (100–1000 Hz, per core) wakes the package
over and over, fragmenting exactly the fully-idle periods PC1A
harvests. Modern kernels therefore run *tickless* (NOHZ) on idle
cores — which is what the paper's measured system does, and why the
main configurations here default to no ticks.

This module makes the interaction measurable: ``OsTimerTicks`` in
``periodic`` mode delivers a small tick job to every core each period
(the legacy kernel behaviour); ``nohz_idle`` mode only ticks busy
cores, so idle cores — and hence the package — sleep through.
"""

from __future__ import annotations

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.timers import PeriodicTimer
from repro.soc.cpu import Core
from repro.units import S, US

TICK_MODES = ("periodic", "nohz_idle")


class OsTimerTicks:
    """Per-core scheduler ticks driving spurious package wakes."""

    def __init__(
        self,
        sim: Simulator,
        cores: list[Core],
        tick_hz: int,
        mode: str = "periodic",
        tick_work_ns: int = 3 * US,
    ):
        if tick_hz <= 0:
            raise ValueError(f"tick rate must be positive, got {tick_hz}")
        if mode not in TICK_MODES:
            raise ValueError(f"unknown tick mode {mode!r}; have {TICK_MODES}")
        if tick_work_ns <= 0:
            raise ValueError(f"tick work must be positive, got {tick_work_ns}")
        self.sim = sim
        self.cores = cores
        self.tick_hz = tick_hz
        self.mode = mode
        self.tick_work_ns = tick_work_ns
        self.period_ns = S // tick_hz
        self.ticks_delivered = 0
        self.ticks_suppressed = 0
        self._timers: list[PeriodicTimer] = []
        self._arm_events: list[Event] = []
        self._next_fire: list[int] | None = None

    @property
    def started(self) -> bool:
        """True while the per-core tick timers are armed."""
        return bool(self._timers)

    @property
    def suspended(self) -> bool:
        """True while the tick events are detached from the kernel."""
        return self._next_fire is not None

    def start(self) -> None:
        """Arm one staggered timer per core (like real per-CPU ticks).

        Starting an already started instance raises: a second set of
        per-core timers would silently double ``ticks_delivered`` and
        the tick CPU load.
        """
        if self._timers:
            raise SimulationError(
                "OsTimerTicks.start() called twice; stop() first to re-arm"
            )
        stagger = self.period_ns // max(1, len(self.cores))
        for index, core in enumerate(self.cores):
            timer = PeriodicTimer(self.sim, self.period_ns, self._make_tick(core))
            self._timers.append(timer)
            self._arm_events.append(self.sim.schedule(index * stagger, timer.start))

    def stop(self) -> None:
        """Disarm all tick timers (including staggered arms in flight)."""
        for event in self._arm_events:
            event.cancel()
        self._arm_events.clear()
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        self._next_fire = None

    # -- parked fast path --------------------------------------------------
    #
    # On a fully-idle nohz machine every tick fire is suppressed: the
    # callback bumps ``ticks_suppressed`` and returns, with no model
    # side effects. The fleet's park manager exploits that — suspend()
    # pulls the tick events out of the kernel while a server is parked,
    # and resume()/credit_suppressed() replay the missed grid points in
    # closed form, so the counters (and every other observable) match
    # the event-driven run exactly while the kernel never touches the
    # parked server.

    def suspend(self) -> None:
        """Detach the tick events from the kernel, remembering the grid.

        Each timer's absolute next-fire time is recorded so resume()
        can credit the missed fires and rejoin the original firing
        grid. No-op if not started or already suspended.
        """
        if not self._timers or self._next_fire is not None:
            return
        next_fire: list[int] = []
        for timer, arm in zip(self._timers, self._arm_events):
            if timer.running:
                assert timer._event is not None
                next_fire.append(timer._event.time)
            else:
                # The staggered arm has not fired yet; the first tick
                # lands one period after the arm point.
                next_fire.append(arm.time + self.period_ns)
            timer.stop()
        for arm in self._arm_events:
            arm.cancel()
        self._next_fire = next_fire

    def credit_suppressed(self) -> None:
        """Account missed fires up to now without resuming.

        Observation points (meter readouts, result collection) call
        this so a still-parked server's tick counters read exactly
        what the event-driven kernel would have accumulated. The cores
        are idle the whole time a server is parked, so every missed
        fire is a suppressed one.
        """
        if self._next_fire is None:
            return
        now = self.sim.now
        period = self.period_ns
        for index, timer in enumerate(self._timers):
            next_fire = self._next_fire[index]
            if next_fire <= now:
                missed = (now - next_fire) // period + 1
                self.ticks_suppressed += missed
                timer.fire_count += missed
                self._next_fire[index] = next_fire + missed * period

    def resume(self) -> None:
        """Re-attach the tick events, crediting fires missed while parked.

        Missed grid points (including one landing exactly now: the
        waking request's work starts at or after the current instant,
        so the core is still idle) are credited as suppressed, and each
        timer re-arms at its next original grid point — the tick
        stagger survives a park/unpark cycle bit-exactly.
        """
        if self._next_fire is None:
            return
        self.credit_suppressed()
        next_fire = self._next_fire
        self._next_fire = None
        for timer, time_ns in zip(self._timers, next_fire):
            timer.start_at(time_ns)

    def _make_tick(self, core: Core):
        def fire() -> None:
            if self.mode == "nohz_idle" and not core.busy:
                # NOHZ: the idle core's tick is suppressed; it will be
                # re-armed by real work arriving.
                self.ticks_suppressed += 1
                return
            self.ticks_delivered += 1
            core.submit(self.tick_work_ns)

        return fire
