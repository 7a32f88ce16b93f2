"""Periodic and one-shot timer helpers for hardware models."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Event, Simulator
from repro.units import whole_ns


class PeriodicTimer:
    """Fires ``fn()`` every ``period_ns`` until stopped.

    Used by the GPMU for housekeeping ticks and by the tracing layer
    for sampling. The first firing happens one full period after
    :meth:`start` (matching a hardware countdown timer). Steady-state
    ticks recycle one kernel event via ``Simulator.reschedule`` — a
    running timer does not allocate per tick.
    """

    def __init__(self, sim: Simulator, period_ns: int, fn: Callable[[], Any]):
        self.sim = sim
        self.period_ns = whole_ns(period_ns, "period", minimum=1)
        self.fn = fn
        self._event: Event | None = None
        self.fire_count = 0

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._event is not None and self._event.pending

    def start(self) -> None:
        """Arm the timer; restarts the countdown if already armed."""
        self.stop()
        self._event = self.sim.schedule(self.period_ns, self._fire)

    def start_at(self, time_ns: int) -> None:
        """Arm the timer to fire next at absolute ``time_ns``.

        Subsequent fires continue every ``period_ns`` after that. This
        is how a suspended periodic source rejoins its original firing
        grid: the caller remembers the absolute next-fire time, and
        re-arming here lands every later fire exactly where an
        uninterrupted timer would have put it.
        """
        self.stop()
        self._event = self.sim.schedule_at(time_ns, self._fire)

    def stop(self) -> None:
        """Disarm the timer."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self.fire_count += 1
        # The event driving this callback has just fired; re-arm it for
        # the next period instead of allocating a new one.
        self._event = self.sim.reschedule(self._event, self.period_ns)
        self.fn()


class RestartableTimeout:
    """A one-shot timeout that can be re-armed, e.g. an idle-window timer.

    The IO link controllers use this to detect "link idle for N ns"
    before entering L0s: every packet restarts the countdown, from the
    moment it is delivered. Restarts cancel lazily (the kernel compacts
    dead entries), and re-arming after an expiry recycles the expired
    event object.
    """

    def __init__(self, sim: Simulator, duration_ns: int, fn: Callable[[], Any]):
        self.sim = sim
        self.duration_ns = whole_ns(duration_ns, "duration", minimum=0)
        self.fn = fn
        self._event: Event | None = None
        self._spent: Event | None = None

    @property
    def armed(self) -> bool:
        """True while the countdown is running."""
        return self._event is not None and self._event.pending

    def restart(self, from_ns: int = 0) -> None:
        """(Re)start the countdown from the full duration.

        The countdown starts now, or at ``from_ns`` if that is later
        (a window that opens once in-flight traffic has landed).
        """
        if self._event is not None:
            self.cancel()
        delay = self.duration_ns
        if from_ns > self.sim.now:
            delay += from_ns - self.sim.now
        spent = self._spent
        if spent is not None and not spent._in_heap:
            self._spent = None
            self._event = self.sim.reschedule(spent, delay)
        else:
            self._event = self.sim.schedule(delay, self._expire)

    def cancel(self) -> None:
        """Disarm without firing."""
        event = self._event
        if event is not None:
            event.cancel()
            # A cancelled event still sits in the heap until popped or
            # compacted; remember it so a later restart can recycle it
            # once the kernel has retired it.
            self._spent = event
            self._event = None

    def _expire(self) -> None:
        self._spent = self._event
        self._event = None
        self.fn()
