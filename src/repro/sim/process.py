"""Generator-based processes on top of the event kernel.

A process is a Python generator that yields *commands*:

* ``Delay(ns)`` — suspend for a fixed duration;
* ``WaitEvent()`` — suspend until another process calls
  :meth:`WaitEvent.trigger` (optionally passing a value back in).

Processes make sequential flows (a request's life cycle, a load
generator loop) much easier to read than chained callbacks, while
state machines with many external triggers (LTSSM, APMU) remain
callback/FSM based.

A process recycles one resume :class:`~repro.sim.engine.Event` for its
whole life (via :meth:`Simulator.reschedule`), so long Delay loops —
load generators, pollers — do not allocate an event per iteration.

Example
-------
>>> from repro.sim import Simulator, Process, Delay
>>> sim = Simulator()
>>> log = []
>>> def worker():
...     log.append(("start", sim.now))
...     yield Delay(25)
...     log.append(("done", sim.now))
>>> _ = Process(sim, worker())
>>> sim.run()
>>> log
[('start', 0), ('done', 25)]
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Simulator, SimulationError
from repro.units import whole_ns


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Delay:
    """Yield command: suspend the process for ``duration_ns``."""

    __slots__ = ("duration_ns",)

    def __init__(self, duration_ns: int):
        if type(duration_ns) is not int or duration_ns < 0:
            duration_ns = whole_ns(duration_ns, "delay", minimum=0)
        self.duration_ns = duration_ns


class WaitEvent:
    """Yield command: suspend until :meth:`trigger` is called.

    A ``WaitEvent`` may be triggered before the process yields it; in
    that case the process resumes immediately (on the next event),
    which avoids lost-wakeup races.
    """

    def __init__(self) -> None:
        self._waiters: list[Process] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Wake all processes waiting on this event."""
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._waiting_on = None
            process._resume_soon(value)

    def _subscribe(self, process: "Process") -> None:
        if self.triggered:
            process._resume_soon(self.value)
        else:
            process._waiting_on = self
            self._waiters.append(process)

    def _unsubscribe(self, process: "Process") -> None:
        """Drop a waiter that will no longer consume this trigger."""
        try:
            self._waiters.remove(process)
        except ValueError:
            pass


class Process:
    """Drives a generator as a simulation process.

    Parameters
    ----------
    sim:
        The simulator that schedules the process's resumptions.
    generator:
        A generator yielding :class:`Delay` or :class:`WaitEvent`.
    name:
        Optional label for diagnostics.
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = "process"):
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self._pending_event = None
        self._interrupt: Interrupt | None = None
        self._waiting_on: WaitEvent | None = None
        self._resume_value: Any = None
        # Start on the next event boundary so construction order does
        # not matter within a single callback.
        self._pending_event = sim.schedule(0, self._resume)

    # -- control ---------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume."""
        if self.finished:
            return
        self._interrupt = Interrupt(cause)
        # Abandon whatever the process was suspended on. Without the
        # unsubscribe, a WaitEvent triggering later would inject a
        # spurious resume (carrying the trigger value) into a generator
        # that has long moved on to a different Delay/WaitEvent.
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
            self._waiting_on = None
        if self._pending_event is not None and self._pending_event.pending:
            self._pending_event.cancel()
        self._resume_value = None
        self._pending_event = self.sim.schedule(0, self._resume)

    # -- internals ---------------------------------------------------------
    def _resume_soon(self, value: Any) -> None:
        if self.finished:
            return
        self._resume_value = value
        self._pending_event = self.sim.schedule(0, self._resume)

    def _resume(self) -> None:
        if self.finished:
            return
        # The event that is firing right now; reusable for the next
        # suspension (it is popped and marked fired by the kernel).
        spent = self._pending_event
        self._pending_event = None
        self._waiting_on = None
        value, self._resume_value = self._resume_value, None
        try:
            if self._interrupt is not None:
                interrupt, self._interrupt = self._interrupt, None
                command = self.generator.throw(interrupt)
            else:
                command = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return
        self._dispatch(command, spent)

    def _dispatch(self, command: Any, spent=None) -> None:
        if isinstance(command, Delay):
            if spent is not None and spent.fired:
                self._pending_event = self.sim.reschedule(spent, command.duration_ns)
            else:
                self._pending_event = self.sim.schedule(
                    command.duration_ns, self._resume
                )
        elif isinstance(command, WaitEvent):
            command._subscribe(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"
