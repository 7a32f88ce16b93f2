"""Discrete-event simulation kernel with an integer-nanosecond clock.

The kernel is deliberately small: a binary-heap event queue
(:class:`~repro.sim.engine.Simulator`), cancellable events
(:class:`~repro.sim.engine.Event`) and timers
(:mod:`repro.sim.timers`). Every hardware model in the library is
driven by one shared :class:`Simulator` instance, and every timed flow
is a chain of scheduled callbacks: a step does its work and schedules
the next.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.sanitize import AmbiguousTimestamp, EventStreamSanitizer, SanitizerReport
from repro.sim.timers import PeriodicTimer

__all__ = [
    "AmbiguousTimestamp",
    "Event",
    "EventStreamSanitizer",
    "Simulator",
    "SimulationError",
    "SanitizerReport",
    "PeriodicTimer",
]
