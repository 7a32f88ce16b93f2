"""Transition-event tracing: the SoCWatch timeline.

SoCWatch-style tools record *C-state transition events* and
post-process the timeline (paper Sec. 6). :class:`TransitionTrace`
subscribes to the residency counters of any set of entities and keeps
a bounded ring of ``(time, entity, from_state, to_state)`` records,
exportable as CSV or consumable as per-entity timelines for offline
analysis — the raw material the paper's opportunity analysis is
computed from.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass

from repro.power.residency import ResidencyCounter
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TransitionEvent:
    """One recorded state transition."""

    time_ns: int
    entity: str
    from_state: str
    to_state: str


class TransitionTrace:
    """A bounded ring of transition events across many entities."""

    def __init__(self, sim: Simulator, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.events: deque[TransitionEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._attached: list[tuple[str, ResidencyCounter]] = []

    def attach(self, entity: str, counter: ResidencyCounter) -> None:
        """Record every state change of a residency counter.

        Wraps the counter's ``enter`` method; detaching is not
        supported (traces live as long as their machine).
        """
        original_enter = counter.enter

        def traced_enter(state: str, power_w: float | None = None) -> None:
            previous = counter.state
            original_enter(state, power_w)
            if state != previous:
                self.record(entity, previous, state)

        counter.enter = traced_enter  # type: ignore[method-assign]
        self._attached.append((entity, counter))

    def record(self, entity: str, from_state: str, to_state: str) -> None:
        """Append one event (oldest events drop beyond capacity)."""
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(TransitionEvent(self.sim.now, entity, from_state, to_state))

    def __len__(self) -> int:
        return len(self.events)

    # -- views -------------------------------------------------------------
    def for_entity(self, entity: str) -> list[TransitionEvent]:
        """All recorded events of one entity, in time order."""
        return [e for e in self.events if e.entity == entity]

    def between(self, start_ns: int, end_ns: int) -> list[TransitionEvent]:
        """Events within a time window."""
        return [e for e in self.events if start_ns <= e.time_ns < end_ns]

    def state_at(self, entity: str, time_ns: int) -> str | None:
        """The entity's state at a time, reconstructed from the trace.

        Returns None when the time precedes the first recorded event
        (the initial state was never captured in the ring).
        """
        state = None
        for event in self.events:
            if event.entity != entity:
                continue
            if event.time_ns > time_ns:
                return state if state is not None else event.from_state
            state = event.to_state
        return state

    def to_csv(self) -> str:
        """Export the ring as CSV (``time_ns,entity,from,to``)."""
        out = io.StringIO()
        out.write("time_ns,entity,from_state,to_state\n")
        for event in self.events:
            out.write(
                f"{event.time_ns},{event.entity},"
                f"{event.from_state},{event.to_state}\n"
            )
        return out.getvalue()

    def clear(self) -> None:
        """Drop all recorded events (measurement-window boundary)."""
        self.events.clear()
        self.dropped = 0
