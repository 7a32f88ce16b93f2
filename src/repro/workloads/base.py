"""Workload base classes and the request descriptor."""

from __future__ import annotations

import itertools
import zlib
from typing import Any, Callable, Protocol

import numpy as np

from repro.sim.engine import Event, Simulator
from repro.units import whole_ns


def workload_rng(sim: Simulator, name: str) -> np.random.Generator:
    """A deterministic RNG stream private to one workload.

    Deriving the stream from the simulator seed plus the workload name
    keeps runs reproducible while decoupling the workload's draws from
    the machine's (dispatcher) draws — so two configurations fed the
    same seed see *exactly* the same arrival and service sequence,
    making paired latency/power comparisons noise-free.
    """
    return np.random.default_rng((sim.seed, zlib.crc32(name.encode())))


class Request:
    """One client request as seen by the server NIC."""

    _ids = itertools.count()

    __slots__ = (
        "request_id",
        "kind",
        "service_ns",
        "wire_bytes",
        "response_bytes",
        "dram_bytes",
        "arrival_ns",
        "completed_ns",
    )

    def __init__(
        self,
        kind: str,
        service_ns: int,
        wire_bytes: int = 128,
        response_bytes: int = 1024,
        dram_bytes: int = 16_384,
    ):
        if type(service_ns) is not int or service_ns < 1:
            service_ns = whole_ns(service_ns, "service time", minimum=1)
        self.request_id = next(Request._ids)
        self.kind = kind
        self.service_ns = service_ns
        self.wire_bytes = int(wire_bytes)
        self.response_bytes = int(response_bytes)
        self.dram_bytes = int(dram_bytes)
        self.arrival_ns: int | None = None
        self.completed_ns: int | None = None

    @property
    def server_latency_ns(self) -> int:
        """Arrival at the NIC to completion, excluding the network."""
        if self.arrival_ns is None or self.completed_ns is None:
            raise ValueError("request has not completed")
        return self.completed_ns - self.arrival_ns

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Request(#{self.request_id}, {self.kind}, {self.service_ns} ns)"


class InjectTarget(Protocol):
    """Anything a workload can inject requests into (a server machine)."""

    def inject(self, request: Request) -> None:  # pragma: no cover - protocol
        ...


class OpenLoopArrivals:
    """Drives one open-loop arrival stream with a single recycled event.

    Every built-in stream runs on it. The start event is scheduled at
    construction (on the next event boundary, so construction order
    within a callback does not matter). It draws the first gap; every
    later firing passes ``make(rng)`` to ``emit``, then draws the next
    gap and re-arms the same event by it, so draws happen in the order
    gap, (arrival, gap), (arrival, gap), … A request stream passes the
    target's ``inject`` as ``emit``; a stream whose arrivals are not
    single requests (a UPI snoop, an RPC fan-out) passes its own.
    """

    __slots__ = ("_sim", "_emit", "_make", "_next_gap", "_rng", "_event")

    def __init__(
        self,
        sim: Simulator,
        emit: Callable[[Any], None],
        make: Callable[[Any], Any],
        next_gap: Callable[[Any], int],
        rng: np.random.Generator | None,
    ):
        self._sim = sim
        self._emit = emit
        self._make = make
        self._next_gap = next_gap
        self._rng = rng
        self._event: Event = sim.schedule(0, self._start)

    def _start(self) -> None:
        event = self._event
        event.fn = self._arrive
        self._sim.reschedule(event, self._next_gap(self._rng))

    def _arrive(self) -> None:
        rng = self._rng
        self._emit(self._make(rng))
        self._sim.reschedule(self._event, self._next_gap(rng))


class Workload:
    """Base class for request generators.

    Subclasses implement :meth:`start` and report their intended
    offered load through :attr:`offered_qps` (used to size
    measurement windows and label figures).
    """

    name = "workload"

    @property
    def offered_qps(self) -> float:
        """Intended request rate in queries per second."""
        raise NotImplementedError

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        """Begin generating requests into ``target``.

        Each stream is one :class:`OpenLoopArrivals` on ``sim``.
        """
        raise NotImplementedError

    def describe(self) -> dict[str, Any]:
        """Human-readable parameter summary for reports."""
        return {"name": self.name, "offered_qps": self.offered_qps}


class NullWorkload(Workload):
    """No requests at all: the fully idle server of Fig. 7(a)."""

    name = "idle"

    @property
    def offered_qps(self) -> float:
        return 0.0

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        """Nothing to start."""
