"""Trace-replay workload: drive the server with recorded arrivals.

SleepScale's methodology point — idle-state policy must be judged
against the *measured* arrival process, not a fitted model — becomes
actionable here: record inter-arrival gaps from a production service
(one line per gap), point this workload at the file, and every
stationary-model scenario can be cross-checked against ground truth.

Determinism is the defining property: the arrival sequence comes
solely from the trace (see
:class:`~repro.workloads.arrivals.TraceReplayArrivals`), so replays
are byte-identical across runs, seeds and sweep worker counts. The
optional second trace column pins per-request service times too,
making the whole offered load seed-independent.

Trace format (CSV)::

    gap_ns,service_ns      # header optional
    120000,30000
    85000,27500
    ...

or JSONL with ``{"gap_ns": ..., "service_ns": ...}`` records; the
``service_ns`` column/field is optional (default: a fixed per-request
occupancy).
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.engine import Simulator
from repro.units import S, US
from repro.workloads.arrivals import TraceReplayArrivals, load_trace
from repro.workloads.base import InjectTarget, OpenLoopArrivals, Request, Workload

__all__ = ["TraceReplayWorkload", "load_trace"]


class TraceReplayWorkload(Workload):
    """Replays a recorded arrival trace against the server."""

    name = "replay"

    #: Per-request occupancy when the trace has no service column.
    DEFAULT_SERVICE_NS = 30 * US

    def __init__(self, trace_path: str | Path, cycle: bool = True):
        self.trace_path = Path(trace_path)
        gaps, services = load_trace(self.trace_path)
        self.arrivals = TraceReplayArrivals(gaps, cycle=cycle)
        self._services = services
        self._cursor = 0

    @property
    def offered_qps(self) -> float:
        """Mean rate of the recorded trace."""
        return self.arrivals.mean_rate_per_s()

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        # No RNG anywhere on this path: gaps and service times come
        # from the trace (or a fixed default), keeping the replay
        # seed-independent by construction.
        OpenLoopArrivals(
            sim, target.inject, self._make_request, self.arrivals.next_gap_ns, None
        )

    def _make_request(self, rng: None) -> Request:
        if self._services is not None:
            service_ns = self._services[self._cursor % len(self._services)]
            self._cursor += 1
        else:
            service_ns = self.DEFAULT_SERVICE_NS
        return Request(
            kind="replayed",
            service_ns=service_ns,
            wire_bytes=256,
            response_bytes=1_024,
            dram_bytes=16_384,
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "trace": str(self.trace_path),
            "arrivals": len(self.arrivals.gaps_ns),
            "offered_qps": self.offered_qps,
            "trace_span_s": sum(self.arrivals.gaps_ns) / S,
            "pinned_service_times": self._services is not None,
        }
