"""The cell lifecycle: one protocol, one run loop.

Every measurement in this repo — one server under one workload, or a
1,000-server fleet behind a load balancer — is a *cell*: frozen plain
data naming a fully-determined experiment. The :class:`Cell` protocol
is the contract the orchestration stack dispatches on, so the sweep
session, the result stores and the CSV writers never special-case the
cell kind. The lifecycle is always::

    build -> (warmup) -> begin_measurement -> run -> collect

:func:`run_cell` drives that lifecycle for any cell;
:func:`measure_window` is the shared warmup/measure flow both the
cell path and the classic drivers
(:func:`~repro.server.experiment.run_experiment`,
:func:`~repro.fleet.experiment.run_fleet_experiment`) execute.

This module sits at the bottom of the import graph: it imports nothing
else from ``repro``, so the drivers, the cell specs and the sweep
session all import it at module top. :mod:`repro.api` re-exports it.
"""

from __future__ import annotations

from typing import Any, Hashable, Protocol, runtime_checkable

__all__ = ["Cell", "CellRuntime", "check_window", "measure_window", "run_cell"]


@runtime_checkable
class CellRuntime(Protocol):
    """What :meth:`Cell.build` returns: a measurable unit.

    :class:`~repro.server.machine.ServerMachine` and
    :class:`~repro.fleet.cluster.FleetMachine` both satisfy this —
    one event kernel (``sim``), the warmup/measure clockwork, the
    ``inject`` entry point workloads drive, and the
    checkpoint/recycle pair that makes warm sweep reuse possible.
    """

    sim: Any

    def inject(self, request: Any) -> None: ...

    def run_for(self, duration_ns: int) -> None: ...

    def begin_measurement(self) -> None: ...

    def checkpoint(self) -> None: ...


@runtime_checkable
class Cell(Protocol):
    """One fully-determined experiment, runnable by :func:`run_cell`.

    Implementations are frozen dataclasses
    (:class:`~repro.sweep.spec.ExperimentSpec`,
    :class:`~repro.fleet.spec.FleetCell`) carrying ``duration_ns``,
    ``warmup_ns`` and ``seed`` fields alongside these methods. The
    warm-reuse triplet (``warm_slot``/``recycle`` plus the runtime's
    ``checkpoint``) is what lets a sweep session amortize one runtime
    across every cell sharing a slot.
    """

    duration_ns: int
    warmup_ns: int
    seed: int

    def key(self) -> str:
        """Content hash identifying this cell in a result store."""
        ...

    def label(self) -> str:
        """Short human label for logs and error messages."""
        ...

    def build(self) -> CellRuntime:
        """Construct a fresh runtime for this cell."""
        ...

    def warm_slot(self) -> Hashable:
        """Warm-reuse cache key: cells sharing a slot share a runtime."""
        ...

    def recycle(self, runtime: CellRuntime) -> None:
        """Rewind a checkpointed runtime into this cell's fresh state."""
        ...

    def build_workload(self) -> Any:
        """Instantiate the cell's workload (arrival stream)."""
        ...

    def collect(self, runtime: CellRuntime, workload: Any) -> Any:
        """Assemble the result object from a measured runtime."""
        ...


def check_window(duration_ns: int, warmup_ns: int) -> None:
    """Reject an empty measurement window or a negative warmup."""
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive, got {duration_ns}")
    if warmup_ns < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup_ns}")


def measure_window(
    runtime: CellRuntime,
    workload: Any,
    duration_ns: int,
    warmup_ns: int,
) -> None:
    """The canonical warmup → reset → measure flow.

    The warmup lets queues, governor history and package state reach
    steady behaviour before meters reset; the measurement window then
    integrates power and residency exactly (piecewise-constant, no
    sampling error). On return the runtime holds one measured window,
    ready for the cell's ``collect``.
    """
    check_window(duration_ns, warmup_ns)
    workload.start(runtime.sim, runtime)
    runtime.run_for(warmup_ns)
    runtime.begin_measurement()
    runtime.run_for(duration_ns)


def run_cell(cell: Cell, *, runtime: CellRuntime | None = None) -> Any:
    """Run one cell start to finish and return its result.

    Pass ``runtime`` to reuse a prebuilt (typically recycled) runtime;
    it must already be in the cell's fresh state — the sweep session's
    warm path pairs this with ``cell.recycle``.
    """
    if runtime is None:
        runtime = cell.build()
    workload = cell.build_workload()
    measure_window(runtime, workload, cell.duration_ns, cell.warmup_ns)
    return cell.collect(runtime, workload)
