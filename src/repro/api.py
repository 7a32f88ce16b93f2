"""The stable high-level facade: cells, drivers and the sweep session.

Every measurement in this repo is a *cell* (:class:`Cell`): frozen
plain data naming a fully-determined experiment, run start to finish
by :func:`run_cell` and by the thousands through a
:class:`SweepSession`. The lifecycle itself lives in :mod:`repro.cell`
at the bottom of the import graph; this module only gathers the
public names from the layers below it, and no module inside ``repro``
imports it.

The classic drivers (:func:`run_experiment`,
:func:`run_fleet_experiment`) remain supported as thin wrappers —
``run_cell`` is the preferred entry point for anything that starts
from a spec.

Typical use::

    from repro.api import FleetCell, SweepSession, run_cell

    result = run_cell(FleetCell(
        workload="memcached-diurnal", qps=80_000.0, preset="low",
        machine="CPC1A", n_servers=16, routing="power-aware-pack",
        seed=0, duration_ns=200_000_000, warmup_ns=25_000_000,
    ))
"""

from __future__ import annotations

from repro.cell import Cell, CellRuntime, measure_window, run_cell
from repro.fleet.experiment import run_fleet_experiment
from repro.fleet.result import FleetResult
from repro.fleet.spec import FleetCell, FleetSpec
from repro.server.experiment import ExperimentResult, run_experiment
from repro.sweep.journal import RunJournal
from repro.sweep.session import SweepSession
from repro.sweep.spec import ExperimentSpec, SweepSpec
from repro.sweep.supervisor import CellPolicy

__all__ = [
    "Cell",
    "CellPolicy",
    "CellRuntime",
    "ExperimentResult",
    "ExperimentSpec",
    "FleetCell",
    "FleetResult",
    "FleetSpec",
    "RunJournal",
    "SweepSession",
    "SweepSpec",
    "measure_window",
    "run_cell",
    "run_experiment",
    "run_fleet_experiment",
]
