"""Sweep orchestration: declarative grids, parallel runs, caching.

The paper's figures are all workload x config x rate x seed sweeps;
this package turns "one figure" into data:

>>> from repro.sweep import SweepSession, SweepSpec, memcached_points
>>> spec = SweepSpec(
...     workloads=memcached_points([0, 4_000]),
...     configs=("Cshallow", "CPC1A"),
...     seeds=(1,),
... )
>>> with SweepSession(workers=1) as session:  # doctest: +SKIP
...     results = session.run(spec)

- :class:`SweepSpec` expands deterministically into
  :class:`ExperimentSpec` cells (plain, picklable data); a ``props``
  axis grids platform-property overrides (``repro props list``) on
  top of the named configs;
- :class:`SweepSession` is the one way to run cells: it fans them out
  over a persistent worker fleet (or runs them in-process at
  ``workers=1``) whose workers own and recycle their machines, so
  parallel == serial bit-for-bit, and returns :class:`SweepResults`;
  :func:`repro.cell.run_cell` runs a single cell from scratch;
- :class:`ResultStore` caches results under content-hash keys, making
  re-runs of unchanged cells instant (reads are checksum-verified;
  corrupt records are quarantined and re-simulated);
- :class:`SweepSupervisor` + :class:`CellPolicy` make the execution
  plane fault-tolerant: dead workers respawn, stuck cells get killed
  and retried, exhausted cells are quarantined
  (:class:`QuarantinedCell`), and :class:`RunJournal` makes a
  long campaign resumable after SIGKILL (``repro sweep --resume``);
- :func:`aggregate_over_seeds` folds per-seed repeats into mean/CI.
"""

from repro.sweep import chaos
from repro.sweep.aggregate import (
    AGGREGATED_METRICS,
    CellAggregate,
    MetricStats,
    aggregate_over_seeds,
)
from repro.props import (
    PropPairs,
    PropValue,
    config_axis_label,
    merge_props,
    normalize_props,
)
from repro.sweep.journal import JOURNAL_SCHEMA, JournalError, RunJournal
from repro.sweep.session import (
    SweepCellError,
    SweepResults,
    SweepSession,
    default_workers,
)
from repro.sweep.spec import (
    ExperimentSpec,
    SweepSpec,
    WorkloadPoint,
    duration_for_rate,
    memcached_points,
    preset_points,
    warmup_for_duration,
)
from repro.sweep.store import (
    CSV_COLUMNS,
    MemoryStore,
    ResultStore,
    StoreCorruption,
    StreamingCsvWriter,
    flatten_result,
    write_csv,
)
from repro.sweep.supervisor import (
    CellPolicy,
    QuarantinedCell,
    QuarantineExhausted,
    SweepSupervisor,
)

__all__ = [
    "AGGREGATED_METRICS",
    "CSV_COLUMNS",
    "CellAggregate",
    "CellPolicy",
    "ExperimentSpec",
    "JOURNAL_SCHEMA",
    "JournalError",
    "MemoryStore",
    "MetricStats",
    "PropPairs",
    "PropValue",
    "QuarantineExhausted",
    "QuarantinedCell",
    "ResultStore",
    "RunJournal",
    "StoreCorruption",
    "StreamingCsvWriter",
    "SweepCellError",
    "SweepResults",
    "SweepSession",
    "SweepSpec",
    "SweepSupervisor",
    "WorkloadPoint",
    "chaos",
    "aggregate_over_seeds",
    "config_axis_label",
    "default_workers",
    "duration_for_rate",
    "flatten_result",
    "memcached_points",
    "merge_props",
    "normalize_props",
    "preset_points",
    "warmup_for_duration",
    "write_csv",
]
