"""Persistent sweep execution sessions.

PR 1 gave sweeps a worker pool; PR 3 multiplied the number of cells a
run sweeps. At that scale the orchestration loop itself becomes the
bottleneck for short cells: a cold ``multiprocessing.Pool`` per
``run()`` call, a fresh :class:`~repro.server.machine.ServerMachine`
object graph per cell, and chunksize-1 ordered ``imap`` dispatch all
charge fixed costs that rival the simulation time of an idle cell.

:class:`SweepSession` owns those fixed costs once:

* a **persistent supervised worker fleet**
  (:class:`~repro.sweep.supervisor.SweepSupervisor`), created lazily
  and reused across ``run()`` calls (and across benchmark invocations
  through ``benchmarks/_common.py``); the supervisor tracks the
  in-flight cell per worker PID, so worker death, stuck cells, and
  transient cell failures are retried under the session's
  :class:`~repro.sweep.supervisor.CellPolicy` and — past the retry
  budget — quarantined, letting the sweep degrade gracefully to
  completion instead of aborting (see ``docs/robustness.md``).
  ``workers=1`` runs cells in-process instead, charging failures to
  the same :class:`~repro.sweep.supervisor.RetryLedger`, so both
  paths retry, quarantine and count identically;
* **warm runtimes** — each worker keeps one runtime per cell
  warm-slot and recycles it (``ServerMachine.recycle`` /
  ``FleetMachine.recycle``) instead of rebuilding the component graph
  per cell — whole fleets included, so a 1,000-server cluster is
  restored rather than reconstructed; recycled runs are
  byte-identical to fresh builds (pinned by the recycle-vs-fresh
  golden tests), and cells whose state cannot be checkpointed fall
  back to fresh builds automatically;
* **unordered dispatch** — cells ship to whichever worker frees up;
  the deterministic cell order of the returned :class:`SweepResults`
  is reconstructed from cache keys, so results stay bit-identical to
  serial runs (retried cells re-simulate deterministically, so even a
  chaos-ridden run converges to the same bytes);
* **streaming** — store records are written as results arrive (by the
  worker itself for disk stores, so cached results never cross the
  IPC boundary), and the optional ``on_result`` callback sees
  finished cells in deterministic cell order without waiting for the
  whole grid.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter, process_time, sleep
from typing import Callable, Sequence

from repro.cell import run_cell
from repro.server.experiment import ExperimentResult
from repro.server.recycle import CheckpointError
from repro.sweep import chaos
from repro.sweep.aggregate import CellAggregate, aggregate_over_seeds
from repro.sweep.spec import ExperimentSpec, SweepSpec
from repro.sweep.store import ResultStore, write_csv
from repro.sweep.supervisor import (
    KIND_ERROR,
    CellPolicy,
    QuarantinedCell,
    QuarantineExhausted,
    RetryLedger,
    SweepSupervisor,
    zero_fault_stats,
)


class SweepCellError(RuntimeError):
    """A sweep cell failed; the message names the offending cell.

    Raised in place of the worker's bare exception so a failure deep
    inside a pool names its config/scenario/rate/seed instead of only
    a traceback from an anonymous process.
    """


def default_workers() -> int:
    """Worker count honouring the ``REPRO_SWEEP_WORKERS`` override.

    Like the CLI's ``--workers``, a value of 0 (or unset) means one
    worker per core.
    """
    override = os.environ.get("REPRO_SWEEP_WORKERS")
    if override:
        try:
            count = int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be an integer, got {override!r}"
            ) from None
        if count < 0:
            raise ValueError(f"REPRO_SWEEP_WORKERS must be >= 0, got {count}")
        if count > 0:
            return count
    return max(1, os.cpu_count() or 1)


class SweepResults:
    """Ordered results of one sweep run, with cell-wise lookup.

    ``cells`` and ``results`` are aligned and cover the cells that
    *completed*; cells that exhausted their retry budget under the
    session's :class:`~repro.sweep.supervisor.CellPolicy` appear on
    ``quarantined`` (as
    :class:`~repro.sweep.supervisor.QuarantinedCell` records, with
    their label and per-attempt failure history) instead.
    """

    def __init__(
        self,
        cells: Sequence[ExperimentSpec],
        results: Sequence[ExperimentResult],
        cache_hits: int = 0,
        quarantined: Sequence | None = None,
    ):
        self.cells = list(cells)
        self.results = list(results)
        self.cache_hits = cache_hits
        self.quarantined = list(quarantined) if quarantined is not None else []

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, **criteria) -> list[ExperimentResult]:
        """Results whose cell matches every criterion.

        Criteria name cell fields — :class:`ExperimentSpec` fields for
        ordinary sweeps (e.g. ``select(config="CPC1A", qps=4000)``),
        fleet-cell fields (``routing``, ``n_servers``) for fleet runs.
        """
        cell_type = type(self.cells[0]) if self.cells else ExperimentSpec
        fields = getattr(
            cell_type, "__dataclass_fields__", ExperimentSpec.__dataclass_fields__
        )
        unknown = [name for name in criteria if name not in fields]
        if unknown:
            raise TypeError(
                f"unknown selection criteria {unknown}; "
                f"cells have {sorted(fields)}"
            )
        matches = []
        for cell, result in zip(self.cells, self.results):
            if all(getattr(cell, name) == value for name, value in criteria.items()):
                matches.append(result)
        return matches

    def one(self, **criteria) -> ExperimentResult:
        """The unique result matching the criteria (raises otherwise)."""
        matches = self.select(**criteria)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one cell matching {criteria}, "
                f"found {len(matches)}"
            )
        return matches[0]

    def aggregate(self) -> list[CellAggregate]:
        """Per-seed aggregation (mean/CI) of every grid cell."""
        return aggregate_over_seeds(self.results, cells=self.cells)

    def write_csv(self, path, columns: tuple[str, ...] | None = None) -> int:
        """Write every cell as a CSV row (spec labels included)."""
        return write_csv(path, self.results, columns=columns, cells=self.cells)


# -- per-process worker state -------------------------------------------------
#: One warm runtime per cell warm-slot (``None`` marks a slot whose
#: state cannot be checkpointed: build fresh every time). A slot is
#: whatever :meth:`repro.cell.Cell.warm_slot` returns — (config name,
#: property overrides) for single-machine cells, a ``"fleet"``-tagged
#: server lineup for fleet cells — so two cells sharing a base config
#: but differing in overrides are different runtimes. Lives at module
#: level so both pool workers and the in-process serial path amortize
#: construction the same way.
_MACHINES: dict[tuple, object | None] = {}

#: Warm *fleet* runtimes pinned at once. One fleet holds N full
#: machine graphs, so the open-ended per-config policy that is right
#: for single machines would hoard memory here; the oldest warm fleet
#: is evicted once the cap is reached (non-recyclable verdicts are
#: just markers and don't count).
_FLEET_SLOTS_MAX = 2


def _is_fleet_slot(slot: tuple) -> bool:
    return bool(slot) and slot[0] == "fleet"

#: Worker-side handles on disk stores, keyed by root path.
_STORES: dict[str, ResultStore] = {}


def _worker_store(root: str) -> ResultStore:
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = ResultStore(root)
    return store


def _runtime_for(spec):
    """A runtime for ``spec``: recycled when possible, else fresh.

    Works for any :class:`repro.cell.Cell` — the cell supplies its
    construction (``build``), its warm-cache key (``warm_slot``) and
    its restore step (``recycle``); this function only owns the cache
    policy.
    """
    slot = spec.warm_slot()
    if slot in _MACHINES:
        runtime = _MACHINES[slot]
        if runtime is None:  # slot known to be non-recyclable
            return spec.build()
        spec.recycle(runtime)
        return runtime
    runtime = spec.build()
    try:
        runtime.checkpoint()
    except CheckpointError:
        # Remember only the verdict: keeping the runtime would pin a
        # full (and soon dirty) component graph per worker for nothing.
        _MACHINES[slot] = None
        return runtime
    if _is_fleet_slot(slot):
        warm_fleets = [
            s for s, r in _MACHINES.items()
            if _is_fleet_slot(s) and r is not None
        ]
        if len(warm_fleets) >= _FLEET_SLOTS_MAX:
            del _MACHINES[warm_fleets[0]]
    _MACHINES[slot] = runtime
    return runtime


def clear_warm_machines() -> None:
    """Drop this process's warm-machine cache (tests, memory pressure)."""
    _MACHINES.clear()


#: Task statuses: a worker either served the cell from its local disk
#: store ("hit", result stays on disk), simulated and persisted it
#: ("stored"), or simulated with no disk store in play ("fresh").
_HIT, _STORED, _FRESH = "hit", "stored", "fresh"


def _cell_task(payload, attempt: int = 1):
    """Worker task: run one cell; returns (key, status, result, timings).

    ``payload`` is ``(spec, store_root)``; ``attempt`` is the 1-based
    attempt number the supervisor is on (feeds the deterministic chaos
    rolls, so a cell that was killed on attempt 1 rolls fresh dice on
    attempt 2). With a disk store the worker short-circuits locally:
    if the record already exists (for example a concurrent sweep
    sharing the store produced it after this run's cache pre-pass),
    nothing is simulated and no result is shipped back — the parent
    re-reads it from disk. Freshly simulated results are persisted
    worker-side, streaming the store writes instead of funnelling them
    through the parent.
    """
    spec, store_root = payload
    try:
        key = spec.key()
        chaos.on_cell_start(key, attempt)
        store = None
        if store_root is not None:
            store = _worker_store(store_root)
            if key in store:
                return key, _HIT, None, 0.0, 0.0
        # CPU seconds, not wall: with more workers than cores the
        # wall clock charges descheduled time to whichever cell was
        # in flight, which would garble the build/simulate split.
        build_start = process_time()
        runtime = _runtime_for(spec)
        sim_start = process_time()
        result = run_cell(spec, runtime=runtime)
        done = process_time()
        if store is not None:
            store.put(key, result, spec=spec)
            return key, _STORED, result, sim_start - build_start, done - sim_start
        return key, _FRESH, result, sim_start - build_start, done - sim_start
    except SweepCellError:
        raise
    except Exception as error:
        raise SweepCellError(
            f"sweep cell {spec.label()} failed: "
            f"{type(error).__name__}: {error}"
        ) from error


class SweepSession:
    """A reusable sweep executor: one supervised fleet, many runs.

    Parameters
    ----------
    workers:
        Fleet size; ``None`` uses :func:`default_workers` (one per
        core, ``REPRO_SWEEP_WORKERS`` override). 1 runs serially
        in-process — with the same warm-machine reuse and the same
        retry ledger (minus deadlines: there is no second process to
        do the killing). Larger sessions supervise every run; only a
        lone pending cell under a policy without a deadline runs
        in-process.
    store:
        Default result store for runs that do not pass their own.
    policy:
        Retry/deadline/quarantine policy for cells
        (default :class:`CellPolicy`).
    """

    def __init__(self, workers: int | None = None, store=None,
                 policy: CellPolicy | None = None):
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store = store
        self.policy = policy if policy is not None else CellPolicy()
        self._supervisor: SweepSupervisor | None = None
        self._last_parallelism = 1
        self._closed = False
        #: Accounting for the most recent :meth:`run` (consumed by
        #: perfbench and ``--stats-json``): build/simulate split,
        #: dispatch counts, wall time, fault counters.
        self.last_run_stats: dict[str, float | int] = {}

    # -- lifecycle -------------------------------------------------------
    def _ensure_supervisor(self, n_pending: int) -> SweepSupervisor:
        """A supervisor sized for ``n_pending`` cells, spawned lazily.

        The fleet never exceeds the pending cell count — a
        mostly-cached sweep with two misses must not fork a per-core
        fleet for them. A persistent session whose later runs need
        more workers than an earlier small run used just grows the
        fleet: existing workers (and their warm machines) stay.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        size = min(self.workers, max(1, n_pending))
        if self._supervisor is None:
            self._supervisor = SweepSupervisor(
                size, _cell_task, policy=self.policy
            )
        else:
            self._supervisor.grow_to(size)
        return self._supervisor

    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def __enter__(self) -> "SweepSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- execution -------------------------------------------------------
    def run(
        self,
        spec: SweepSpec | Sequence[ExperimentSpec],
        store=None,
        progress: Callable[[ExperimentSpec], None] | None = None,
        on_result: (
            Callable[[ExperimentSpec, ExperimentResult, bool], None] | None
        ) = None,
        journal=None,
    ):
        """Run every cell; returns results in deterministic cell order.

        ``progress(spec)`` fires once per grid cell: cached and
        duplicate cells during the cache pre-pass, simulated (and
        quarantined) cells as they settle (arrival order) — so a
        progress display's count always reaches the grid size.
        ``on_result(spec, result, from_cache)`` fires in deterministic
        *cell* order, as early as each prefix completes — the
        streaming hook store/CSV writers use so a huge grid never
        buffers in the consumer. Quarantined cells produce no
        ``on_result`` call and no row; they are listed on
        ``SweepResults.quarantined`` (and counted in
        ``last_run_stats``) instead.
        ``journal`` is an optional
        :class:`~repro.sweep.journal.RunJournal`: every completed cell
        key is appended (durably) as it settles, and cache hits that
        were already journaled before this run are surfaced as
        ``journal_skipped`` — the ``--resume`` accounting.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if store is None:
            store = self.store
        policy = self.policy
        cells = spec.cells() if isinstance(spec, SweepSpec) else list(spec)
        wall_start = perf_counter()
        journal_start = journal.completed if journal is not None else frozenset()
        journal_skipped = 0
        by_key: dict[str, ExperimentResult] = {}
        pending_by_key: dict[str, ExperimentSpec] = {}
        cache_hits = 0
        for cell in cells:
            key = cell.key()
            if key in by_key or key in pending_by_key:
                # Duplicate cell in the grid; counts toward progress
                # immediately so the display's total is reachable.
                if progress is not None:
                    progress(cell)
                continue
            cached = store.get(key) if store is not None else None
            if cached is not None:
                by_key[key] = cached
                cache_hits += 1
                if key in journal_start:
                    journal_skipped += 1
                if journal is not None:
                    journal.record(key, cell.label())
                if progress is not None:
                    progress(cell)
            else:
                pending_by_key[key] = cell
        pending = list(pending_by_key.values())
        quarantined: list[QuarantinedCell] = []
        quarantined_keys: set[str] = set()

        # Ordered streaming: flush the longest settled prefix of the
        # deterministic cell order to ``on_result`` after every arrival
        # (quarantined cells contribute no row and are skipped over).
        next_cell = 0

        def flush_ready() -> None:
            nonlocal next_cell
            if on_result is None:
                return
            while next_cell < len(cells):
                cell = cells[next_cell]
                key = cell.key()
                if key in quarantined_keys:
                    next_cell += 1
                    continue
                result = by_key.get(key)
                if result is None:
                    return
                on_result(cell, result, key not in pending_by_key)
                next_cell += 1

        flush_ready()
        build_s = 0.0
        simulate_s = 0.0
        worker_hits = 0
        simulated = 0
        self._last_parallelism = 1
        # One fault-counter dict per run, charged by both paths.
        ledger = RetryLedger(policy, zero_fault_stats())
        store_root = (str(store.root) if isinstance(store, ResultStore) else None)
        try:
            for tag, body in self._execute(
                pending, store_root, progress, pending_by_key, ledger
            ):
                if tag == "quarantined":
                    quarantined.append(body)
                    quarantined_keys.add(body.key)
                    flush_ready()
                    continue
                key, status, result, cell_build_s, cell_sim_s = body
                build_s += cell_build_s
                simulate_s += cell_sim_s
                if status == _HIT:
                    # Another process produced the record after our
                    # cache pre-pass; read it from disk rather than
                    # re-simulating (and rather than shipping it over
                    # IPC).
                    result = store.get(key)
                    if result is None:  # racing deletion/corruption
                        cell = pending_by_key[key]
                        tag, body = self._run_serial_cell(
                            cell, (cell, None), ledger
                        )
                        if tag == "quarantined":
                            quarantined.append(body)
                            quarantined_keys.add(key)
                            flush_ready()
                            continue
                        key, status, result, b, s = body
                        build_s += b
                        simulate_s += s
                    else:
                        worker_hits += 1
                if status != _HIT:
                    simulated += 1
                by_key[key] = result
                if store is not None and status == _FRESH:
                    store.put(key, result, spec=pending_by_key[key])
                if journal is not None:
                    journal.record(key, pending_by_key[key].label())
                flush_ready()
        except QuarantineExhausted as error:
            # The session-level contract for on_exhausted="raise" has
            # always been SweepCellError; keep it.
            raise SweepCellError(str(error)) from error
        completed_cells = (
            [c for c in cells if c.key() not in quarantined_keys]
            if quarantined_keys
            else cells
        )
        ordered = [by_key[cell.key()] for cell in completed_cells]
        self.last_run_stats = {
            "cells": len(cells),
            "unique_cells": len(by_key) + len(quarantined_keys),
            "cache_hits": cache_hits,
            "worker_store_hits": worker_hits,
            "dispatched": len(pending),
            "simulated": simulated,
            "journal_skipped": journal_skipped,
            # The parallelism actually used by this run (a persistent
            # fleet may be larger than a later, smaller run needed).
            "workers": self._last_parallelism,
            "build_s": build_s,
            "simulate_s": simulate_s,
            "wall_s": perf_counter() - wall_start,
            **ledger.stats,
        }
        return SweepResults(
            completed_cells,
            ordered,
            cache_hits=cache_hits,
            quarantined=quarantined,
        )

    def _run_serial_cell(self, cell, payload, ledger: RetryLedger):
        """Run one cell in-process, charging failures to ``ledger``.

        The serial half of the retry state machine (``workers=1``, and
        the parent-side re-simulation of a record lost after a worker
        store hit); no deadline applies — there is no second process
        to kill a stuck cell from.
        """
        attempt = 1
        while True:
            start = perf_counter()
            try:
                return "done", _cell_task(payload, attempt)
            except Exception as error:
                quarantined = ledger.fail(
                    cell.key(), cell.label(), attempt, KIND_ERROR,
                    f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
                    None, perf_counter() - start,
                )
            if quarantined is not None:
                return "quarantined", quarantined
            sleep(self.policy.backoff_for(attempt))
            attempt += 1

    def _execute(self, pending, store_root, progress, pending_by_key, ledger):
        """Yield ("done", task-tuple) / ("quarantined", cell) events."""
        if not pending:
            return
        payloads = [(cell, store_root) for cell in pending]
        # A lone cell skips the fleet, unless a deadline needs a
        # second process to enforce it.
        if self.workers == 1 or (
            len(pending) == 1 and self.policy.deadline_s is None
        ):
            for cell, payload in zip(pending, payloads):
                if progress is not None:
                    progress(cell)
                yield self._run_serial_cell(cell, payload, ledger)
            return
        supervisor = self._ensure_supervisor(len(pending))
        supervisor.stats = ledger.stats
        self._last_parallelism = min(supervisor.size, len(pending))
        items = [
            (cell.key(), cell.label(), payload)
            for cell, payload in zip(pending, payloads)
        ]
        for tag, body in supervisor.run(items):
            key = body.key if tag == "quarantined" else body[0]
            if progress is not None:
                progress(pending_by_key[key])
            yield tag, body
