"""Sweep-orchestration throughput: cells per second, end to end.

The kernel bench (``bench_kernel_throughput.py``) tracks how fast one
simulation runs; this bench tracks how fast the *sweep layer* turns a
grid of short cells into results — the regime the paper's figure
grids and the nightly matrix live in, where pool spin-up, per-cell
machine construction and IPC rival the simulation time itself.

Four scenarios, A/B-interleaved so CPU frequency drift cannot favour
either side (cells/sec is best-of):

* ``serial_legacy``    — the pre-session execution model, serial: a
  fresh :class:`ServerMachine` built for every cell.
* ``serial_session``   — ``SweepSession(workers=1)``: the same cells
  on one warm machine per config, recycled between cells.
* ``parallel_legacy``  — the pre-session parallel model: a cold
  ``multiprocessing.Pool`` per run, chunksize-1 ordered ``imap``,
  fresh machine per cell.
* ``parallel_session`` — a persistent :class:`SweepSession`: warm
  pool, warm worker machines, batched unordered dispatch.

The grid is the acceptance grid of the sweep-throughput work: 3
configs x 4 rates x 3 seeds at 50 ms windows — short cells by
construction, because that is where orchestration overhead shows.

Run modes (same contract as the kernel bench):

* under pytest(-benchmark) like every other bench;
* as a standalone script emitting the ``BENCH_sweep.json`` trajectory
  and optionally enforcing a regression gate::

      PYTHONPATH=src python benchmarks/bench_sweep_throughput.py \\
          --out results/BENCH_sweep.json \\
          --baseline results/BENCH_sweep.json --max-regression 0.30

The trajectory also records the machine-build vs simulate CPU split
and the dispatch overhead of the session runs, so cross-PR history
shows *where* sweep time goes, not just how much there is.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

from _common import (
    RESULTS_DIR,
    append_trajectory,
    check_rate_regression,
    last_comparable_run,
    load_trajectory,
)
from repro.api import run_cell
from repro.sweep import SweepSession, SweepSpec, WorkloadPoint
from repro.units import MS

#: Bump when scenario/grid definitions change incompatibly, so
#: trajectory entries from different definitions are never compared.
BENCH_SCHEMA = 1

#: A/B rounds; every scenario's cells/sec is best-of across rounds.
DEFAULT_REPEATS = 5

#: Parallel scenarios' pool size (the acceptance configuration).
DEFAULT_WORKERS = 4

#: The acceptance grid: 3 configs x 4 rates x 3 seeds, 50 ms windows.
#: Rates are low on purpose — cells must be short for the sweep layer
#: (not the kernel) to be the measured quantity.
GRID_RATES = (0, 25, 50, 100)
GRID_CONFIGS = ("Cshallow", "Cdeep", "CPC1A")
GRID_SEEDS = (1, 2, 3)


def grid_cells():
    """The benchmark grid as an explicit cell list."""
    points = tuple(
        WorkloadPoint("idle") if qps == 0
        else WorkloadPoint("memcached", qps=float(qps))
        for qps in GRID_RATES
    )
    spec = SweepSpec(
        points, configs=GRID_CONFIGS, seeds=GRID_SEEDS,
        duration_ns=50 * MS, warmup_ns=10 * MS,
    )
    return spec.cells()


# -- execution models --------------------------------------------------------
def run_serial_legacy(cells) -> float:
    """Pre-session serial model: fresh machine per cell."""
    start = time.perf_counter()
    for cell in cells:
        run_cell(cell)
    return time.perf_counter() - start


def run_parallel_legacy(cells, workers: int) -> float:
    """Pre-session parallel model: cold pool, chunksize-1 imap."""
    ctx = multiprocessing.get_context(
        "fork" if sys.platform.startswith("linux") else "spawn"
    )
    start = time.perf_counter()
    with ctx.Pool(processes=workers) as pool:
        for _result in pool.imap(run_cell, cells):
            pass
    return time.perf_counter() - start


def run_session(session: SweepSession, cells) -> float:
    """Session model: warm pool/machines, batched unordered dispatch."""
    start = time.perf_counter()
    session.run(cells)
    return time.perf_counter() - start


# -- suite ------------------------------------------------------------------
def run_suite(repeats: int = DEFAULT_REPEATS, workers: int = DEFAULT_WORKERS) -> dict:
    """Best-of-``repeats`` cells/sec for every scenario, interleaved."""
    cells = grid_cells()
    n = len(cells)
    scenarios: dict[str, dict] = {}
    session_split: dict[str, float] = {}

    def record(name: str, seconds: float) -> None:
        entry = scenarios.setdefault(
            name, {"cells": n, "seconds": seconds, "cells_per_sec": 0.0}
        )
        rate = n / seconds
        if rate > entry["cells_per_sec"]:
            entry.update(seconds=seconds, cells_per_sec=rate)

    with SweepSession(workers=1) as serial_session, \
            SweepSession(workers=workers) as parallel_session:
        # Untimed warm-up pass: fork the pools, build the warm
        # machines, let the interpreter specialize — both sides of
        # the A/B start from the same steady state.
        run_serial_legacy(cells[:3])
        serial_session.run(cells)
        parallel_session.run(cells)
        for _ in range(repeats):
            record("parallel_legacy", run_parallel_legacy(cells, workers))
            record("parallel_session", run_session(parallel_session, cells))
            record("serial_legacy", run_serial_legacy(cells))
            record("serial_session", run_session(serial_session, cells))
        stats = parallel_session.last_run_stats
        effective = min(workers, os.cpu_count() or 1)
        busy_s = stats["build_s"] + stats["simulate_s"]
        session_split = {
            "machine_build_s": round(stats["build_s"], 6),
            "simulate_s": round(stats["simulate_s"], 6),
            "wall_s": round(stats["wall_s"], 6),
            # Wall time not covered by worker CPU at the achievable
            # parallelism: dispatch, IPC and scheduling overhead.
            "dispatch_overhead_s": round(
                max(0.0, stats["wall_s"] - busy_s / effective), 6
            ),
            "workers": workers,
            "effective_parallelism": effective,
        }

    run = {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "workers": workers,
        "grid": {
            "configs": list(GRID_CONFIGS),
            "rates": list(GRID_RATES),
            "seeds": list(GRID_SEEDS),
            "duration_ms": 50,
            "cells": n,
        },
        "scenarios": scenarios,
        "session_split": session_split,
    }
    parallel = scenarios["parallel_session"]["cells_per_sec"]
    legacy = scenarios["parallel_legacy"]["cells_per_sec"]
    run["speedup_parallel_vs_legacy"] = round(parallel / legacy, 3)
    run["speedup_serial_vs_legacy"] = round(
        scenarios["serial_session"]["cells_per_sec"]
        / scenarios["serial_legacy"]["cells_per_sec"], 3,
    )
    return run


# -- trajectory + gate (shared plumbing in _common.py) -----------------------
def check_regression(
    run: dict,
    baseline_run: dict,
    max_regression: float,
    scenarios=("parallel_session",),
) -> list[str]:
    """Scenario names whose cells/sec fell more than the budget."""
    return check_rate_regression(
        run, baseline_run, max_regression, scenarios,
        rate_key="cells_per_sec", unit="cells/s",
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_sweep.json"),
        help="trajectory file to write (default: results/BENCH_sweep.json)",
    )
    parser.add_argument(
        "--label", default="local",
        help="label stored with this run (e.g. a PR number or git sha)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="A/B rounds per scenario (cells/sec is best-of)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="pool size for the parallel scenarios",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="existing BENCH_sweep.json to compare against "
             "(its newest schema-compatible run)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="fail if parallel-session cells/sec drops more than this fraction",
    )
    parser.add_argument(
        "--replace", action="store_true",
        help="overwrite --out instead of appending to its run history",
    )
    args = parser.parse_args(argv)

    baseline_run = None
    if args.baseline is not None:
        try:
            baseline = load_trajectory(args.baseline)
        except (OSError, ValueError) as error:
            # Missing, unreadable or non-trajectory JSON: one clean
            # line and a failing gate, not a traceback.
            print(f"ERROR baseline {args.baseline} is unusable: {error}")
            return 1
        baseline_run = last_comparable_run(baseline, BENCH_SCHEMA)
        if baseline_run is None:
            print(
                f"[no run with scenario schema {BENCH_SCHEMA} in "
                f"{args.baseline}; skipping the regression gate]"
            )

    run = run_suite(repeats=args.repeats, workers=args.workers)
    run["label"] = args.label
    for name, entry in sorted(run["scenarios"].items()):
        print(f"{name:>18}: {entry['cells_per_sec']:>9,.1f} cells/s")
    print(f"parallel session vs legacy: {run['speedup_parallel_vs_legacy']:.2f}x")
    print(f"  serial session vs legacy: {run['speedup_serial_vs_legacy']:.2f}x")
    split = run["session_split"]
    print(
        f"session split: build {split['machine_build_s'] * 1000:.1f} ms, "
        f"simulate {split['simulate_s'] * 1000:.1f} ms, "
        f"dispatch overhead {split['dispatch_overhead_s'] * 1000:.1f} ms "
        f"(wall {split['wall_s'] * 1000:.1f} ms)"
    )

    out = append_trajectory(args.out, run, BENCH_SCHEMA, replace=args.replace)
    print(f"[trajectory written to {out}]")

    if baseline_run is not None:
        failures = check_regression(run, baseline_run, args.max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}")
            return 1
        print(
            f"regression gate ok (parallel_session within "
            f"-{args.max_regression:.0%} of baseline)"
        )
    return 0


# -- pytest-benchmark entry points ------------------------------------------
def bench_sweep_session_parallel(benchmark):
    cells = grid_cells()
    with SweepSession(workers=DEFAULT_WORKERS) as session:
        session.run(cells)  # warm pool + machines

        def sweep():
            return session.run(cells)

        results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


def bench_sweep_session_serial(benchmark):
    cells = grid_cells()
    with SweepSession(workers=1) as session:
        session.run(cells)

        def sweep():
            return session.run(cells)

        results = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert len(results) == len(cells)


if __name__ == "__main__":
    raise SystemExit(main())
