"""Sweep-orchestration throughput: a short-cell grid through a warm session.

The kernel bench (``bench_kernel_throughput.py``) times one
simulation; this bench times how fast the *sweep layer* turns a grid
of short cells into results, serial and on a parallel
:class:`SweepSession` (warm pool, warm worker machines, batched
unordered dispatch), under pytest-benchmark. End-to-end sweep speed is
the repo benchmark's ``sweep_short_cells`` workload (``perfbench/``,
A/B-gated by ``benchmarks/ab.py``).

The grid is 3 configs x 4 rates x 3 seeds at 50 ms windows: short
cells by construction, because that is where orchestration overhead
shows.
"""

from __future__ import annotations

from repro.sweep import SweepSession, SweepSpec, WorkloadPoint
from repro.units import MS

#: The parallel bench's pool size.
WORKERS = 4

#: The grid: 3 configs x 4 rates x 3 seeds, 50 ms windows. Rates are
#: low on purpose — cells must be short for the sweep layer (not the
#: kernel) to be the measured quantity.
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


# -- pytest-benchmark entry points ------------------------------------------
def bench_sweep_session_parallel(benchmark):
    cells = grid_cells()
    with SweepSession(workers=WORKERS) as session:
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
