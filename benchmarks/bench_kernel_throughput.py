"""Micro-benchmarks of the simulation substrate itself.

Not a paper figure: these keep the simulator's own performance
observable under pytest-benchmark (``pytest
benchmarks/bench_kernel_throughput.py -o python_files='bench_*.py' -o
python_functions='bench_*'``). End-to-end speed is the repo
benchmark's job (``perfbench/``, A/B-gated by ``benchmarks/ab.py``).

The kernel scenarios (documented in benchmarks/README.md):

* ``pure_kernel`` — a self-rescheduling event chain: pure
  schedule/pop/dispatch cost, nothing else.
* ``timer_churn`` — 16 cores' worth of 1000 Hz periodic scheduler
  ticks (the ``OsTimerTicks`` hot case): exercises the event-reuse
  path periodic timers ride on.
* ``rearm_churn`` — restartable idle-window timers re-armed before
  they expire (NIC/governor pattern): exercises lazy cancellation
  and threshold-triggered heap compaction.

``bench_machine_simulation_rate`` runs a complete CPC1A server under
memcached load: end-to-end events/sec including all machine models.
"""

from __future__ import annotations

from _common import save_report
from repro.server.configs import cpc1a
from repro.server.experiment import run_experiment
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, RestartableTimeout
from repro.units import MS, S
from repro.workloads.memcached import MemcachedWorkload


# -- scenarios --------------------------------------------------------------
def scenario_pure_kernel(n_events: int = 100_000) -> int:
    """A self-rescheduling chain: bare kernel schedule/pop/dispatch."""
    sim = Simulator()
    remaining = [n_events]
    schedule = sim.schedule

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            schedule(10, tick)

    schedule(10, tick)
    sim.run()
    assert sim.events_processed == n_events
    return sim.events_processed


def scenario_timer_churn(
    n_cores: int = 16, tick_hz: int = 1000, sim_time_ns: int = 2 * S
) -> int:
    """Per-core periodic ticks: the OsTimerTicks ``periodic`` hot case."""
    sim = Simulator()
    period_ns = S // tick_hz
    timers = [PeriodicTimer(sim, period_ns, lambda: None) for _ in range(n_cores)]
    for timer in timers:
        timer.start()
    sim.run(until_ns=sim_time_ns)
    expected = n_cores * (sim_time_ns // period_ns)
    assert sim.events_processed >= expected
    return sim.events_processed


def scenario_rearm_churn(n_timers: int = 16, restarts: int = 4_000) -> int:
    """Idle-window timers re-armed before expiry (NIC/governor pattern).

    Every restart cancels the armed countdown, so the heap fills with
    dead entries; throughput here tracks the lazy-deletion bookkeeping
    and compaction cost, not just dispatch.
    """
    sim = Simulator()
    timeouts = [
        RestartableTimeout(sim, 1_000_000, lambda: None) for _ in range(n_timers)
    ]
    remaining = [restarts]

    def restart_all() -> None:
        for timeout in timeouts:
            timeout.restart()
        remaining[0] -= 1
        if remaining[0] > 0:
            # Re-arm faster than the window so every restart cancels.
            sim.schedule(100_000, restart_all)

    sim.schedule(0, restart_all)
    sim.run()
    return sim.events_processed + sim.events_cancelled


# -- pytest-benchmark entry points ------------------------------------------
def bench_event_kernel_100k_events(benchmark):
    assert benchmark(scenario_pure_kernel, 100_000) == 100_000


def bench_timer_churn_16cores_1000hz(benchmark):
    assert benchmark(scenario_timer_churn) >= 32_000


def bench_rearm_churn_lazy_cancellation(benchmark):
    assert benchmark(scenario_rearm_churn) > 0


def bench_machine_simulation_rate(benchmark):
    def run_machine():
        return run_experiment(
            MemcachedWorkload(50_000),
            cpc1a(),
            duration_ns=20 * MS,
            warmup_ns=5 * MS,
            seed=6,
        )

    result = benchmark.pedantic(run_machine, rounds=3, iterations=1)
    assert result.requests_completed > 500
    kernel = result.kernel
    save_report(
        "kernel_throughput",
        f"full CPC1A machine at 50K QPS: {result.requests_completed} requests "
        f"in {result.duration_ns / MS:.0f} ms simulated time\n"
        f"kernel: {kernel.events_processed} events processed, "
        f"{kernel.events_reused} reused ({kernel.reuse_fraction:.0%}), "
        f"{kernel.events_cancelled} cancelled, "
        f"{kernel.heap_compactions} compactions, "
        f"peak heap {kernel.peak_heap_size}",
    )
