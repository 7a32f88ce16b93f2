"""Tests for the event-kernel hot-path rework.

Covers the PR-2 kernel overhaul: strict integral-time validation,
lazy cancellation with threshold-triggered heap compaction, the
event-reuse path, the kernel observability counters, and cross-PR
determinism against golden files produced by the pre-rework kernel.
"""

from __future__ import annotations

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from repro.server.configs import cpc1a
from repro.server.experiment import ExperimentResult, run_experiment
from repro.server.stats import MachineStats
from repro.server.ticks import OsTimerTicks
from repro.sim.engine import COMPACTION_MIN_CANCELLED, SimulationError
from repro.sim.timers import PeriodicTimer, RestartableTimeout
from repro.sweep import SweepSession, SweepSpec, memcached_points
from repro.units import MS
from repro.workloads.base import OpenLoopArrivals
from repro.workloads.memcached import MemcachedWorkload

DATA_DIR = Path(__file__).parent / "data"


class TestIntegralTimes:
    def test_schedule_rejects_fractional_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(2.7, lambda: None)  # repro-lint: ignore[RPR002]

    def test_schedule_at_rejects_fractional_time(self, sim):
        with pytest.raises(SimulationError, match=r"whole nanoseconds, got 10\.5"):
            sim.schedule_at(10.5, lambda: None)  # repro-lint: ignore[RPR002]

    def test_schedule_rejects_non_numeric(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule("10", lambda: None)

    def test_integral_float_is_accepted_and_coerced(self, sim):
        fired = []
        event = sim.schedule(2.0, fired.append, True)  # repro-lint: ignore[RPR002]
        assert event.time == 2 and type(event.time) is int
        sim.run()
        assert fired == [True]

    def test_numpy_integer_is_accepted(self, sim):
        fired = []
        sim.schedule(np.int64(5), fired.append, True)
        sim.run()
        assert fired == [True] and sim.now == 5

    def test_timers_reject_fractional(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 10.5, lambda: None)  # repro-lint: ignore[RPR002]
        with pytest.raises(ValueError):
            RestartableTimeout(sim, 3.25, lambda: None)  # repro-lint: ignore[RPR002]

    def test_run_until_rejects_fractional(self, sim):
        with pytest.raises(SimulationError):
            sim.run(until_ns=99.5)


class TestLazyCancellationAndCompaction:
    def test_mass_cancellation_triggers_compaction(self, sim):
        total = 4 * COMPACTION_MIN_CANCELLED
        events = [sim.schedule(i + 1, lambda: None) for i in range(total)]
        survivors = events[::4]
        for event in events:
            if event not in survivors:
                event.cancel()
        assert sim.heap_compactions >= 1
        # Compaction purged the dead majority from the heap.
        assert sim.heap_size < total
        assert sim.cancelled_ratio < 0.5

    def test_survivors_fire_in_order_after_compaction(self, sim):
        total = 4 * COMPACTION_MIN_CANCELLED
        fired = []
        events = [sim.schedule(i + 1, fired.append, i) for i in range(total)]
        keep = {i for i in range(0, total, 3)}
        for i, event in enumerate(events):
            if i not in keep:
                event.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == sorted(keep)
        assert sim.heap_size == 0
        assert sim.cancelled_ratio == 0.0

    def test_cancelled_ratio_reflects_dead_entries(self, sim):
        events = [sim.schedule(i + 1, lambda: None) for i in range(100)]
        for event in events[:50]:
            event.cancel()
        # Below the compaction floor: the dead entries stay, lazily.
        assert sim.heap_compactions == 0
        assert sim.heap_size == 100
        assert sim.cancelled_ratio == pytest.approx(0.5)
        sim.run()
        assert sim.heap_size == 0 and sim.cancelled_ratio == 0.0

    def test_peek_retires_cancelled_heads(self, sim):
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        first.cancel()
        assert sim.peek() == 20
        assert sim.heap_size == 1

    def test_counters_never_go_negative(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()  # double-cancel counts once
        assert sim.events_cancelled == 1
        sim.run()
        assert sim.cancelled_ratio == 0.0
        stats = sim.kernel_stats()
        assert stats["cancelled_in_heap"] == 0


class TestReschedule:
    def test_periodic_timer_reuses_one_event(self, sim):
        timer = PeriodicTimer(sim, 100, lambda: None)
        timer.start()
        sim.run(until_ns=10_000)
        assert timer.fire_count == 100
        # One fresh allocation at start(); every later tick recycled it.
        assert sim.events_reused >= 99

    def test_reschedule_preserves_fn_and_args(self, sim):
        log = []
        event = sim.schedule(5, log.append, "x")
        sim.run()
        sim.reschedule(event, 7)
        assert event.pending and event.time == 12
        sim.run()
        assert log == ["x", "x"]

    def test_reschedule_of_queued_event_raises(self, sim):
        event = sim.schedule(5, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(event, 10)

    def test_rescheduled_event_ties_break_after_fresh_ones(self, sim):
        log = []
        recycled = sim.schedule(0, log.append, "recycled")
        sim.run()
        sim.reschedule(recycled, 10)
        sim.schedule(10, log.append, "fresh-after")
        sim.run()
        # The reschedule happened first, so it keeps insertion order.
        assert log == ["recycled", "recycled", "fresh-after"]

    def test_reschedule_rejects_fractional_delay(self, sim):
        event = sim.schedule(1, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(event, 1.5)  # repro-lint: ignore[RPR002]

    def test_arrival_stream_reuses_one_event(self, sim):
        arrivals = []
        OpenLoopArrivals(
            sim, arrivals.append, lambda rng: sim.now, lambda rng: 10, None
        )
        sim.run(until_ns=500)
        assert arrivals == list(range(10, 510, 10))
        # One fresh allocation at construction; every firing recycled it.
        assert sim.events_reused == 51


class TestOsTimerTicksLifecycle:
    def _ticks(self, apc_machine, hz=1_000):
        return OsTimerTicks(apc_machine.sim, apc_machine.cores, hz)

    def test_double_start_raises(self, apc_machine):
        ticks = self._ticks(apc_machine)
        ticks.start()
        with pytest.raises(SimulationError):
            ticks.start()

    def test_stop_clears_timers_and_allows_restart(self, apc_machine):
        ticks = self._ticks(apc_machine)
        ticks.start()
        assert ticks.started
        ticks.stop()
        assert not ticks.started
        ticks.start()  # must not raise after a stop
        ticks.stop()

    def test_stop_before_staggered_arm_prevents_all_ticks(self, apc_machine):
        ticks = self._ticks(apc_machine)
        ticks.start()
        ticks.stop()
        apc_machine.run_for(20 * MS)
        assert ticks.ticks_delivered == 0
        assert ticks.ticks_suppressed == 0

    def test_single_start_does_not_double_deliver(self, apc_machine):
        ticks = self._ticks(apc_machine, hz=1_000)
        ticks.start()
        apc_machine.run_for(20 * MS)
        # ~20 ticks per core over 20 ms at 1000 Hz (stagger eats <1 period).
        per_core = ticks.ticks_delivered / len(apc_machine.cores)
        assert 15 <= per_core <= 21


class TestKernelObservability:
    def test_experiment_result_carries_machine_stats(self):
        result = run_experiment(
            MemcachedWorkload(40_000), cpc1a(),
            duration_ns=4 * MS, warmup_ns=1 * MS, seed=2,
        )
        stats = result.kernel
        assert isinstance(stats, MachineStats)
        assert stats.events_processed > 0
        assert stats.events_scheduled >= stats.events_processed
        assert 0.0 < stats.reuse_fraction <= 1.0
        assert stats.peak_heap_size >= stats.heap_size

    def test_machine_stats_round_trips_through_store(self):
        result = run_experiment(
            MemcachedWorkload(40_000), cpc1a(),
            duration_ns=4 * MS, warmup_ns=1 * MS, seed=2,
        )
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert restored == result
        assert restored.kernel == result.kernel

    def test_pre_counter_records_load_with_kernel_none(self):
        result = run_experiment(
            MemcachedWorkload(40_000), cpc1a(),
            duration_ns=4 * MS, warmup_ns=1 * MS, seed=2,
        )
        legacy = result.as_dict()
        del legacy["kernel"]
        restored = ExperimentResult.from_dict(json.loads(json.dumps(legacy)))
        assert restored.kernel is None
        assert restored == result  # kernel is excluded from equality

    def test_meter_readout_matches_per_domain_sums(self, apc_machine):
        apc_machine.run_for(2 * MS)
        meter = apc_machine.meter
        readout = meter.readout()
        for domain in ("package", "dram"):
            assert readout[domain].energy_j == meter.energy_j(domain)
            assert readout[domain].power_w == meter.power_w(domain)

    def test_meter_as_arrays_is_consistent(self, apc_machine):
        apc_machine.run_for(1 * MS)
        arrays = apc_machine.meter.as_arrays("package")
        assert len(arrays["name"]) == len(apc_machine.meter.channels("package"))
        assert float(arrays["energy_j"].sum()) == pytest.approx(
            apc_machine.meter.energy_j("package")
        )


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        def measure():
            return run_experiment(
                MemcachedWorkload(40_000), cpc1a(),
                duration_ns=4 * MS, warmup_ns=1 * MS, seed=9,
            )

        a, b = measure(), measure()
        assert a == b
        dict_a, dict_b = a.as_dict(), b.as_dict()
        assert json.dumps(dict_a, sort_keys=True) == json.dumps(dict_b, sort_keys=True)

    @pytest.mark.slow
    def test_experiment_matches_pre_rework_golden(self):
        """Byte-identical observables vs. the pre-PR kernel.

        The golden file was produced by the kernel before this PR's
        hot-path rework; every shared field must match exactly — the
        rework must not change a single simulated observable.
        """
        result = run_experiment(
            MemcachedWorkload(40_000), cpc1a(),
            duration_ns=10 * MS, warmup_ns=2 * MS, seed=3,
        )
        current = json.loads(json.dumps(result.as_dict(), sort_keys=True))
        golden = json.loads((DATA_DIR / "golden_experiment.json").read_text())
        mismatched = [key for key in golden if current.get(key) != golden[key]]
        assert mismatched == []

    @pytest.mark.slow
    def test_fig7_smoke_sweep_matches_pre_rework_golden(self, tmp_path):
        """The fig7-shaped sweep CSV is byte-identical to pre-PR output."""
        spec = SweepSpec(
            workloads=memcached_points((0, 20_000)),
            configs=("Cshallow", "CPC1A"),
            seeds=(1,),
            duration_ns=10 * MS,
            warmup_ns=2 * MS,
        )
        out = tmp_path / "fig7_smoke.csv"
        with SweepSession(workers=1) as session:
            session.run(spec).write_csv(out)
        assert filecmp.cmp(out, DATA_DIR / "golden_fig7_smoke.csv", shallow=False)
