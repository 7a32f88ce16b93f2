"""Tests for the discrete-event simulator kernel."""

import pytest

from repro.sim import Simulator, SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_events_fire_in_time_order(self, sim):
        log = []
        sim.schedule(30, log.append, "c")
        sim.schedule(10, log.append, "a")
        sim.schedule(20, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(5, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(123, lambda: None)
        sim.run()
        assert sim.now == 123

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(77, fired.append, True)
        sim.run()
        assert fired and sim.now == 77

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="at t=50 before now=100"):
            sim.schedule_at(50, lambda: None)

    def test_callback_args_passed_through(self, sim):
        seen = []
        sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_events_scheduled_during_run_fire(self, sim):
        log = []

        def chain():
            log.append(sim.now)
            if sim.now < 50:
                sim.schedule(10, chain)

        sim.schedule(10, chain)
        sim.run()
        assert log == [10, 20, 30, 40, 50]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule(5, lambda: None)
        sim.run()
        event.cancel()  # must not raise
        assert event.fired

    def test_pending_property_lifecycle(self, sim):
        event = sim.schedule(5, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending

    def test_cancelled_event_not_pending(self, sim):
        event = sim.schedule(5, lambda: None)
        event.cancel()
        assert not event.pending


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        log = []
        sim.schedule(10, log.append, "early")
        sim.schedule(100, log.append, "late")
        sim.run(until_ns=50)
        assert log == ["early"]
        assert sim.now == 50

    def test_run_until_fires_event_at_boundary(self, sim):
        log = []
        sim.schedule(50, log.append, "edge")
        sim.run(until_ns=50)
        assert log == ["edge"]

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        sim.run(until_ns=1_000)
        assert sim.now == 1_000

    def test_run_until_past_rejected(self, sim):
        sim.run(until_ns=100)
        with pytest.raises(SimulationError):
            sim.run(until_ns=50)

    def test_run_resumes_after_until(self, sim):
        log = []
        sim.schedule(100, log.append, "late")
        sim.run(until_ns=50)
        sim.run()
        assert log == ["late"]

    def test_unbounded_run_ends_at_the_horizon(self, sim):
        sim.horizon_ns = 500
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 500
        sim.schedule(200, lambda: None)  # a later event governs
        sim.run()
        assert sim.now == 700

    def test_bounded_run_and_reset_ignore_the_horizon(self, sim):
        sim.horizon_ns = 500
        sim.run(until_ns=100)
        assert sim.now == 100
        sim.reset()
        sim.run()
        assert sim.now == 0

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run(until_ns=sim.now + 10)

        sim.schedule(1, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestIntrospection:
    def test_peek_returns_next_event_time(self, sim):
        sim.schedule(40, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.peek() == 20

    def test_peek_skips_cancelled(self, sim):
        event = sim.schedule(20, lambda: None)
        sim.schedule(40, lambda: None)
        event.cancel()
        assert sim.peek() == 40

    def test_peek_empty_queue(self, sim):
        assert sim.peek() is None

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_step_returns_false_when_drained(self, sim):
        assert sim.step() is False

    def test_step_executes_single_event(self, sim):
        log = []
        sim.schedule(10, log.append, "a")
        sim.schedule(20, log.append, "b")
        assert sim.step() is True
        assert log == ["a"]

    def test_step_bound_retires_cancelled_and_keeps_later_events(self, sim):
        log = []
        sim.schedule(10, log.append, "dead").cancel()
        sim.schedule(30, log.append, "live")
        assert sim.step(20) is False
        assert sim.now == 0 and log == []
        stats = sim.kernel_stats()
        assert stats["heap_size"] == 1 and stats["cancelled_in_heap"] == 0
        assert sim.step(30) is True
        assert log == ["live"] and sim.now == 30


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=5)
        b = Simulator(seed=5)
        assert [a.rng.random() for _ in range(10)] == [
            b.rng.random() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = Simulator(seed=1), Simulator(seed=2)
        assert a.rng.random() != b.rng.random()
