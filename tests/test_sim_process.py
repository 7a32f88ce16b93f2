"""Tests for generator-based processes and timers."""

import pytest

from repro.sim import Delay, Interrupt, Process, WaitEvent
from repro.sim.engine import SimulationError
from repro.sim.timers import PeriodicTimer, RestartableTimeout


class TestDelay:
    def test_delay_advances_time(self, sim):
        log = []

        def proc():
            yield Delay(25)
            log.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert log == [25]

    def test_sequential_delays_accumulate(self, sim):
        log = []

        def proc():
            for _ in range(3):
                yield Delay(10)
                log.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert log == [10, 20, 30]

    def test_zero_delay_resumes_same_timestamp(self, sim):
        log = []

        def proc():
            yield Delay(0)
            log.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert log == [0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_result_captured_on_return(self, sim):
        def proc():
            yield Delay(1)
            return "answer"

        process = Process(sim, proc())
        sim.run()
        assert process.finished
        assert process.result == "answer"


class TestWaitEvent:
    def test_process_blocks_until_trigger(self, sim):
        gate = WaitEvent()
        log = []

        def waiter():
            yield gate
            log.append(sim.now)

        Process(sim, waiter())
        sim.schedule(40, gate.trigger)
        sim.run()
        assert log == [40]

    def test_trigger_value_passed_to_process(self, sim):
        gate = WaitEvent()
        got = []

        def waiter():
            value = yield gate
            got.append(value)

        Process(sim, waiter())
        sim.schedule(5, gate.trigger, "payload")
        sim.run()
        assert got == ["payload"]

    def test_pre_triggered_event_resumes_immediately(self, sim):
        gate = WaitEvent()
        gate.trigger("early")
        got = []

        def waiter():
            got.append((yield gate))

        Process(sim, waiter())
        sim.run()
        assert got == ["early"]

    def test_double_trigger_keeps_first_value(self, sim):
        gate = WaitEvent()
        gate.trigger("first")
        gate.trigger("second")
        assert gate.value == "first"

    def test_multiple_waiters_all_wake(self, sim):
        gate = WaitEvent()
        woken = []

        def waiter(tag):
            yield gate
            woken.append(tag)

        Process(sim, waiter("a"))
        Process(sim, waiter("b"))
        sim.schedule(3, gate.trigger)
        sim.run()
        assert sorted(woken) == ["a", "b"]


class TestInterrupt:
    def test_interrupt_thrown_into_process(self, sim):
        log = []

        def proc():
            try:
                yield Delay(1_000)
            except Interrupt as exc:
                log.append(exc.cause)

        process = Process(sim, proc())
        sim.schedule(10, process.interrupt, "wakeup")
        sim.run()
        assert log == ["wakeup"]
        assert sim.now < 1_000

    def test_interrupt_after_finish_is_noop(self, sim):
        def proc():
            yield Delay(1)

        process = Process(sim, proc())
        sim.run()
        process.interrupt()  # must not raise
        assert process.finished


class TestBadCommands:
    def test_unknown_yield_raises(self, sim):
        def proc():
            yield "not-a-command"

        Process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestPeriodicTimer:
    def test_fires_every_period(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until_ns=350)
        assert ticks == [100, 200, 300]

    def test_stop_halts_firing(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(250, timer.stop)
        sim.run(until_ns=1_000)
        assert ticks == [100, 200]

    def test_restart_resets_countdown(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(50, timer.start)  # restart mid-countdown
        sim.run(until_ns=200)
        assert ticks == [150]

    def test_rejects_non_positive_period(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0, lambda: None)

    def test_fire_count(self, sim):
        timer = PeriodicTimer(sim, 10, lambda: None)
        timer.start()
        sim.run(until_ns=55)
        assert timer.fire_count == 5


class TestRestartableTimeout:
    def test_fires_after_duration(self, sim):
        fired = []
        timeout = RestartableTimeout(sim, 64, lambda: fired.append(sim.now))
        timeout.restart()
        sim.run()
        assert fired == [64]

    def test_restart_extends_deadline(self, sim):
        fired = []
        timeout = RestartableTimeout(sim, 64, lambda: fired.append(sim.now))
        timeout.restart()
        sim.schedule(32, timeout.restart)
        sim.run()
        assert fired == [96]

    @pytest.mark.parametrize(("from_ns", "fires_at"), [(100, 164), (5, 74)])
    def test_countdown_starts_at_from_ns_or_now(self, sim, from_ns, fires_at):
        fired = []
        timeout = RestartableTimeout(sim, 64, lambda: fired.append(sim.now))
        sim.schedule(10, timeout.restart, from_ns)
        sim.run()
        assert fired == [fires_at]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timeout = RestartableTimeout(sim, 64, lambda: fired.append(sim.now))
        timeout.restart()
        sim.schedule(10, timeout.cancel)
        sim.run(until_ns=500)
        assert fired == []

    def test_armed_reflects_state(self, sim):
        timeout = RestartableTimeout(sim, 64, lambda: None)
        assert not timeout.armed
        timeout.restart()
        assert timeout.armed
        sim.run()
        assert not timeout.armed
