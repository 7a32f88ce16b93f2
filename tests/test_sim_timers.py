"""Tests for the kernel's timers."""

import pytest

from repro.sim.timers import PeriodicTimer, RestartableTimeout


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
