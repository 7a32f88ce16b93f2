"""Tests for the CPU core model and idle governors."""

import pytest

from repro.power.budgets import CorePowerSpec
from repro.power.meter import PowerMeter
from repro.soc.cpu import Core, CoreError
from repro.soc.cstates import CC1, CC1E, CC6
from repro.soc.governors import (
    GovernorError,
    MenuGovernor,
    ShallowGovernor,
    governor_for,
)
from repro.soc.package import StaticPc0Controller
from repro.units import MS, US


def make_core(sim, governor=None, spec=None):
    meter = PowerMeter(sim)
    return Core(
        sim,
        0,
        spec or CorePowerSpec(),
        governor or ShallowGovernor(),
        meter.channel("core0", "package"),
        StaticPc0Controller(sim),
    ), meter


class TestCoreIdleEntry:
    def test_fresh_core_settles_into_cc1(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=10 * US)
        assert core.mode == "idle"
        assert core.cstate is CC1
        assert core.in_cc1.value

    def test_in_cc1_asserted_only_after_entry_completes(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=100)  # CC1 entry takes 200 ns
        assert not core.in_cc1.value
        sim.run(until_ns=300)
        assert core.in_cc1.value

    def test_idle_power_matches_spec(self, sim):
        core, meter = make_core(sim)
        sim.run(until_ns=10 * US)
        assert meter["core0"].power_w == pytest.approx(CorePowerSpec().cc1_w)

    def test_cc6_sets_in_cc6_and_in_cc1(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC6))
        core, _ = make_core(sim, governor)
        sim.run(until_ns=100 * US)
        assert core.cstate is CC6
        assert core.in_cc6.value
        assert core.in_cc1.value  # "CC1 or deeper"


class TestCoreExecution:
    def test_job_runs_for_service_time(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=10 * US)  # settle into CC1
        done = []
        core.submit(5 * US, lambda _: done.append(sim.now))
        sim.run()
        # Wake (CC1 exit 2 us) + service 5 us from submission at 10 us.
        assert done == [10 * US + CC1.exit_ns + 5 * US]

    def test_queue_drains_fifo(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=10 * US)
        order = []
        for tag in ("a", "b", "c"):
            core.submit(1 * US, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_busy_core_accepts_work_without_wake(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=10 * US)
        core.submit(5 * US)
        sim.run(until_ns=11 * US)
        wakes_before = core.wake_count
        core.submit(1 * US)
        sim.run()
        assert core.wake_count == wakes_before  # no extra wake needed

    def test_submit_during_entry_defers_wake(self, sim):
        core, _ = make_core(sim)
        # CC1 entry starts at t=0 and takes 200 ns; submit at 100 ns.
        done = []
        sim.schedule(100, core.submit, 1 * US, lambda _: done.append(sim.now))
        sim.run()
        # Entry completes at 200, wake 2 us, service 1 us.
        assert done == [200 + CC1.exit_ns + 1 * US]

    def test_jobs_completed_counter(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=US)
        for _ in range(4):
            core.submit(1000)
        sim.run()
        assert core.jobs_completed == 4

    def test_job_validation(self, sim):
        core, _ = make_core(sim)
        with pytest.raises(CoreError):
            core.submit(0)

    def test_busy_property(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=US)
        assert not core.busy
        core.submit(10 * US)
        sim.run(until_ns=3 * US)
        assert core.busy

    def test_residency_attributes_wake_to_cc0(self, sim):
        core, _ = make_core(sim)
        sim.run(until_ns=10 * US)
        core.residency.reset()
        core.submit(5 * US)
        sim.run(until_ns=20 * US)
        cc0 = core.residency.residency_ns("CC0")
        # Wake (2 us) + service (5 us) counted as CC0.
        assert cc0 == pytest.approx(CC1.exit_ns + 5 * US, abs=300)


class TestShallowGovernor:
    def test_always_picks_cc1(self, sim):
        governor = ShallowGovernor()
        core, _ = make_core(sim, governor)
        sim.run(until_ns=US)
        assert governor.select(core) is CC1

    def test_requires_an_idle_state(self):
        with pytest.raises(GovernorError):
            ShallowGovernor(enabled_states=())


class TestMenuGovernor:
    def test_optimistic_first_prediction_picks_deepest(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC1E, CC6))
        core, _ = make_core(sim, governor)
        assert governor.select(core) is CC6

    def test_short_history_drops_to_shallow(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC1E, CC6))
        core, _ = make_core(sim, governor)
        for _ in range(8):
            governor.observe_idle(core, 5 * US)  # short idles
        assert governor.select(core) is CC1

    def test_medium_history_picks_cc1e(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC1E, CC6))
        core, _ = make_core(sim, governor)
        for _ in range(8):
            governor.observe_idle(core, 100 * US)
        assert governor.select(core) is CC1E

    def test_long_history_picks_cc6(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC1E, CC6))
        core, _ = make_core(sim, governor)
        for _ in range(8):
            governor.observe_idle(core, 2 * MS)
        assert governor.select(core) is CC6

    def test_history_window_slides(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC6), history=4)
        core, _ = make_core(sim, governor)
        for _ in range(4):
            governor.observe_idle(core, 10 * MS)
        for _ in range(4):
            governor.observe_idle(core, 5 * US)
        assert governor.select(core) is CC1  # old long idles forgotten

    def test_prediction_is_average(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC6))
        core, _ = make_core(sim, governor)
        governor.observe_idle(core, 100 * US)
        governor.observe_idle(core, 300 * US)
        assert governor.predict_ns(core) == 200 * US

    def test_per_core_history_is_independent(self, sim):
        governor = MenuGovernor(enabled_states=(CC1, CC6))
        core_a, _ = make_core(sim, governor)
        meter_b = PowerMeter(sim)
        core_b = Core(
            sim,
            1,
            CorePowerSpec(),
            governor,
            meter_b.channel("core1", "package"),
            StaticPc0Controller(sim),
        )
        governor.observe_idle(core_a, 5 * US)
        assert governor.predict_ns(core_b) == governor.initial_prediction_ns

    def test_factory(self):
        assert isinstance(governor_for("shallow", (CC1,)), ShallowGovernor)
        assert isinstance(governor_for("menu", (CC1, CC6)), MenuGovernor)
        with pytest.raises(GovernorError):
            governor_for("ondemand", (CC1,))

    def test_history_validation(self):
        with pytest.raises(GovernorError):
            MenuGovernor(history=0)
