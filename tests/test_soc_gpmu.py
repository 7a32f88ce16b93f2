"""Tests for the firmware GPMU and its PC6 flow (paper Fig. 2)."""

import pytest

from repro.soc.package import PackageCState, StaticPc0Controller
from repro.units import MS, US


def settle_pc6(machine, ns=2 * MS):
    """Run long enough for the menu governor + GPMU to reach PC6."""
    machine.sim.run(until_ns=machine.sim.now + ns)


class TestPc6Entry:
    def test_idle_cdeep_machine_reaches_pc6(self, deep_machine):
        settle_pc6(deep_machine)
        assert deep_machine.package.package_state == PackageCState.PC6.value

    def test_links_in_l1_in_pc6(self, deep_machine):
        settle_pc6(deep_machine)
        for link in deep_machine.links:
            assert link.state == "L1", link.name

    def test_dram_in_self_refresh_in_pc6(self, deep_machine):
        settle_pc6(deep_machine)
        for mc in deep_machine.memory_controllers:
            assert mc.state == "self_refresh"

    def test_plls_off_in_pc6(self, deep_machine):
        settle_pc6(deep_machine)
        for pll in deep_machine.uncore_plls:
            assert not pll.powered, pll.name

    def test_clm_at_retention_in_pc6(self, deep_machine):
        settle_pc6(deep_machine)
        assert deep_machine.clm.at_retention
        assert deep_machine.clm.clock_tree.gated

    def test_entry_only_when_all_cores_cc6(self, deep_machine):
        machine = deep_machine
        # Keep one core busy past the others' CC6 entries.
        machine.cores[0].submit(3 * MS)
        settle_pc6(machine, 1 * MS)
        assert machine.package.package_state != PackageCState.PC6.value

    def test_power_in_pc6_matches_budget(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        machine.begin_measurement()
        settle_pc6(machine, 2 * MS)
        assert machine.meter.power_w("package") == pytest.approx(
            machine.budget.soc_power_w("PC6"), abs=0.3
        )
        assert machine.meter.power_w("dram") == pytest.approx(
            machine.budget.dram_power_w("PC6"), abs=0.1
        )


    def test_stage_waits_for_a_command_issued_after_a_synchronous_completion(
        self, deep_machine
    ):
        # MC0 already in self-refresh completes its command while the
        # stage is still issuing; the stage must still wait for MC1.
        machine = deep_machine
        for link in machine.links:
            link.enter_l1()
        mc0, mc1 = machine.memory_controllers
        mc0.enter_self_refresh()
        landed, ret_rose = [], []
        mc1.on_state_change(
            lambda state: state == "self_refresh" and landed.append(machine.sim.now)
        )
        machine.clm.ret.watch(
            lambda signal, old, new: new and ret_rose.append(machine.sim.now)
        )
        settle_pc6(machine)
        assert machine.gpmu.pc6_entries == 1
        step_ns = machine.gpmu.timings.firmware_step_ns
        assert ret_rose[0] - landed[0] == step_ns

class TestPc6Exit:
    def test_wakeup_signal_exits_pc6(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        machine.gpmu.wakeup.set(True)
        settle_pc6(machine, 200 * US)
        assert machine.gpmu.pc6_exits == 1

    def test_exit_takes_tens_of_microseconds(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        woken_at = []
        start = machine.sim.now
        machine.gpmu.request_wake(lambda: woken_at.append(machine.sim.now))
        settle_pc6(machine, 500 * US)
        assert woken_at
        exit_latency = woken_at[0] - start
        # Table 1: PC6 transition > 50 us; our exit alone is 30-60 us.
        assert 25 * US <= exit_latency <= 80 * US

    def test_exit_restores_everything(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        snapshot = {}

        def on_awake():
            # With no core interrupt the GPMU will descend again, so
            # capture component states at the instant the path opens.
            snapshot["plls"] = all(pll.locked for pll in machine.uncore_plls)
            snapshot["mcs"] = all(
                mc.state == "active" for mc in machine.memory_controllers
            )
            snapshot["links"] = all(link.state == "L0" for link in machine.links)
            snapshot["clm"] = machine.clm.available

        machine.gpmu.request_wake(on_awake)
        settle_pc6(machine, 500 * US)
        assert snapshot == {"plls": True, "mcs": True, "links": True, "clm": True}

    def test_link_traffic_wakes_pc6(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        machine.links[0].transfer(256)
        settle_pc6(machine, 500 * US)
        assert machine.gpmu.pc6_exits == 1

    def test_wake_during_entry_completes_then_reverses(self, deep_machine):
        machine = deep_machine
        # Let cores reach CC6 and the entry flow begin; then wake
        # mid-flow. The firmware finishes entry before exiting
        # (non-preemptive), so the request sees entry+exit latency.
        machine.sim.run(until_ns=machine.sim.now + 700 * US)
        woken_at = []
        machine.gpmu.request_wake(lambda: woken_at.append(machine.sim.now))
        settle_pc6(machine, 2 * MS)
        # Regardless of where the wake hit the flow, the path opened
        # (and the GPMU then correctly descended back into PC6).
        assert woken_at
        assert machine.gpmu.pc6_exits >= 1


class TestPc6Residency:
    def test_transition_time_is_accounted(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        machine.gpmu.wakeup.set(True)
        settle_pc6(machine, 2 * MS)
        res = machine.gpmu.residency
        assert res.residency_ns(PackageCState.TRANSITION.value) > 0
        assert res.residency_ns(PackageCState.PC2.value) > 0

    def test_entry_counter(self, deep_machine):
        machine = deep_machine
        settle_pc6(machine)
        assert machine.gpmu.pc6_entries == 1


class TestStaticController:
    def test_always_open(self, sim):
        controller = StaticPc0Controller(sim)
        assert controller.memory_path_open
        called = []
        controller.request_wake(lambda: called.append(sim.now))
        assert called == [0]  # synchronous

    def test_never_leaves_pc0(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=5 * MS)
        assert machine.package.residency.fraction(PackageCState.PC0.value) == 1.0
        for link in machine.links:
            assert link.state == "L0"
        for mc in machine.memory_controllers:
            assert mc.state == "active"
