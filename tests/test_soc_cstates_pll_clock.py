"""Tests for C-state specs, PLLs, clock trees and the SoC config."""

import pytest

from repro.soc.clock_tree import ClockTree
from repro.soc.config import SKX_CONFIG, SocConfig
from repro.soc.cstates import ALL_CSTATES, CC0, CC1, CC1E, CC6, cstate_by_name
from repro.soc.pll import Pll
from repro.units import US


class TestCStates:
    def test_depth_ordering(self):
        assert CC0 < CC1 < CC1E < CC6

    def test_deeper_states_have_longer_exits(self):
        exits = [s.exit_ns for s in ALL_CSTATES]
        assert exits == sorted(exits)

    def test_cc6_transition_is_133us(self):
        # Paper Sec. 3.1: "CC6 requires 133 µs transition time".
        assert CC6.transition_ns == pytest.approx(133 * US, rel=0.01)

    def test_cc6_does_not_retain_state(self):
        assert not CC6.retains_core_state
        assert CC1.retains_core_state

    def test_target_residency_grows_with_depth(self):
        residencies = [s.target_residency_ns for s in ALL_CSTATES]
        assert residencies == sorted(residencies)

    def test_lookup_by_name(self):
        assert cstate_by_name("CC6") is CC6
        with pytest.raises(KeyError):
            cstate_by_name("CC2")

    def test_str_is_name(self):
        assert str(CC1) == "CC1"


class TestPll:
    def test_starts_locked(self, sim, meter):
        pll = Pll(sim, "p", channel=meter.channel("p", "package"))
        assert pll.locked and pll.powered

    def test_power_off_loses_lock_and_power(self, sim, meter):
        ch = meter.channel("p", "package")
        pll = Pll(sim, "p", channel=ch)
        pll.power_off()
        assert not pll.locked
        assert ch.power_w == 0.0

    def test_relock_takes_microseconds(self, sim):
        pll = Pll(sim, "p")
        pll.power_off()
        locked_at = []
        assert pll.power_on(lambda: locked_at.append(sim.now)) == 5 * US
        assert not pll.locked
        sim.run()
        assert pll.locked
        assert locked_at == [5 * US]

    def test_power_on_when_locked_is_free(self, sim):
        pll = Pll(sim, "p")
        called = []
        assert pll.power_on(lambda: called.append(1)) == 0
        assert called == [1]

    def test_double_power_on_chains_callback(self, sim):
        pll = Pll(sim, "p")
        pll.power_off()
        pll.power_on()
        late = []
        remaining = pll.power_on(lambda: late.append(sim.now))
        assert remaining <= 5 * US
        sim.run()
        assert late == [5 * US]
        assert pll.relock_count == 1  # one physical relock

    def test_locked_power_is_7mw(self, sim, meter):
        ch = meter.channel("p", "package")
        Pll(sim, "p", channel=ch)
        assert ch.power_w == pytest.approx(0.007)

    def test_negative_relock_rejected(self, sim):
        with pytest.raises(ValueError):
            Pll(sim, "p", relock_ns=-1)


class TestClockTree:
    def test_gate_latency_is_cycles_times_period(self, sim):
        tree = ClockTree(sim, "clm", gate_cycles=3, cycle_ns=2)
        assert tree.gate_latency_ns == 6 and type(tree.gate_latency_ns) is int

    def test_gating_settles_after_latency(self, sim):
        tree = ClockTree(sim, "clm")
        tree.clk_gate.set(True)
        assert tree.running  # not yet settled
        sim.run()
        assert tree.gated

    def test_ungate_restores_clock(self, sim):
        tree = ClockTree(sim, "clm")
        tree.clk_gate.set(True)
        sim.run()
        tree.clk_gate.set(False)
        sim.run()
        assert tree.running

    def test_quick_toggle_does_not_stick_gated(self, sim):
        tree = ClockTree(sim, "clm")
        tree.clk_gate.set(True)
        tree.clk_gate.set(False)  # flipped back within the settle window
        sim.run()
        assert tree.running

    def test_gate_count(self, sim):
        tree = ClockTree(sim, "clm")
        for _ in range(3):
            tree.clk_gate.set(True)
            sim.run()
            tree.clk_gate.set(False)
            sim.run()
        assert tree.gate_count == 3

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ClockTree(sim, "bad", gate_cycles=0)
        with pytest.raises(ValueError):
            ClockTree(sim, "bad", cycle_ns=0)


class TestSocConfig:
    def test_skx_has_18_plls(self):
        # Paper Sec. 5.4: ~18 PLLs on the Xeon Silver 4114.
        assert SKX_CONFIG.pll_count == 18

    def test_skx_has_8_uncore_plls(self):
        assert SKX_CONFIG.uncore_pll_count == 8

    def test_skx_inventory(self):
        assert SKX_CONFIG.n_cores == 10
        assert SKX_CONFIG.n_links == 6
        assert SKX_CONFIG.n_mc == 2

    def test_pmu_runs_at_500mhz(self):
        assert SKX_CONFIG.pmu_cycle_ns == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SocConfig(n_cores=0)
        with pytest.raises(ValueError):
            SocConfig(pmu_cycle_ns=0)
