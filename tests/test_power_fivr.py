"""Tests for the FIVR / MBVR voltage regulator models."""

import pytest

from repro.power.budgets import DEFAULT_BUDGET
from repro.power.fivr import (
    Fivr,
    Mbvr,
    VID_STEP_V,
    VrError,
    vid_to_voltage,
    voltage_to_vid,
)
from repro.soc.clm import ClmDomain


class TestVidCoding:
    def test_roundtrip(self):
        for voltage in (0.5, 0.8, 1.0):
            assert vid_to_voltage(voltage_to_vid(voltage)) == pytest.approx(
                voltage, abs=VID_STEP_V / 2
            )

    def test_vid_range_enforced(self):
        with pytest.raises(VrError):
            vid_to_voltage(256)
        with pytest.raises(VrError):
            voltage_to_vid(5.0)


class TestFivrRamps:
    def test_paper_retention_ramp_is_150ns(self, sim):
        fivr = Fivr(sim, "clm")
        assert fivr.enter_retention() == 150
        sim.run()
        assert fivr.voltage == pytest.approx(0.5)

    def test_exit_retention_is_150ns(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        sim.run()
        assert fivr.exit_retention() == 150
        sim.run()
        assert fivr.voltage == pytest.approx(0.8)

    def test_pwr_ok_deasserts_during_ramp(self, sim):
        fivr = Fivr(sim, "clm")
        assert fivr.pwr_ok.value
        fivr.enter_retention()
        assert not fivr.pwr_ok.value
        sim.run()
        assert fivr.pwr_ok.value

    def test_mid_ramp_voltage_estimate(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        sim.run(until_ns=75)  # halfway through the 150 ns ramp
        assert fivr.voltage == pytest.approx(0.65, abs=0.005)

    def test_ramping_flag(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        assert fivr.ramping
        sim.run()
        assert not fivr.ramping

    def test_set_same_voltage_is_instant(self, sim):
        seen = []
        fivr = Fivr(sim, "clm", on_voltage_change=seen.append)
        assert fivr.set_voltage(0.8) == 0
        assert fivr.pwr_ok.value
        assert seen == []

    def test_ramp_count_increments(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        sim.run()
        fivr.exit_retention()
        sim.run()
        assert fivr.ramp_count == 2


class TestPreemptiveCommands:
    """Paper Sec. 5.5 footnote 11: a new VID interrupts the ramp."""

    def test_preempt_mid_ramp_starts_from_current_voltage(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()  # heading to 0.5 V
        sim.run(until_ns=75)  # now at ~0.65 V
        ramp = fivr.exit_retention()  # preempt: back to 0.8 V
        # Only ~150 mV to climb: ~75 ns, not a full 150 ns.
        assert ramp == pytest.approx(75, abs=2)
        sim.run()
        assert fivr.voltage == pytest.approx(0.8)

    def test_fast_exit_after_immediate_entry(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        sim.run(until_ns=10)  # barely started (0.78 V)
        ramp = fivr.exit_retention()
        assert ramp <= 25
        sim.run()
        assert fivr.pwr_ok.value
        assert fivr.voltage == pytest.approx(0.8)

    def test_voltage_never_overshoots(self, sim):
        fivr = Fivr(sim, "clm")
        fivr.enter_retention()
        sim.run(until_ns=40)
        fivr.exit_retention()
        sim.run(until_ns=41)
        assert 0.5 <= fivr.voltage <= 0.8

    def test_cancelled_ramp_reports_settled_voltage(self, sim):
        seen = []
        fivr = Fivr(sim, "clm", on_voltage_change=seen.append)
        fivr.enter_retention()  # reports the ramp start, 0.8 V
        fivr.exit_retention()  # same instant: lands on 0.8 V, no ramp
        assert not fivr.ramping
        assert seen == [pytest.approx(0.8), pytest.approx(0.8)]

    def test_clm_ret_pulse_restores_nominal_power(self, sim, meter):
        spec = DEFAULT_BUDGET.clm
        clm = ClmDomain(sim, spec, meter.channel("clm", "package"))
        clm.ret.set(True)
        clm.ret.set(False)  # one timestamp: both ramps cancelled at 0.8 V
        assert clm.channel.power_w == pytest.approx(spec.nominal_w)
        sim.run(until_ns=1_000)
        assert clm.channel.energy_j == pytest.approx(spec.nominal_w * 1e-6)

    def test_clm_draws_match_the_interpolation(self, sim, meter):
        # The draws read off precomputed values equal what for_voltage
        # gives at each step: both full ramps, both settles, and a ramp
        # preempted mid-way (which interpolates from where it stopped).
        spec = DEFAULT_BUDGET.clm
        clm = ClmDomain(sim, spec, meter.channel("clm", "package"))
        f = spec.for_voltage
        nominal_v, retention_v = 0.8, clm.fivrs[0].retention_v
        steps = []

        def record():
            steps.append(clm.channel.power_w)

        sim.schedule_at(0, clm.ret.set, True)
        sim.schedule_at(0, record)  # full ramp down
        sim.schedule_at(200, record)  # settled at retention
        sim.schedule_at(300, clm.ret.set, False)
        sim.schedule_at(300, record)  # full ramp up
        sim.schedule_at(500, record)  # settled at nominal
        sim.schedule_at(600, clm.ret.set, True)
        sim.schedule_at(650, clm.ret.set, False)  # preempted at 0.7 V
        sim.schedule_at(650, record)
        sim.run(until_ns=1_000)
        assert steps == [
            (f(nominal_v) + f(retention_v)) / 2.0,
            f(retention_v),
            (f(retention_v) + f(nominal_v)) / 2.0,
            f(nominal_v),
            (f(0.8 - 0.002 * 50) + f(nominal_v)) / 2.0,
        ]
        assert clm.channel.power_w == f(nominal_v)


class TestFollowerFivr:
    """Vccclm1 follows Vccclm0: one command and one ramp event move both."""

    def pair(self, sim):
        leader = Fivr(sim, "Vccclm0")
        return leader, Fivr(sim, "Vccclm1", follows=leader)

    def test_a_leader_command_ramps_both_with_one_event(self, sim):
        leader, follower = self.pair(sim)
        assert leader.enter_retention() == 150
        assert follower.ramping and follower.target_v == pytest.approx(0.5)
        assert sim.heap_size == 1  # the leader's settle only
        sim.run(until_ns=75)
        assert follower.voltage == pytest.approx(leader.voltage)
        sim.run(until_ns=150)
        assert not follower.ramping and follower.pwr_ok.value
        assert follower.voltage == pytest.approx(0.5)
        assert sim.events_processed == 1
        assert follower.ramp_count == leader.ramp_count == 1

    def test_follower_pwr_ok_moves_right_after_its_leaders(self, sim):
        leader, follower = self.pair(sim)
        order = []
        for fivr in (leader, follower):
            fivr.pwr_ok.watch(lambda signal, old, new: order.append(signal.name))
        leader.enter_retention()
        sim.run()
        # Both fall on the command, then rise, leader first each time.
        assert order == ["Vccclm0.PwrOk", "Vccclm1.PwrOk"] * 2

    def test_preempted_pair_settles_together_at_the_new_level(self, sim):
        leader, follower = self.pair(sim)
        leader.enter_retention()
        sim.run(until_ns=50)
        assert leader.exit_retention() == 50
        sim.run()
        assert sim.now == 100
        assert follower.voltage == pytest.approx(0.8) and not follower.ramping

    def test_cancelled_ramp_leaves_both_at_the_level(self, sim):
        leader, follower = self.pair(sim)
        leader.enter_retention()
        leader.exit_retention()  # same instant: no ramp at all
        assert not follower.ramping and follower.pwr_ok.value
        assert follower.voltage == pytest.approx(0.8)

    def test_follower_takes_no_command_of_its_own(self, sim):
        _, follower = self.pair(sim)
        with pytest.raises(VrError):
            follower.enter_retention()

    def test_one_follower_per_leader_at_the_leaders_levels(self, sim):
        leader, _ = self.pair(sim)
        with pytest.raises(VrError):
            Fivr(sim, "third", follows=leader)
        with pytest.raises(VrError):
            Fivr(sim, "fast", slew_v_per_ns=0.004, follows=Fivr(sim, "lead"))
        with pytest.raises(VrError):
            Fivr(sim, "low", retention_v=0.6, follows=Fivr(sim, "lead2"))

    def test_clm_ret_ramps_both_rails_with_one_event(self, sim, meter):
        clm = ClmDomain(sim, DEFAULT_BUDGET.clm, meter.channel("clm", "package"))
        clm.ret.set(True)
        assert sim.heap_size == 1
        sim.run(until_ns=149)
        assert not clm.pwr_ok.value
        sim.run(until_ns=150)
        assert clm.pwr_ok.value and clm.at_retention
        assert clm.channel.power_w == pytest.approx(DEFAULT_BUDGET.clm.retention_w)


class TestFivrValidation:
    def test_retention_above_nominal_rejected(self, sim):
        with pytest.raises(VrError):
            Fivr(sim, "bad", nominal_v=0.5, retention_v=0.8)

    def test_non_positive_voltage_rejected(self, sim):
        with pytest.raises(VrError):
            Fivr(sim, "bad", nominal_v=0.0)
        fivr = Fivr(sim, "ok")
        with pytest.raises(VrError):
            fivr.set_voltage(0.0)

    def test_voltage_change_callback_fires(self, sim):
        seen = []
        fivr = Fivr(sim, "clm", on_voltage_change=seen.append)
        fivr.enter_retention()
        sim.run()
        assert seen[0] == pytest.approx(0.8)  # ramp start
        assert seen[-1] == pytest.approx(0.5)  # settle

    def test_rvid_register_is_8bit(self, sim):
        fivr = Fivr(sim, "clm", retention_v=0.5)
        assert 0 <= fivr.rvid <= 255
        assert fivr.retention_v == pytest.approx(0.5)
        # Decoded once, when the FIVR is built: the register's value.
        assert fivr.retention_v == vid_to_voltage(fivr.rvid)


class TestMbvr:
    def test_fixed_voltage(self):
        assert Mbvr("Vccio", 0.95).voltage == pytest.approx(0.95)

    def test_cannot_change_voltage(self):
        with pytest.raises(VrError):
            Mbvr("Vccio", 0.95).set_voltage(0.5)

    def test_rejects_non_positive(self):
        with pytest.raises(VrError):
            Mbvr("bad", 0.0)
