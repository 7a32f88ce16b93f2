"""Tests for power channels, the meter and residency counters."""

import pytest

from repro.power.budgets import (
    ClmPowerSpec,
    CorePowerSpec,
    DramPowerSpec,
    LinkPowerSpec,
    MemoryControllerPowerSpec,
)
from repro.power.residency import ResidencyCounter
from repro.tracing.events import TransitionTrace
from repro.units import S


class TestPowerChannel:
    def test_energy_integrates_constant_power(self, sim, meter):
        ch = meter.channel("c", "package", power_w=10.0)
        sim.run(until_ns=S)
        assert ch.energy_j == pytest.approx(10.0)

    def test_energy_integrates_piecewise(self, sim, meter):
        ch = meter.channel("c", "package", power_w=10.0)
        sim.schedule(S // 2, ch.set_power, 20.0)
        sim.run(until_ns=S)
        assert ch.energy_j == pytest.approx(5.0 + 10.0)

    def test_set_power_same_value_is_exact(self, sim, meter):
        ch = meter.channel("c", "package", power_w=5.0)
        for i in range(10):
            sim.schedule(i * 1000, ch.set_power, 5.0)
        sim.run(until_ns=10_000)
        assert ch.energy_j == pytest.approx(5.0 * 10_000 / S)

    def test_negative_power_rejected(self):
        # A negative draw fails where the spec is defined, not at the
        # first transition into the state that reads it.
        bad = [
            lambda: CorePowerSpec(cc1_w=-1.0),
            lambda: CorePowerSpec(transition_w=-0.1),
            lambda: LinkPowerSpec(kind="pcie", l0_w=1.3, shallow_w=-0.5, l1_w=0.2),
            lambda: MemoryControllerPowerSpec(cke_off_w=-1.25),
            lambda: DramPowerSpec(self_refresh_w=-0.25),
            lambda: DramPowerSpec(access_energy_j_per_byte=-1e-12),
            lambda: ClmPowerSpec(retention_w=-3.0),
        ]
        for make in bad:
            with pytest.raises(ValueError, match="must be non-negative"):
                make()

    def test_negative_initial_power_rejected(self, sim, meter):
        with pytest.raises(ValueError):
            meter.channel("c", "package", power_w=-0.1)

    def test_add_energy_discrete_events(self, sim, meter):
        ch = meter.channel("c", "dram", power_w=0.0)
        ch.add_energy(0.25)
        ch.add_energy(0.75)
        assert ch.energy_j == pytest.approx(1.0)

    def test_add_negative_energy_rejected(self, sim, meter):
        ch = meter.channel("c", "dram")
        with pytest.raises(ValueError):
            ch.add_energy(-1e-9)

    def test_reset_zeroes_energy(self, sim, meter):
        ch = meter.channel("c", "package", power_w=10.0)
        sim.run(until_ns=1_000_000)
        ch.reset()
        assert ch.energy_j == 0.0
        sim.run(until_ns=2_000_000)
        assert ch.energy_j == pytest.approx(10.0 * 1e-3)  # 10 W for 1 ms


class TestPowerMeter:
    def test_duplicate_channel_rejected(self, meter):
        meter.channel("c", "package")
        with pytest.raises(ValueError):
            meter.channel("c", "dram")

    def test_duplicate_error_names_the_channel_and_the_fix(self, meter):
        meter.channel("core0", "package")
        with pytest.raises(ValueError, match="duplicate power channel 'core0'"):
            meter.channel("core0", "package")
        with pytest.raises(ValueError, match="channel_prefix"):
            meter.channel("core0", "package")

    def test_prefixed_channels_coexist_on_one_meter(self, meter):
        a = meter.channel("s00.core0", "s00.package", power_w=1.0)
        b = meter.channel("s01.core0", "s01.package", power_w=2.0)
        assert a is not b
        assert meter.power_w("s00.package") == pytest.approx(1.0)
        assert meter.power_w("s01.package") == pytest.approx(2.0)

    def test_domain_filtering(self, sim, meter):
        meter.channel("a", "package", power_w=10.0)
        meter.channel("b", "dram", power_w=2.0)
        assert meter.power_w("package") == pytest.approx(10.0)
        assert meter.power_w("dram") == pytest.approx(2.0)
        assert meter.power_w() == pytest.approx(12.0)

    def test_energy_by_domain(self, sim, meter):
        meter.channel("a", "package", power_w=10.0)
        meter.channel("b", "dram", power_w=2.0)
        sim.run(until_ns=S)
        assert meter.energy_j("package") == pytest.approx(10.0)
        assert meter.energy_j("dram") == pytest.approx(2.0)

    def test_average_power(self, sim, meter):
        meter.channel("a", "package", power_w=4.0)
        sim.run(until_ns=S // 4)
        assert meter.average_power_w("package", S // 4) == pytest.approx(4.0)

    def test_average_power_rejects_bad_window(self, meter):
        with pytest.raises(ValueError):
            meter.average_power_w("package", 0)

    def test_reset_all_channels(self, sim, meter):
        meter.channel("a", "package", power_w=10.0)
        meter.channel("b", "dram", power_w=2.0)
        sim.run(until_ns=S)
        meter.reset()
        assert meter.energy_j() == 0.0

    def test_contains_and_getitem(self, meter):
        ch = meter.channel("a", "package")
        assert "a" in meter
        assert meter["a"] is ch
        assert "zzz" not in meter


class TestResidencyCounter:
    def test_initial_state_accumulates(self, sim):
        counter = ResidencyCounter(sim, "CC0")
        sim.run(until_ns=100)
        assert counter.residency_ns("CC0") == 100

    def test_enter_splits_time(self, sim):
        counter = ResidencyCounter(sim, "CC0")
        sim.schedule(40, counter.enter, "CC1")
        sim.run(until_ns=100)
        assert counter.residency_ns("CC0") == 40
        assert counter.residency_ns("CC1") == 60

    def test_fractions_sum_to_one(self, sim):
        counter = ResidencyCounter(sim, "A")
        sim.schedule(30, counter.enter, "B")
        sim.schedule(70, counter.enter, "C")
        sim.run(until_ns=200)
        fractions = counter.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["A"] == pytest.approx(0.15)

    def test_reentering_same_state_is_noop(self, sim, meter):
        channel = meter.channel("c", "package", power_w=2.0)
        counter = ResidencyCounter(sim, "A", channel)
        sim.schedule(10, counter.enter, "A", 7.0)
        sim.run(until_ns=100)
        assert counter.fractions() == {"A": 1.0}
        assert channel.power_w == 2.0
        assert channel.energy_j == pytest.approx(2.0 * 100 / S)

    def test_transition_counting(self, sim):
        # The counter keeps no transition counts; a trace on its
        # ``enter`` records each change.
        counter = ResidencyCounter(sim, "A")
        trace = TransitionTrace(sim)
        trace.attach("e", counter)
        for t, state in ((10, "B"), (20, "A"), (30, "B"), (40, "B")):
            sim.schedule(t, counter.enter, state)
        sim.run(until_ns=50)
        moves = [(e.from_state, e.to_state) for e in trace.events]
        assert moves == [("A", "B"), ("B", "A"), ("A", "B")]
        assert counter.residency_ns("A") == 20
        assert counter.residency_ns("B") == 30

    def test_enter_sets_the_channel_draw(self, sim, meter):
        channel = meter.channel("c", "package", power_w=1.0)
        counter = ResidencyCounter(sim, "A", channel)
        sim.schedule(100, counter.enter, "B", 3.0)
        sim.schedule(300, counter.enter, "C")  # state only: the draw holds
        sim.run(until_ns=400)
        assert channel.power_w == 3.0
        assert channel.energy_j == pytest.approx((1.0 * 100 + 3.0 * 300) / S)
        assert counter.residency_ns("C") == 100

    def test_one_enter_matches_enter_then_set_power(self, sim, meter):
        # Float-identical to the two-call sequence it replaced: a meter
        # readout between two changes moves the channel's checkpoint but
        # not the counter's, and two changes land at one timestamp.
        one = meter.channel("one", "package", power_w=2.42)
        two = meter.channel("two", "package", power_w=2.42)
        counter = ResidencyCounter(sim, "active", one)
        reference = ResidencyCounter(sim, "active")

        def change(state, power_w):
            counter.enter(state, power_w)
            reference.enter(state)
            two.set_power(power_w)

        steps = [
            (7, "cke_off", 1.25),
            (7, "active", 2.42),  # same timestamp
            (1_003, "cke_off", 1.25),
            (2_999, "self_refresh", 0.7),
            (52_001, "active", 13.4 / 3),
        ]
        sim.schedule_at(1_500, meter.readout)  # between two changes
        sim.schedule_at(2_999, meter.readout)  # at a change, just before it
        for t, state, power_w in steps:
            sim.schedule_at(t, change, state, power_w)
        sim.run(until_ns=90_017)
        assert one.energy_j == two.energy_j
        assert one.power_w == two.power_w
        for state in ("active", "cke_off", "self_refresh"):
            assert counter.residency_ns(state) == reference.residency_ns(state)

    def test_reset_starts_new_window(self, sim):
        counter = ResidencyCounter(sim, "A")
        sim.run(until_ns=100)
        counter.reset()
        sim.schedule_at(150, counter.enter, "B")
        sim.run(until_ns=200)
        assert counter.total_ns() == 100
        assert counter.residency_ns("A") == 50
        assert counter.residency_ns("B") == 50
        assert counter.fractions() == {"A": 0.5, "B": 0.5}

    def test_empty_window_fraction_zero(self, sim):
        counter = ResidencyCounter(sim, "A")
        assert counter.fraction("A") == 0.0
        assert counter.fractions() == {}
