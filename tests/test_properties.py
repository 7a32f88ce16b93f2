"""Property-based tests (hypothesis) on kernel and hardware invariants."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.signals import AndTree, Signal
from repro.power.fivr import Fivr
from repro.power.meter import PowerMeter
from repro.power.model import ResidencyWeightedModel
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Simulator
from repro.units import ns_to_s
from repro.workloads.arrivals import (
    ConvoyArrivals,
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
)

import numpy as np


class TestSimulatorProperties:
    @given(delays=st.lists(st.integers(min_value=0, max_value=10**9), max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40
        ),
        cut=st.integers(min_value=0, max_value=10**6),
    )
    def test_run_until_never_executes_future_events(self, delays, cut):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until_ns=cut)
        assert all(d <= cut for d in fired)
        assert sim.now == cut

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=30), st.data())
    def test_cancellation_subset_fires(self, delays, data):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, lambda d=d: fired.append(d)) for d in delays]
        to_cancel = data.draw(st.sets(
            st.integers(min_value=0, max_value=max(len(events) - 1, 0)),
            max_size=len(events),
        )) if events else set()
        for index in to_cancel:
            events[index].cancel()
        sim.run()
        assert len(fired) == len(events) - len(to_cancel)


class TestSignalProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=32), st.data())
    def test_and_tree_always_equals_python_all(self, initial, data):
        inputs = [Signal(f"i{k}", value=v) for k, v in enumerate(initial)]
        tree = AndTree("t", inputs)
        flips = data.draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(inputs) - 1),
                st.booleans(),
            ),
            max_size=64,
        ))
        for index, value in flips:
            inputs[index].set(value)
            assert tree.value == all(s.value for s in inputs)

    @given(st.lists(st.booleans(), max_size=64))
    def test_transition_count_equals_actual_changes(self, values):
        signal = Signal("s", value=False)
        edges = []
        signal.watch(lambda sig, old, new: edges.append(new))
        previous, changes = False, 0
        for value in values:
            signal.set(value)
            if value != previous:
                changes += 1
            previous = value
        assert len(edges) == changes


class TestFivrProperties:
    @given(
        commands=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),  # inter-command gap
                st.floats(min_value=0.4, max_value=1.0),  # target voltage
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(deadline=None)
    def test_voltage_slew_never_exceeded(self, commands):
        sim = Simulator()
        fivr = Fivr(sim, "v", nominal_v=1.0, retention_v=0.4)
        observations = []

        def observe():
            observations.append((sim.now, fivr.voltage))
            if sim.peek() is not None:
                sim.schedule(7, observe)

        sim.schedule(1, observe)
        for gap, target in commands:
            sim.schedule(gap, fivr.set_voltage, round(target, 3))
        sim.run()
        for (t0, v0), (t1, v1) in zip(observations, observations[1:]):
            if t1 == t0:
                continue
            slew = abs(v1 - v0) / (t1 - t0)
            assert slew <= fivr.slew_v_per_ns * 1.001

    @given(
        targets=st.lists(
            st.floats(min_value=0.4, max_value=1.0), min_size=1, max_size=10
        )
    )
    @settings(deadline=None)
    def test_fivr_always_settles_at_last_target(self, targets):
        sim = Simulator()
        fivr = Fivr(sim, "v", nominal_v=1.0, retention_v=0.4)
        for i, target in enumerate(targets):
            sim.schedule(i * 13, fivr.set_voltage, round(target, 3))
        sim.run()
        assert fivr.voltage == pytest.approx(round(targets[-1], 3))
        assert fivr.pwr_ok.value


class TestResidencyProperties:
    @given(
        moves=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**6),
                st.sampled_from(["CC0", "CC1", "CC6"]),
            ),
            max_size=40,
        )
    )
    def test_residency_partitions_time_exactly(self, moves):
        sim = Simulator()
        counter = ResidencyCounter(sim, "CC0")
        t = 0
        for gap, state in moves:
            t += gap
            sim.schedule_at(t, counter.enter, state)
        sim.run(until_ns=t + 1000)
        total = sum(counter.residency_ns(s) for s in ("CC0", "CC1", "CC6"))
        assert total == counter.total_ns()

    @given(
        powers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**6),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_energy_equals_manual_integration(self, powers):
        sim = Simulator()
        meter = PowerMeter(sim)
        channel = meter.channel("c", "package", power_w=0.0)
        t = 0
        timeline = [(0, 0.0)]
        for gap, watts in powers:
            t += gap
            sim.schedule_at(t, channel.set_power, watts)
            timeline.append((t, watts))
        end = t + 500
        sim.run(until_ns=end)
        expected = 0.0
        for (t0, w), (t1, _) in zip(timeline, timeline[1:]):
            expected += w * ns_to_s(t1 - t0)
        expected += timeline[-1][1] * ns_to_s(end - timeline[-1][0])
        assert channel.energy_j == pytest.approx(expected, rel=1e-9, abs=1e-15)


class TestModelProperties:
    @given(
        r=st.floats(min_value=0.0, max_value=1.0),
        p_active=st.floats(min_value=50.0, max_value=120.0),
    )
    def test_eq1_savings_bounded(self, r, p_active):
        model = ResidencyWeightedModel(p_pc0_w=p_active)
        savings = model.savings(r)
        assert 0.0 <= savings.savings_fraction <= 1.0
        assert savings.baseline_power_w >= savings.pc1a_system_power_w

    @given(r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0))
    def test_eq1_monotone(self, r1, r2):
        model = ResidencyWeightedModel()
        lo, hi = min(r1, r2), max(r1, r2)
        assert (
            model.savings(lo).savings_fraction
            <= model.savings(hi).savings_fraction + 1e-12
        )


class TestArrivalProperties:
    @given(
        rate=st.floats(min_value=100.0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=30)
    def test_poisson_gaps_positive(self, rate, seed):
        rng = np.random.default_rng(seed)
        process = PoissonArrivals(rate)
        assert all(process.next_gap_ns(rng) >= 1 for _ in range(100))

    @given(
        shape=st.floats(min_value=0.2, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(deadline=None, max_examples=30)
    def test_gamma_gaps_positive(self, shape, seed):
        rng = np.random.default_rng(seed)
        process = GammaArrivals(10_000, shape)
        assert all(process.next_gap_ns(rng) >= 1 for _ in range(100))

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(deadline=None, max_examples=20)
    def test_mmpp_gaps_positive_and_finite(self, seed):
        rng = np.random.default_rng(seed)
        process = MMPPArrivals((50_000, 1_000), (100_000, 400_000))
        gaps = [process.next_gap_ns(rng) for _ in range(200)]
        assert all(1 <= g < 10**12 for g in gaps)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(deadline=None, max_examples=20)
    def test_convoy_arrivals_monotone(self, seed):
        rng = np.random.default_rng(seed)
        process = ConvoyArrivals(1_000_000, 5.0, 400_000)
        t, times = 0, []
        for _ in range(200):
            t += process.next_gap_ns(rng)
            times.append(t)
        assert times == sorted(times)
