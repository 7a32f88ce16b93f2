"""Tests for the transition-trace recorder and UPI snoop traffic."""

import pytest

from _machines import build_machine
from repro.power.residency import ResidencyCounter
from repro.tracing.events import TransitionTrace
from repro.units import MS, US
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.upi_traffic import CompositeWorkload, UpiSnoopTraffic


class TestTransitionTrace:
    def test_records_counter_transitions(self, sim):
        trace = TransitionTrace(sim)
        counter = ResidencyCounter(sim, "CC0")
        trace.attach("core0", counter)
        sim.schedule(10, counter.enter, "CC1")
        sim.schedule(30, counter.enter, "CC0")
        sim.run()
        assert len(trace) == 2
        first, second = trace.events
        assert (first.time_ns, first.from_state, first.to_state) == (10, "CC0", "CC1")
        assert (second.time_ns, second.to_state) == (30, "CC0")

    def test_records_every_transition_of_a_live_link_and_core(self):
        # The trace wraps the counter's ``enter``; every LTSSM and
        # C-state change of a running machine must pass through it.
        machine = build_machine("CPC1A", seed=5)
        sim = machine.sim
        MemcachedWorkload(20_000).start(sim, machine)
        sim.run(until_ns=1 * MS)
        link, core = machine.links[0], machine.cores[0]
        trace = TransitionTrace(sim)
        trace.attach("link", link.residency)
        trace.attach("core", core.residency)
        # Independent records: the LTSSM's transition listener and the
        # core's InCC1 wire (CPC1A cores idle in CC1 only).
        ltssm_moves = []
        sync_state = link.ltssm._on_transition

        def spy(state):
            ltssm_moves.append((sim.now, state))
            sync_state(state)

        link.ltssm._on_transition = spy
        core_moves = []

        def on_in_cc1(signal, old, new):
            core_moves.append((sim.now, "CC1" if new else "CC0"))

        core.in_cc1.watch(on_in_cc1)
        sim.run(until_ns=sim.now + 5 * MS)
        traced_link = [(e.time_ns, e.to_state) for e in trace.for_entity("link")]
        traced_core = [(e.time_ns, e.to_state) for e in trace.for_entity("core")]
        assert len(ltssm_moves) > 50 and len(core_moves) > 5
        assert traced_link == ltssm_moves
        assert traced_core == core_moves
        assert trace.dropped == 0

    def test_noop_enter_not_recorded(self, sim):
        trace = TransitionTrace(sim)
        counter = ResidencyCounter(sim, "CC0")
        trace.attach("core0", counter)
        counter.enter("CC0")
        assert len(trace) == 0

    def test_ring_drops_oldest(self, sim):
        trace = TransitionTrace(sim, capacity=3)
        for i in range(5):
            trace.record("x", f"s{i}", f"s{i + 1}")
        assert len(trace) == 3
        assert trace.dropped == 2
        assert trace.events[0].from_state == "s2"

    def test_entity_filter_and_window(self, sim):
        trace = TransitionTrace(sim)
        a, b = ResidencyCounter(sim, "A"), ResidencyCounter(sim, "A")
        trace.attach("first", a)
        trace.attach("second", b)
        sim.schedule(10, a.enter, "B")
        sim.schedule(20, b.enter, "B")
        sim.schedule(30, a.enter, "A")
        sim.run()
        assert len(trace.for_entity("first")) == 2
        assert len(trace.between(15, 25)) == 1

    def test_state_reconstruction(self, sim):
        trace = TransitionTrace(sim)
        counter = ResidencyCounter(sim, "A")
        trace.attach("e", counter)
        sim.schedule(10, counter.enter, "B")
        sim.schedule(50, counter.enter, "C")
        sim.run()
        assert trace.state_at("e", 5) == "A"  # before first event
        assert trace.state_at("e", 20) == "B"
        assert trace.state_at("e", 60) == "C"

    def test_csv_export(self, sim):
        trace = TransitionTrace(sim)
        trace.record("core0", "CC0", "CC1")
        csv = trace.to_csv()
        assert csv.splitlines()[0] == "time_ns,entity,from_state,to_state"
        assert "core0,CC0,CC1" in csv

    def test_clear(self, sim):
        trace = TransitionTrace(sim)
        trace.record("x", "a", "b")
        trace.clear()
        assert len(trace) == 0

    def test_capacity_validated(self, sim):
        with pytest.raises(ValueError):
            TransitionTrace(sim, capacity=0)

    def test_traces_live_machine_package_states(self):
        machine = build_machine("CPC1A", seed=3)
        trace = TransitionTrace(machine.sim)
        trace.attach("package", machine.package.residency)
        machine.sim.run(until_ns=100 * US)
        states = [e.to_state for e in trace.for_entity("package")]
        assert "PC1A" in states
        assert "ACC1" in states


class TestUpiSnoopTraffic:
    def test_snoops_flow_on_upi_links(self):
        machine = build_machine("Cshallow", seed=3)
        traffic = UpiSnoopTraffic(50_000)
        traffic.start(machine.sim, machine)
        machine.sim.run(until_ns=20 * MS)
        assert traffic.snoops_sent == pytest.approx(1_000, rel=0.2)
        upi_transfers = sum(
            link.transfers for link in machine.links
            if link.name.startswith("upi")
        )
        assert upi_transfers == traffic.snoops_sent

    def test_snoops_wake_pc1a(self):
        machine = build_machine("CPC1A", seed=3)
        UpiSnoopTraffic(20_000).start(machine.sim, machine)
        machine.sim.run(until_ns=5 * MS)
        assert machine.apmu.pc1a_exits > 10

    def test_snoops_reduce_pc1a_residency(self):
        quiet = build_machine("CPC1A", seed=3)
        quiet.sim.run(until_ns=20 * MS)
        quiet_res = quiet.package.residency.fraction("PC1A")
        noisy = build_machine("CPC1A", seed=3)
        UpiSnoopTraffic(50_000).start(noisy.sim, noisy)
        noisy.sim.run(until_ns=20 * MS)
        noisy_res = noisy.package.residency.fraction("PC1A")
        assert noisy_res < quiet_res

    def test_light_snoops_leave_an_idle_machine_in_pc1a(self):
        # Each snoop lands in L0p and the link drops back after its
        # window, so an idle package returns to PC1A every time.
        machine = build_machine("CPC1A", seed=3)
        traffic = UpiSnoopTraffic(1_000)
        traffic.start(machine.sim, machine)
        machine.sim.run(until_ns=20 * MS)
        assert traffic.snoops_sent > 10
        assert machine.apmu.pc1a_entries > traffic.snoops_sent
        assert machine.package.residency.fraction("PC1A") > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            UpiSnoopTraffic(0)
        with pytest.raises(ValueError):
            UpiSnoopTraffic(1_000, snoop_bytes=0)

    def test_requires_upi_links(self, sim):
        class NoUpi:
            links = []

        with pytest.raises(ValueError):
            UpiSnoopTraffic(1_000).start(sim, NoUpi())


class TestCompositeWorkload:
    def test_runs_all_parts(self):
        machine = build_machine("CPC1A", seed=3)
        composite = CompositeWorkload(
            [MemcachedWorkload(10_000), UpiSnoopTraffic(10_000)]
        )
        composite.start(machine.sim, machine)
        machine.sim.run(until_ns=20 * MS)
        assert machine.requests_completed > 100  # memcached part
        upi_transfers = sum(
            link.transfers for link in machine.links
            if link.name.startswith("upi")
        )
        assert upi_transfers > 100  # snoop part

    def test_offered_qps_is_foreground(self):
        composite = CompositeWorkload(
            [MemcachedWorkload(10_000), UpiSnoopTraffic(99_999)]
        )
        assert composite.offered_qps == 10_000

    def test_describe_lists_parts(self):
        composite = CompositeWorkload([MemcachedWorkload(10_000)])
        assert composite.describe()["parts"][0]["name"] == "memcached"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeWorkload([])
