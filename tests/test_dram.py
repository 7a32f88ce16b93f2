"""Tests for the DRAM device and memory controller."""

import pytest

from repro.dram.controller import MemoryController, MemoryControllerError
from repro.dram.device import DramDevice, DramPowerMode
from repro.dram.timings import DDR4_2666, DramTimings
from repro.power.budgets import DramPowerSpec, MemoryControllerPowerSpec
from repro.power.meter import PowerMeter
from repro.units import US


def make_mc(sim):
    meter = PowerMeter(sim)
    device = DramDevice(sim, "dram0", DramPowerSpec(), meter.channel("dram0", "dram"))
    mc = MemoryController(
        sim, "mc0", MemoryControllerPowerSpec(), DDR4_2666,
        meter.channel("mc0", "package"), device,
    )
    return mc, device, meter


class TestTimings:
    def test_paper_cke_latencies(self):
        # Sec. 5.5: CKE entry within 10 ns, exit within 24 ns.
        assert DDR4_2666.cke_off_entry_ns == 10
        assert DDR4_2666.cke_off_exit_ns == 24

    def test_self_refresh_is_microseconds(self):
        assert DDR4_2666.self_refresh_exit_ns >= 1 * US

    def test_asymmetry_invariant_enforced(self):
        with pytest.raises(ValueError):
            DramTimings(self_refresh_exit_ns=20, cke_off_exit_ns=24)

    def test_positive_timings_enforced(self):
        with pytest.raises(ValueError):
            DramTimings(access_ns=0)


class TestDramDevice:
    def test_mode_changes_power(self, sim):
        _, device, meter = make_mc(sim)
        device.set_mode(DramPowerMode.SELF_REFRESH)
        assert meter["dram0"].power_w == pytest.approx(DramPowerSpec().self_refresh_w)

    def test_access_charges_energy(self, sim):
        _, device, meter = make_mc(sim)
        device.access(1_000_000)
        expected = 1_000_000 * DramPowerSpec().access_energy_j_per_byte
        assert meter["dram0"].energy_j == pytest.approx(expected)

    def test_access_requires_active_mode(self, sim):
        _, device, _ = make_mc(sim)
        device.set_mode(DramPowerMode.CKE_OFF)
        with pytest.raises(RuntimeError):
            device.access(64)

    def test_access_size_validated(self, sim):
        _, device, _ = make_mc(sim)
        with pytest.raises(ValueError):
            device.access(0)

    def test_bandwidth_accounting(self, sim):
        _, device, _ = make_mc(sim)
        device.access(10_000)
        # 10 KB over 1 us = 1e10 B/s.
        assert device.average_bandwidth_bytes_per_s(1_000) == pytest.approx(1e10)


class TestMcAccess:
    def test_access_latency(self, sim):
        mc, _, _ = make_mc(sim)
        done = []
        latency = mc.access(64, lambda: done.append(sim.now))
        assert latency >= DDR4_2666.access_ns
        sim.run()
        assert done == [latency]

    def test_access_while_not_active_rejected(self, sim):
        mc, _, _ = make_mc(sim)
        mc.enter_self_refresh()
        sim.run()
        with pytest.raises(MemoryControllerError):
            mc.access(64)

    def test_outstanding_counting(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        mc.access(64)
        assert mc.outstanding == 2
        sim.run()
        assert mc.outstanding == 0


class TestFireAndForgetAccesses:
    """Accesses without ``on_done`` keep a completion deadline, no event."""

    def test_access_schedules_nothing_and_completes_on_time(self, sim):
        mc, _, _ = make_mc(sim)
        latency = mc.access(64)
        assert latency == 93  # 90 ns + 64 B at 21.3 B/ns
        assert sim.heap_size == 0
        sim.run(until_ns=92)
        assert mc.outstanding == 1
        sim.run(until_ns=93)
        assert mc.outstanding == 0

    def test_unbounded_run_ends_at_the_last_completion(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        sim.run()
        assert sim.now == 93 and mc.outstanding == 0

    def test_allow_mid_access_enters_cke_off_at_completion(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        sim.schedule(40, mc.allow_cke_off.set, True)
        sim.run(until_ns=92)
        assert mc.state == "active"
        sim.run(until_ns=93)
        assert mc.state == "transitioning"
        sim.run(until_ns=93 + DDR4_2666.cke_off_entry_ns)
        assert mc.state == "cke_off" and mc.cke_off_entries == 1

    @pytest.mark.parametrize("sizes", [(4096, 64), (64, 4096)])
    def test_later_of_two_overlapping_accesses_governs(self, sim, sizes):
        # 64 B completes at 93 ns and 4 KiB at 282 ns, in either order.
        mc, _, _ = make_mc(sim)
        mc.access(sizes[0])
        mc.access(sizes[1])
        mc.allow_cke_off.set(True)
        assert mc.outstanding == 2
        sim.run(until_ns=100)
        assert mc.outstanding == 1 and mc.state == "active"
        sim.run(until_ns=281)
        assert mc.state == "active"
        sim.run(until_ns=282)
        assert mc.outstanding == 0 and mc.state == "transitioning"
        sim.run(until_ns=292)
        assert mc.state == "cke_off" and mc.cke_off_entries == 1

    def test_callback_access_overlapping_one_without(self, sim):
        mc, _, _ = make_mc(sim)
        done = []
        mc.access(4096)  # lands at 282 ns
        mc.access(64, lambda: done.append(sim.now))  # lands at 93 ns
        mc.allow_cke_off.set(True)
        sim.run(until_ns=281)
        assert done == [93] and mc.state == "active"
        sim.run(until_ns=292)
        assert mc.state == "cke_off"

    def test_self_refresh_refused_while_an_access_is_in_flight(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        with pytest.raises(MemoryControllerError):
            mc.enter_self_refresh()
        sim.run(until_ns=93)
        mc.enter_self_refresh()
        sim.run()
        assert mc.state == "self_refresh"


class TestCkeOff:
    def test_enters_cke_off_when_allowed_and_idle(self, sim):
        mc, device, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run()
        assert mc.state == "cke_off"
        assert device.mode is DramPowerMode.CKE_OFF

    def test_entry_waits_for_outstanding_transactions(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        mc.allow_cke_off.set(True)
        assert mc.state == "active"  # transaction still in flight
        sim.run()
        assert mc.state == "cke_off"

    def test_exit_on_deassert(self, sim):
        mc, device, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run()
        mc.allow_cke_off.set(False)
        sim.run()
        assert mc.state == "active"
        assert device.mode is DramPowerMode.ACTIVE

    def test_entry_takes_10ns(self, sim):
        mc, _, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run(until_ns=9)
        assert mc.state == "transitioning"
        sim.run(until_ns=10)
        assert mc.state == "cke_off"

    def test_exit_takes_24ns(self, sim):
        mc, _, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run(until_ns=10)
        mc.allow_cke_off.set(False)
        sim.run(until_ns=33)
        assert mc.state == "transitioning"
        sim.run(until_ns=34)
        assert mc.state == "active"

    def test_deassert_during_entry_bounces_back(self, sim):
        # The race the APMU exit flow can create: Allow_CKE_OFF drops
        # while the CKE entry transition is still in flight.
        mc, _, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run(until_ns=5)  # mid-entry
        mc.allow_cke_off.set(False)
        sim.run(until_ns=200)
        assert mc.state == "active"

    def test_entry_counter(self, sim):
        mc, _, _ = make_mc(sim)
        for _ in range(3):
            mc.allow_cke_off.set(True)
            sim.run()
            mc.allow_cke_off.set(False)
            sim.run()
        assert mc.cke_off_entries == 3

    def test_power_follows_state(self, sim):
        mc, _, meter = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run()
        assert meter["mc0"].power_w == pytest.approx(
            MemoryControllerPowerSpec().cke_off_w
        )


class TestSelfRefresh:
    def test_roundtrip(self, sim):
        mc, device, _ = make_mc(sim)
        mc.enter_self_refresh()
        sim.run()
        assert mc.state == "self_refresh"
        assert device.mode is DramPowerMode.SELF_REFRESH
        mc.exit_self_refresh()
        sim.run()
        assert mc.state == "active"

    def test_exit_latency_is_microseconds(self, sim):
        mc, _, _ = make_mc(sim)
        mc.enter_self_refresh()
        sim.run()
        start = sim.now
        done = []
        mc.exit_self_refresh(lambda: done.append(sim.now))
        sim.run()
        assert done[0] - start == DDR4_2666.self_refresh_exit_ns

    def test_entry_with_outstanding_rejected(self, sim):
        mc, _, _ = make_mc(sim)
        mc.access(64)
        with pytest.raises(MemoryControllerError):
            mc.enter_self_refresh()

    def test_entry_from_cke_off_reactivates_first(self, sim):
        mc, _, _ = make_mc(sim)
        mc.allow_cke_off.set(True)
        sim.run()
        total = mc.enter_self_refresh()
        assert total == DDR4_2666.cke_off_exit_ns + DDR4_2666.self_refresh_entry_ns
        sim.run()
        assert mc.state == "self_refresh"

    def test_exit_requires_self_refresh(self, sim):
        mc, _, _ = make_mc(sim)
        with pytest.raises(MemoryControllerError):
            mc.exit_self_refresh()

    def test_already_in_self_refresh_is_free(self, sim):
        mc, _, _ = make_mc(sim)
        mc.enter_self_refresh()
        sim.run()
        called = []
        assert mc.enter_self_refresh(lambda: called.append(1)) == 0
        assert called == [1]

    def test_state_listeners_fire(self, sim):
        mc, _, _ = make_mc(sim)
        states = []
        mc.on_state_change(states.append)
        mc.enter_self_refresh()
        sim.run()
        mc.exit_self_refresh()
        sim.run()
        assert states == ["self_refresh", "active"]
