"""Tests for the LTSSM and the IO link controllers."""

import pytest

from repro.iolink.link import LinkError, make_link
from repro.iolink.lstates import LSTATE_BY_NAME, PCIE_TIMINGS, UPI_TIMINGS
from repro.iolink.ltssm import Ltssm, LtssmError
from repro.power.budgets import PCIE_POWER
from repro.power.meter import PowerMeter
from repro.units import US


def make_pcie(sim):
    meter = PowerMeter(sim)
    link = make_link(sim, "pcie", 0, meter.channel("link", "package"))
    return link, meter


class TestLStates:
    def test_entry_window_is_quarter_of_exit(self):
        # Paper Sec. 4.2.1: L0S_ENTRY_LAT = exit latency / 4.
        assert PCIE_TIMINGS.shallow_entry_ns == PCIE_TIMINGS.shallow_exit_ns // 4
        assert PCIE_TIMINGS.shallow_entry_ns == 16

    def test_upi_l0p_exit_is_10ns(self):
        assert UPI_TIMINGS.shallow_exit_ns == 10

    def test_l0s_counts_as_in_l0s(self):
        assert LSTATE_BY_NAME["L0s"].counts_as_in_l0s
        assert LSTATE_BY_NAME["L1"].counts_as_in_l0s  # "or deeper"
        assert LSTATE_BY_NAME["NDA"].counts_as_in_l0s
        assert not LSTATE_BY_NAME["L0"].counts_as_in_l0s

    def test_l0p_still_transmits(self):
        assert LSTATE_BY_NAME["L0p"].transmitting
        assert not LSTATE_BY_NAME["L0s"].transmitting


class TestLtssm:
    def test_starts_in_l0_by_default(self, sim):
        assert Ltssm(sim, "l", PCIE_TIMINGS).state == "L0"

    def test_training_path(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS, start_in_l0=False)
        assert ltssm.state == "Detect"
        sim.run()
        assert ltssm.state == "L0"
        # Detect + Polling + Configuration durations.
        assert sim.now == (
            PCIE_TIMINGS.detect_ns
            + PCIE_TIMINGS.polling_ns
            + PCIE_TIMINGS.configuration_ns
        )

    def test_shallow_entry_only_from_l0(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS, start_in_l0=False)
        with pytest.raises(LtssmError):
            ltssm.enter_shallow()

    def test_shallow_roundtrip(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS)
        ltssm.enter_shallow()
        assert ltssm.state == "L0s"
        assert ltssm.exit_shallow() == 64
        sim.run()
        assert ltssm.state == "L0"

    def test_upi_uses_l0p(self, sim):
        ltssm = Ltssm(sim, "l", UPI_TIMINGS, shallow_state="L0p")
        ltssm.enter_shallow()
        assert ltssm.state == "L0p"

    def test_invalid_shallow_state_rejected(self, sim):
        with pytest.raises(LtssmError):
            Ltssm(sim, "l", PCIE_TIMINGS, shallow_state="L1")

    def test_l1_roundtrip_through_recovery(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS)
        total = ltssm.enter_l1()
        assert total == PCIE_TIMINGS.recovery_ns + PCIE_TIMINGS.l1_entry_ns
        assert ltssm.state == "Recovery"
        sim.run()
        assert ltssm.state == "L1"
        assert ltssm.exit_l1() == PCIE_TIMINGS.l1_exit_ns
        sim.run()
        assert ltssm.state == "L0"

    def test_l1_exit_only_from_l1(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS)
        with pytest.raises(LtssmError):
            ltssm.exit_l1()

    def test_nda_from_detect(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS, start_in_l0=False)
        ltssm.mark_no_device()
        assert ltssm.state == "NDA"
        sim.run(until_ns=100 * US)
        assert ltssm.state == "NDA"  # parked forever

    def test_nda_requires_detect(self, sim):
        ltssm = Ltssm(sim, "l", PCIE_TIMINGS)
        with pytest.raises(LtssmError):
            ltssm.mark_no_device()


class TestLinkIdleDetection:
    def test_no_l0s_without_allow(self, sim):
        link, _ = make_pcie(sim)
        sim.run(until_ns=10 * US)
        assert link.state == "L0"
        assert not link.in_l0s.value

    def test_enters_l0s_after_idle_window(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=15)
        assert link.state == "L0"
        sim.run(until_ns=17)
        assert link.state == "L0s"
        assert link.in_l0s.value

    def test_traffic_restarts_idle_window(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.schedule(10, link.transfer, 64)
        sim.run(until_ns=20)
        assert link.state == "L0"  # window restarted by the transfer

    def test_allow_deassert_wakes_link(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        assert link.state == "L0s"
        link.allow_l0s.set(False)
        sim.run(until_ns=200)
        assert link.state == "L0"
        assert not link.in_l0s.value

    def test_shallow_entry_counter(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        link.transfer(64)
        sim.run(until_ns=10 * US)
        assert link.shallow_entries == 2  # initial entry + re-entry

    def test_upi_snoop_in_l0p_returns_to_l0p(self, sim):
        # The 64 B snoop is delivered 3 ns in, before the 10 ns upshift
        # lands: the idle window must start on the L0 arrival.
        link = make_link(sim, "upi", 0, PowerMeter(sim).channel("u", "package"))
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        assert link.state == "L0p"
        link.transfer(64)
        sim.run(until_ns=1 * US)
        assert link.state == "L0p"
        assert link.shallow_entries == 2

    def test_link_leaving_l1_with_allow_asserted_reaches_l0s(self, sim):
        link, _ = make_pcie(sim)
        link.enter_l1()
        sim.run()
        link.allow_l0s.set(True)  # no idle window while in L1
        link.exit_l1()
        sim.run(until_ns=sim.now + PCIE_TIMINGS.l1_exit_ns + 100)
        assert link.state == "L0s"
        assert link.in_l0s.value

    def test_l0s_exit_with_allow_reasserted_mid_exit_reaches_l0s(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        link.allow_l0s.set(False)  # exit starts: L0 in 64 ns
        sim.run(until_ns=120)
        link.allow_l0s.set(True)  # still in L0s: nothing to arm yet
        sim.run(until_ns=1 * US)
        assert link.state == "L0s"
        assert link.shallow_entries == 2


class TestLinkTransfers:
    def test_transfer_latency_includes_serialization(self, sim):
        link, _ = make_pcie(sim)
        delivered = []
        latency = link.transfer(16_000, lambda: delivered.append(sim.now))
        assert latency == pytest.approx(1_000, abs=2)  # 16 KB at 16 B/ns
        sim.run()
        assert delivered

    def test_transfer_from_l0s_pays_exit_latency(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        assert link.state == "L0s"
        delivered = []
        link.transfer(64, lambda: delivered.append(sim.now))
        sim.run(until_ns=10 * US)
        assert delivered[0] >= 100 + 64  # L0s exit dominates

    def test_wake_deasserts_in_l0s_immediately(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        link.transfer(64)
        assert not link.in_l0s.value  # dropped at wake detection

    def test_wake_listener_fires(self, sim):
        link, _ = make_pcie(sim)
        woken = []
        link.on_wake(woken.append)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        link.transfer(64)
        assert woken == ["pcie0"]

    def test_no_wake_listener_in_l0(self, sim):
        link, _ = make_pcie(sim)
        woken = []
        link.on_wake(woken.append)
        link.transfer(64)
        assert woken == []

    def test_outstanding_tracks_in_flight(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(64)
        link.transfer(64)
        assert link.outstanding == 2
        sim.run()
        assert link.outstanding == 0

    def test_invalid_transfer_size(self, sim):
        link, _ = make_pcie(sim)
        with pytest.raises(LinkError):
            link.transfer(0)

    def test_transfer_from_l1_retrains(self, sim):
        link, _ = make_pcie(sim)
        link.enter_l1()
        sim.run()
        assert link.state == "L1"
        delivered = []
        link.transfer(64, lambda: delivered.append(sim.now))
        sim.run()
        assert delivered[0] >= PCIE_TIMINGS.l1_exit_ns


class TestFireAndForgetTransfers:
    """Transfers without ``on_delivered`` keep a delivery deadline, no event."""

    def test_transfer_schedules_nothing_and_lands_on_time(self, sim):
        link, _ = make_pcie(sim)
        assert link.transfer(1_600) == 100  # 1,600 B at 16 B/ns
        assert sim.heap_size == 0
        sim.run(until_ns=99)
        assert link.outstanding == 1
        sim.run(until_ns=100)
        assert link.outstanding == 0

    def test_unbounded_run_ends_at_the_last_delivery(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(1_600)
        sim.run()
        assert sim.now == 100 and link.outstanding == 0

    def test_outstanding_counts_overlapping_transfers(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(16_000)  # lands at 1,000 ns
        sim.run(until_ns=2)
        link.transfer(64)  # lands at 6 ns
        assert link.outstanding == 2
        sim.run(until_ns=6)
        assert link.outstanding == 1
        sim.run(until_ns=1_000)
        assert link.outstanding == 0

    def test_response_with_allow_asserted_opens_window_at_delivery(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        link.transfer(1_600)  # delivered at 100 ns
        window = PCIE_TIMINGS.shallow_entry_ns
        sim.run(until_ns=100 + window - 1)
        assert link.state == "L0"
        sim.run(until_ns=100 + window)
        assert link.state == "L0s"

    def test_allow_rising_mid_transfer_opens_window_at_delivery(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(1_600)
        sim.run(until_ns=50)
        link.allow_l0s.set(True)
        sim.run(until_ns=100 + PCIE_TIMINGS.shallow_entry_ns - 1)
        assert link.state == "L0"
        sim.run(until_ns=100 + PCIE_TIMINGS.shallow_entry_ns)
        assert link.state == "L0s"

    def test_callback_transfer_in_flight_holds_the_window(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        link.transfer(3_200, lambda: None)  # delivered at 200 ns
        link.transfer(1_600)  # delivered at 100 ns
        sim.run(until_ns=200 + PCIE_TIMINGS.shallow_entry_ns - 1)
        assert link.state == "L0"
        sim.run(until_ns=200 + PCIE_TIMINGS.shallow_entry_ns)
        assert link.state == "L0s"

    def test_enter_l1_refused_until_the_transfer_lands(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(1_600)
        with pytest.raises(LinkError):
            link.enter_l1()
        sim.run(until_ns=100)
        link.enter_l1()
        sim.run()
        assert link.state == "L1"


class TestLinkPower:
    def test_power_follows_lstate(self, sim):
        link, meter = make_pcie(sim)
        assert meter["link"].power_w == pytest.approx(PCIE_POWER.l0_w)
        link.allow_l0s.set(True)
        sim.run(until_ns=100)
        assert meter["link"].power_w == pytest.approx(PCIE_POWER.shallow_w)

    def test_l1_power(self, sim):
        link, meter = make_pcie(sim)
        link.enter_l1()
        sim.run()
        assert meter["link"].power_w == pytest.approx(PCIE_POWER.l1_w)

    def test_residency_tracked_per_state(self, sim):
        link, _ = make_pcie(sim)
        link.allow_l0s.set(True)
        sim.run(until_ns=1_016)
        assert link.residency.residency_ns("L0s") == 1_000


class TestGpmuLinkInterface:
    def test_enter_l1_with_traffic_rejected(self, sim):
        link, _ = make_pcie(sim)
        link.transfer(16_000)
        with pytest.raises(LinkError):
            link.enter_l1()

    def test_enter_l1_when_already_there_is_free(self, sim):
        link, _ = make_pcie(sim)
        link.enter_l1()
        sim.run()
        called = []
        assert link.enter_l1(lambda: called.append(1)) == 0
        assert called == [1]

    def test_exit_l1_callback_fires_after_latency(self, sim):
        link, _ = make_pcie(sim)
        link.enter_l1()
        sim.run()
        start = sim.now
        done = []
        link.exit_l1(lambda: done.append(sim.now))
        sim.run()
        assert done == [start + PCIE_TIMINGS.l1_exit_ns]

    def test_exit_l1_requires_l1(self, sim):
        link, _ = make_pcie(sim)
        with pytest.raises(LinkError):
            link.exit_l1()

    def test_make_link_kinds(self, sim):
        meter = PowerMeter(sim)
        upi = make_link(sim, "upi", 0, meter.channel("u", "package"))
        assert upi.ltssm.shallow_state == "L0p"
        with pytest.raises(LinkError):
            make_link(sim, "sata", 0, meter.channel("s", "package"))
