"""Stress and robustness tests: adversarial event timing on the APMU
and GPMU flows, plus cross-cutting conservation invariants on live
machines under load.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _machines import build_machine
from repro.iolink.lstates import LSTATE_BY_NAME
from repro.soc.package import PackageCState
from repro.units import MS, US


def drive(machine, ns):
    machine.sim.run(until_ns=machine.sim.now + ns)


class TestApmuAdversarialTiming:
    """Wake events injected at every offset across the PC1A flow."""

    @pytest.mark.parametrize("offset_ns", [0, 2, 6, 10, 14, 17, 18, 50, 150])
    def test_wake_at_every_entry_offset(self, offset_ns):
        machine = build_machine("CPC1A", seed=offset_ns)
        drive(machine, 50 * US)  # in PC1A
        apmu = machine.apmu
        # Force a fresh entry, then wake at a precise offset into it.
        apmu.gpmu_wakeup.set(True)
        drive(machine, 400)  # exit completes, re-entry begins
        machine.sim.schedule(offset_ns, machine.cores[0].submit, 5 * US)
        drive(machine, 500 * US)
        # Whatever the interleaving: the job ran, the machine is sane.
        assert machine.cores[0].jobs_completed == 1
        assert apmu.phase in ("pc0", "acc1", "pc1a", "entering")
        assert machine.clm.pll.locked
        assert apmu.exit_latency_max_ns <= 200

    @pytest.mark.parametrize("gap_ns", [10, 100, 500, 1_000, 5_000])
    def test_back_to_back_wakes(self, gap_ns):
        machine = build_machine("CPC1A", seed=gap_ns)
        drive(machine, 50 * US)
        for i in range(20):
            machine.sim.schedule(i * gap_ns, machine.apmu.gpmu_wakeup.set, True)
        drive(machine, 1 * MS)
        assert machine.apmu.phase == "pc1a"  # always recovers
        assert machine.apmu.exit_latency_max_ns <= 200

    def test_simultaneous_io_and_core_wake(self):
        machine = build_machine("CPC1A", seed=9)
        drive(machine, 50 * US)
        now = machine.sim.now
        machine.sim.schedule_at(now + 10, machine.links[1].transfer, 128)
        machine.sim.schedule_at(now + 10, machine.cores[5].submit, 5 * US)
        drive(machine, 500 * US)
        assert machine.cores[5].jobs_completed == 1
        assert machine.apmu.phase == "pc1a"

    @given(offsets=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=1, max_size=12
    ))
    @settings(deadline=None, max_examples=25)
    def test_random_wake_storms_never_wedge(self, offsets):
        machine = build_machine("CPC1A", seed=sum(offsets) % 1000)
        drive(machine, 50 * US)
        base = machine.sim.now
        for i, offset in enumerate(offsets):
            core = machine.cores[i % len(machine.cores)]
            machine.sim.schedule_at(base + offset, core.submit, 3 * US)
        drive(machine, 2 * MS)
        assert sum(c.jobs_completed for c in machine.cores) == len(offsets)
        assert machine.apmu.phase == "pc1a"  # everything drained
        for pll in machine.uncore_plls:
            assert pll.locked


class TestGpmuAdversarialTiming:
    @pytest.mark.parametrize("offset_us", [1, 5, 10, 20, 30, 50, 100])
    def test_wake_at_every_pc6_entry_stage(self, offset_us):
        machine = build_machine("Cdeep", seed=offset_us)
        # Cores reach CC6 around ~650 us (menu first-idle); the PC6
        # entry flow then runs ~29 us. Inject a wake at a stage offset.
        drive(machine, 650 * US)
        machine.sim.schedule(offset_us * US, machine.cores[0].submit, 5 * US)
        drive(machine, 3 * MS)
        assert machine.cores[0].jobs_completed == 1
        # The machine must come fully back up at some point.
        assert machine.gpmu.package_state in (
            PackageCState.PC0.value, PackageCState.PC6.value,
            PackageCState.PC2.value, PackageCState.TRANSITION.value,
        )
        for mc in machine.memory_controllers:
            assert mc.state in ("active", "self_refresh", "transitioning")

    def test_repeated_pc6_cycles_consistent(self):
        machine = build_machine("Cdeep", seed=2)
        drive(machine, 2 * MS)
        for _ in range(5):
            machine.gpmu.wakeup.set(True)
            drive(machine, 3 * MS)
        assert machine.gpmu.pc6_exits == 5
        assert machine.gpmu.pc6_entries == 6
        assert machine.gpmu.package_state == PackageCState.PC6.value


class TestConservationInvariants:
    """Cross-cutting invariants on a loaded machine."""

    def _loaded_machine(self, config_name):
        from repro.workloads.memcached import MemcachedWorkload

        machine = build_machine(config_name, seed=11)
        MemcachedWorkload(30_000).start(machine.sim, machine)
        drive(machine, 10 * MS)
        machine.begin_measurement()
        drive(machine, 40 * MS)
        return machine

    @pytest.mark.parametrize("config_name", ["Cshallow", "CPC1A", "Cdeep"])
    def test_core_residency_partitions_time(self, config_name):
        machine = self._loaded_machine(config_name)
        for core in machine.cores:
            fractions = core.residency.fractions()
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("config_name", ["Cshallow", "CPC1A"])
    def test_package_residency_partitions_time(self, config_name):
        machine = self._loaded_machine(config_name)
        fractions = machine.package.residency.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_energy_equals_average_power_times_time(self):
        machine = self._loaded_machine("CPC1A")
        window_s = 40 * MS * 1e-9
        for domain in ("package", "dram"):
            energy = machine.meter.energy_j(domain)
            assert energy == pytest.approx(
                machine.meter.average_power_w(domain, 40 * MS) * window_s
            )

    def test_power_bounded_by_ledger_extremes(self):
        machine = self._loaded_machine("CPC1A")
        budget = machine.budget
        pkg = machine.meter.average_power_w("package", 40 * MS)
        assert budget.soc_power_w("PC1A") <= pkg <= budget.soc_power_w("PC0") + 1
        dram = machine.meter.average_power_w("dram", 40 * MS)
        assert budget.dram_power_w("PC1A") <= dram <= 10.0

    def test_all_requests_accounted(self):
        machine = self._loaded_machine("CPC1A")
        # Completed requests == recorded latencies, and the NIC's link
        # carried each request in and its response out during the
        # window (in-flight boundary effects aside).
        assert machine.latency.count == machine.requests_completed
        assert abs(machine.links[0].transfers - 2 * machine.requests_completed) <= 5

    def test_rapl_matches_meter(self):
        from repro.power.rapl import RaplDomain

        machine = self._loaded_machine("CPC1A")
        rapl_j = machine.rapl.read_energy_j(RaplDomain.PACKAGE)
        meter_j = machine.meter.energy_j("package")
        assert rapl_j == pytest.approx(meter_j, abs=2 * machine.rapl.ENERGY_UNIT_J)

    def test_pc1a_entries_exits_balance(self):
        machine = self._loaded_machine("CPC1A")
        assert abs(machine.apmu.pc1a_entries - machine.apmu.pc1a_exits) <= 1

    def test_link_residency_partitions_time(self):
        machine = self._loaded_machine("CPC1A")
        for link in machine.links:
            fractions = link.residency.fractions()
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mc_and_dram_residency_partitions_time(self):
        machine = self._loaded_machine("CPC1A")
        for component in machine.memory_controllers + machine.dram_devices:
            fractions = component.residency.fractions()
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_link_energy_matches_its_residency(self):
        # A link's draw is a function of its L-state, so its channel
        # energy is the residency-weighted sum of the state draws.
        machine = self._loaded_machine("CPC1A")
        for link in machine.links:
            counter = link.residency
            ns_w = sum(
                counter.residency_ns(state)
                * link.power_spec.watts[LSTATE_BY_NAME[state].power_class]
                for state in counter.fractions()
            )
            assert ns_w > 0
            assert link.channel.energy_j == pytest.approx(ns_w / 1e9, rel=1e-12)

    def test_dram_energy_matches_its_residency_and_traffic(self):
        machine = self._loaded_machine("CPC1A")
        for device in machine.dram_devices:
            counter = device.residency
            ns_w = sum(
                counter.residency_ns(state) * device.spec.watts[state]
                for state in counter.fractions()
            )
            access_j = device.bytes_accessed * device.spec.access_energy_j_per_byte
            assert access_j > 0
            assert device.channel.energy_j == pytest.approx(
                ns_w / 1e9 + access_j, rel=1e-12
            )

    def test_mc_cke_cycles_under_load(self):
        machine = self._loaded_machine("CPC1A")
        # With ~33% all-idle at 30K QPS the MCs cycle CKE constantly.
        assert all(mc.cke_off_entries > 50 for mc in machine.memory_controllers)
