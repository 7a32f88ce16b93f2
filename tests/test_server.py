"""Tests for the server layer: stats, dispatch, NIC, configs, machine."""

import pytest

from repro.server.configs import MachineConfig, cdeep, config_by_name, cpc1a, cshallow
from repro.server.dispatch import Dispatcher
from repro.server.experiment import collect_server, run_experiment
from repro.server.machine import ServerMachine
from repro.server.stats import LatencyRecorder
from repro.units import MS, US
from repro.workloads.base import NullWorkload, Request
from repro.workloads.memcached import MemcachedWorkload


class TestLatencyRecorder:
    def test_summary_percentiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(value * 1_000)  # 1..100 us
        summary = recorder.summary()
        assert summary.count == 100
        assert summary.mean_us == pytest.approx(50.5)
        assert summary.p50_us == pytest.approx(50.5, abs=1.0)
        assert summary.p99_us == pytest.approx(99, abs=1.5)
        assert summary.max_us == pytest.approx(100)

    def test_network_latency_folded_in(self):
        recorder = LatencyRecorder()
        recorder.record(10_000)
        summary = recorder.summary(network_latency_ns=117_000)
        assert summary.mean_us == pytest.approx(127.0)

    def test_empty_summary(self):
        assert LatencyRecorder().summary().count == 0

    def test_reset(self):
        recorder = LatencyRecorder()
        recorder.record(1_000)
        recorder.reset()
        assert recorder.count == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_as_dict_keys(self):
        recorder = LatencyRecorder()
        recorder.record(5_000)
        d = recorder.summary().as_dict()
        assert set(d) == {
            "count", "mean_us", "p50_us", "p95_us", "p99_us", "p999_us", "max_us"
        }


class TestDispatcher:
    def test_round_robin_cycles(self, shallow_machine):
        dispatcher = Dispatcher(
            shallow_machine.sim, shallow_machine.cores, "round_robin"
        )
        picks = [dispatcher.pick().index for _ in range(20)]
        assert picks == list(range(10)) * 2

    def test_random_covers_all_cores(self, shallow_machine):
        dispatcher = Dispatcher(shallow_machine.sim, shallow_machine.cores, "random")
        picks = {dispatcher.pick().index for _ in range(500)}
        assert picks == set(range(10))

    def test_least_loaded_prefers_idle(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=10 * US)
        dispatcher = Dispatcher(machine.sim, machine.cores, "least_loaded")
        machine.cores[0].submit(1 * MS)
        machine.sim.run(until_ns=machine.sim.now + 10 * US)
        picks = {dispatcher.pick().index for _ in range(10)}
        assert 0 not in picks

    def test_packed_fills_lowest_cores_first(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=10 * US)
        dispatcher = Dispatcher(machine.sim, machine.cores, "packed")
        assert dispatcher.pick().index == 0
        # Fill core 0 to the watermark; dispatch must spill to core 1.
        for _ in range(Dispatcher.PACK_WATERMARK):
            machine.cores[0].submit(1 * MS)
        machine.sim.run(until_ns=machine.sim.now + 10 * US)
        assert dispatcher.pick().index == 1

    def test_unknown_policy_rejected(self, shallow_machine):
        with pytest.raises(ValueError):
            Dispatcher(shallow_machine.sim, shallow_machine.cores, "zigzag")

    def test_empty_cores_rejected(self, sim):
        with pytest.raises(ValueError):
            Dispatcher(sim, [], "random")


class TestConfigs:
    def test_cshallow_disables_everything(self):
        config = cshallow()
        assert config.enabled_cstates == ("CC1",)
        assert config.package_policy == "none"

    def test_cdeep_enables_everything(self):
        config = cdeep()
        assert "CC6" in config.enabled_cstates
        assert config.package_policy == "pc6"
        assert config.governor == "menu"

    def test_cpc1a_is_cshallow_plus_apc(self):
        config = cpc1a()
        assert config.enabled_cstates == ("CC1",)
        assert config.package_policy == "pc1a"

    def test_network_latency_is_117us(self):
        assert cshallow().network_latency_ns == 117 * US

    def test_config_by_name(self):
        assert config_by_name("Cdeep").name == "Cdeep"
        with pytest.raises(KeyError):
            config_by_name("Cmagic")

    def test_config_by_name_suggests_close_spellings(self):
        with pytest.raises(KeyError, match="did you mean 'Cshallow'"):
            config_by_name("cshallow")
        with pytest.raises(KeyError, match="did you mean 'CPC1A'"):
            config_by_name("CPC1")

    def test_pc1a_with_cc6_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(
                name="bad",
                enabled_cstates=("CC1", "CC6"),
                governor="shallow",
                package_policy="pc1a",
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(
                name="bad",
                enabled_cstates=("CC1",),
                governor="shallow",
                package_policy="pc7",
            )

    def test_unknown_governor_rejected(self):
        with pytest.raises(ValueError, match="governor"):
            MachineConfig(
                name="bad", enabled_cstates=("CC1",),
                governor="ondemand", package_policy="none",
            )

    def test_unknown_tick_mode_rejected(self):
        with pytest.raises(ValueError, match="tick_mode"):
            MachineConfig(
                name="bad", enabled_cstates=("CC1",),
                governor="shallow", package_policy="none", tick_mode="nohz_full",
            )

    def test_unknown_dispatch_policy_rejected(self):
        with pytest.raises(ValueError, match="dispatch_policy"):
            MachineConfig(
                name="bad", enabled_cstates=("CC1",),
                governor="shallow", package_policy="none", dispatch_policy="hash-ring",
            )

    def test_negative_tick_rate_rejected(self):
        with pytest.raises(ValueError, match="timer_tick_hz"):
            MachineConfig(
                name="bad", enabled_cstates=("CC1",),
                governor="shallow", package_policy="none", timer_tick_hz=-1,
            )


class TestMachineAssembly:
    def test_skx_inventory(self, apc_machine):
        assert len(apc_machine.cores) == 10
        assert len(apc_machine.links) == 6
        assert len(apc_machine.memory_controllers) == 2
        assert len(apc_machine.uncore_plls) == 8

    def test_apc_machine_has_apmu_not_gpmu(self, apc_machine):
        assert apc_machine.apmu is not None
        assert apc_machine.gpmu is None

    def test_deep_machine_has_gpmu_not_apmu(self, deep_machine):
        assert deep_machine.gpmu is not None
        assert deep_machine.apmu is None

    def test_shallow_machine_has_neither(self, shallow_machine):
        assert shallow_machine.apmu is None
        assert shallow_machine.gpmu is None

    def test_request_lifecycle(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=10 * US)
        request = Request("get", service_ns=5 * US)
        machine.inject(request)
        machine.sim.run(until_ns=machine.sim.now + 1 * MS)
        assert request.completed_ns is not None
        assert machine.requests_completed == 1
        assert machine.latency.count == 1
        # The NIC's link carried the request in and the response out.
        assert machine.links[0].transfers == 2

    def test_completion_without_arrival_time_raises(self, shallow_machine):
        # Dispatched straight to a core, past the NIC that stamps the
        # arrival: the completion has no latency to record.
        machine = shallow_machine
        machine.sim.run(until_ns=10 * US)
        machine._dispatch(Request("get", service_ns=5 * US))
        with pytest.raises(ValueError, match="has not completed"):
            machine.sim.run(until_ns=machine.sim.now + 1 * MS)
        assert machine.latency.count == 0

    def test_request_charges_dram_traffic(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=10 * US)
        before = sum(d.bytes_accessed for d in machine.dram_devices)
        machine.inject(Request("get", service_ns=5 * US, dram_bytes=65_536))
        machine.sim.run(until_ns=machine.sim.now + 1 * MS)
        after = sum(d.bytes_accessed for d in machine.dram_devices)
        assert after - before == 65_536

    def test_utilization_zero_when_idle(self, shallow_machine):
        machine = shallow_machine
        machine.sim.run(until_ns=1 * MS)
        machine.begin_measurement()
        machine.sim.run(until_ns=machine.sim.now + 1 * MS)
        observed = collect_server(machine, machine.meter.readout(), 1e-3)
        assert observed["utilization"] < 0.01

    def test_begin_measurement_resets_counters(self, apc_machine):
        machine = apc_machine
        machine.sim.run(until_ns=1 * MS)
        assert machine.apmu.pc1a_entries >= 1
        machine.begin_measurement()
        assert machine.apmu.pc1a_entries == 0
        assert machine.meter.energy_j() == 0.0


class TestRunExperiment:
    def test_result_fields_consistent(self):
        result = run_experiment(
            MemcachedWorkload(20_000), cshallow(),
            duration_ns=30 * MS, warmup_ns=5 * MS, seed=11,
        )
        assert result.config_name == "Cshallow"
        assert result.workload_name == "memcached"
        assert result.requests_completed > 0
        assert result.achieved_qps == pytest.approx(20_000, rel=0.15)
        assert 0 < result.utilization < 1
        assert result.total_power_w == pytest.approx(
            result.package_power_w + result.dram_power_w
        )

    def test_core_residency_sums_to_one(self):
        result = run_experiment(
            MemcachedWorkload(20_000), cshallow(),
            duration_ns=20 * MS, warmup_ns=5 * MS, seed=11,
        )
        assert sum(result.core_residency.values()) == pytest.approx(1.0, abs=0.01)

    def test_package_residency_sums_to_one(self):
        result = run_experiment(
            MemcachedWorkload(20_000), cpc1a(),
            duration_ns=20 * MS, warmup_ns=5 * MS, seed=11,
        )
        assert sum(result.package_residency.values()) == pytest.approx(1.0, abs=0.01)

    def test_idle_experiment_has_no_requests(self):
        result = run_experiment(
            NullWorkload(), cshallow(), duration_ns=5 * MS, warmup_ns=1 * MS
        )
        assert result.requests_completed == 0
        assert result.latency.count == 0

    def test_same_seed_reproduces_exactly(self):
        def once():
            return run_experiment(
                MemcachedWorkload(10_000), cpc1a(),
                duration_ns=20 * MS, warmup_ns=5 * MS, seed=13,
            )

        a, b = once(), once()
        assert a.requests_completed == b.requests_completed
        assert a.package_power_w == pytest.approx(b.package_power_w, rel=1e-9)
        assert a.latency.mean_us == pytest.approx(b.latency.mean_us, rel=1e-9)
        assert a.pc1a_entries == b.pc1a_entries

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(NullWorkload(), cshallow(), duration_ns=0)
        with pytest.raises(ValueError):
            run_experiment(NullWorkload(), cshallow(), duration_ns=1, warmup_ns=-1)


class TestExternalSimulator:
    """ServerMachine composed on an externally-owned kernel (the
    fleet's construction mode)."""

    def build_pair(self, seed=3):
        from repro.power.meter import PowerMeter
        from repro.sim.engine import Simulator

        sim = Simulator(seed)
        meter = PowerMeter(sim)
        machines = [
            ServerMachine(
                cpc1a(), seed=seed, sim=sim, meter=meter, channel_prefix=f"s{i:02d}."
            )
            for i in range(2)
        ]
        return sim, meter, machines

    def test_machines_share_the_injected_kernel(self):
        sim, meter, (a, b) = self.build_pair()
        assert a.sim is sim and b.sim is sim
        assert a.meter is meter and b.meter is meter
        assert a.package_domain == "s00.package"
        assert b.dram_domain == "s01.dram"

    def test_shared_meter_requires_distinct_prefixes(self):
        from repro.power.meter import PowerMeter
        from repro.sim.engine import Simulator

        sim = Simulator(0)
        meter = PowerMeter(sim)
        ServerMachine(cpc1a(), sim=sim, meter=meter, channel_prefix="s00.")
        with pytest.raises(ValueError, match="distinct prefixes"):
            ServerMachine(cpc1a(), sim=sim, meter=meter, channel_prefix="s00.")

    def test_meter_must_share_the_simulator(self):
        from repro.power.meter import PowerMeter
        from repro.sim.engine import Simulator

        with pytest.raises(ValueError, match="share one simulator"):
            # repro-lint: ignore[RPR005]
            ServerMachine(cpc1a(), sim=Simulator(0), meter=PowerMeter(Simulator(0)))

    def test_checkpoint_stays_loud_on_external_sim(self):
        from repro.server.recycle import CheckpointError

        sim, meter, (a, _b) = self.build_pair()
        with pytest.raises(CheckpointError, match="externally-owned"):
            a.checkpoint()

    def test_recycle_without_checkpoint_stays_loud(self):
        sim, meter, (a, _b) = self.build_pair()
        with pytest.raises(RuntimeError, match="needs a checkpoint"):
            a.recycle(a.config, seed=3)

    def test_measurement_resets_only_own_channels(self):
        sim, meter, (a, b) = self.build_pair()
        sim.run(until_ns=2 * MS)
        before_b = meter.energy_j("s01.package")
        assert before_b > 0
        a.begin_measurement()
        assert meter.energy_j("s00.package") == 0.0
        assert meter.energy_j("s01.package") == pytest.approx(before_b)

    def test_kernel_stats_attribute_to_the_shared_kernel(self):
        sim, meter, (a, b) = self.build_pair()
        sim.run(until_ns=1 * MS)
        stats_a, stats_b = a.stats(), b.stats()
        assert stats_a == stats_b
        assert stats_a.sim_time_ns == 1 * MS
        assert stats_a.events_processed == sim.events_processed

    def test_default_construction_still_owns_its_substrate(self):
        machine = ServerMachine(cpc1a(), seed=4)
        assert machine.package_domain == "package"
        assert machine.dram_domain == "dram"
        machine.checkpoint()  # recyclable as before
        machine.recycle(machine.config, seed=9)
        assert machine.sim.seed == 9
