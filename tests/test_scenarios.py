"""The scenario registry, trace replay, MMPP arrivals, new workloads."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.scenarios import (
    Scenario,
    ScenarioError,
    all_scenarios,
    register,
    register_scenario,
    scenario_names,
    sweep_points,
    unregister,
)
from repro.scenarios.builtin import EXAMPLE_TRACE
from repro.sim import Simulator
from repro.sweep import ExperimentSpec, SweepSpec, WorkloadPoint
from repro.units import MS, S, US
from repro.workloads.arrivals import MMPPArrivals, TraceReplayArrivals
from repro.workloads.base import NullWorkload
from repro.workloads.nginx import NginxWorkload
from repro.workloads.replay import TraceReplayWorkload, load_trace
from repro.workloads.rpcfanout import RpcFanoutWorkload

DATA_DIR = Path(__file__).parent / "data"
EXAMPLE = DATA_DIR / "example_trace.csv"

RNG = np.random.default_rng(123)


class _Collector:
    """Inject target that stamps arrivals like the server NIC does."""

    def __init__(self, sim=None):
        self.sim = sim
        self.requests = []

    def inject(self, request):
        if self.sim is not None and request.arrival_ns is None:
            request.arrival_ns = self.sim.now
        self.requests.append(request)


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_builtin_scenarios_present(self):
        names = scenario_names()
        assert len(names) >= 5
        for required in ("memcached", "mysql", "kafka", "nginx", "rpc-fanout"):
            assert required in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register(Scenario(
                name="memcached", build=lambda q, p: NullWorkload(), kind="rate"
            ))

    def test_register_and_unregister_round_trip(self):
        @register_scenario(
            name="test-only-burst",
            kind="rate",
            description="throwaway",
            default_rates=(0, 1_000),
        )
        def _build(qps, preset):
            return NullWorkload()

        try:
            assert "test-only-burst" in scenario_names()
            # Immediately sweepable: the spec layer sees it too.
            point = WorkloadPoint(scenario="test-only-burst", qps=1_000)
            assert isinstance(point.build(), NullWorkload)
        finally:
            unregister("test-only-burst")
        assert "test-only-burst" not in scenario_names()
        with pytest.raises(ScenarioError):
            unregister("test-only-burst")

    def test_bad_registrations_rejected(self):
        with pytest.raises(ScenarioError, match="kind"):
            Scenario(name="x", build=lambda q, p: None, kind="sideways")
        with pytest.raises(ScenarioError, match="name"):
            Scenario(name="", build=lambda q, p: None, kind="rate")
        with pytest.raises(ScenarioError, match="callable"):
            Scenario(name="x", build="not-a-builder", kind="rate")

    def test_rate_zero_is_idle_for_every_rate_scenario(self):
        for scenario in all_scenarios():
            if scenario.uses_rate:
                assert isinstance(scenario.instantiate(0.0), NullWorkload)

    def test_sweep_points_uses_defaults(self):
        points = sweep_points("nginx")
        assert [p.qps for p in points] == [0.0, 10_000.0, 40_000.0, 120_000.0]
        assert all(p.scenario == "nginx" for p in points)
        overridden = sweep_points("nginx", rates=(20_000,))
        assert [p.qps for p in overridden] == [20_000.0]
        with pytest.raises(ScenarioError):
            sweep_points("replay", rates=(1,))  # not a rate scenario

    def test_scenarios_list_command(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("memcached", "nginx", "rpc-fanout", "replay"):
            assert name in output


class TestScenarioCells:
    def test_scenario_round_trips_dict_and_store_key(self):
        cell = ExperimentSpec(
            workload="", qps=8_000.0, preset="low", config="CPC1A",
            seed=1, duration_ns=4 * MS, warmup_ns=1 * MS, scenario="nginx",
        )
        assert cell.workload == "nginx"  # normalized
        data = cell.as_dict()
        assert data["scenario"] == "nginx"
        assert ExperimentSpec.from_dict(data) == cell
        # Legacy records without the field still load (defaults apply).
        legacy = {k: v for k, v in data.items() if k != "scenario"}
        revived = ExperimentSpec.from_dict({**legacy, "workload": "nginx"})
        assert revived.scenario == "nginx"
        assert revived.key() == cell.key()

    def test_distinct_scenarios_get_distinct_keys(self):
        def cell(scenario):
            return ExperimentSpec(
                workload=scenario, qps=10_000.0, preset="low", config="CPC1A",
                seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
            )

        # Same rate, same everything — different traffic shape.
        assert cell("memcached").key() != cell("memcached-diurnal").key()
        assert cell("memcached").key() != cell("nginx").key()

    def test_rate_zero_shares_the_idle_key_across_scenarios(self):
        def cell(scenario):
            return ExperimentSpec(
                workload=scenario, qps=0.0, preset="low", config="CPC1A",
                seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
            )

        assert cell("nginx").key() == cell("idle").key()
        assert cell("rpc-fanout").key() == cell("memcached").key()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown workload/scenario"):
            WorkloadPoint(scenario="postgres")

    def test_trace_keys_hash_contents_not_path_spelling(self, tmp_path):
        def cell(preset):
            return ExperimentSpec(
                workload="replay", qps=0.0, preset=preset, config="CPC1A",
                seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
            )

        # Different traces -> different keys.
        assert cell(str(EXAMPLE)).key() != cell("").key()
        # Alias spellings of the bundled default share one key...
        assert cell("").key() == cell("low").key() == cell("example").key()
        # ...as do relative/absolute spellings of one file.
        import os

        relative = os.path.relpath(EXAMPLE)
        assert cell(relative).key() == cell(str(EXAMPLE)).key()
        # Re-recording a trace at the same path changes the key.
        trace = tmp_path / "t.csv"
        trace.write_text("100\n200\n")
        first = cell(str(trace)).key()
        from repro.scenarios.registry import _TRACE_DIGESTS

        trace.write_text("100\n200\n300\n")
        _TRACE_DIGESTS.clear()  # new process == empty digest cache
        assert cell(str(trace)).key() != first

    def test_sweep_with_workload_replay_uses_bundled_trace(self, tmp_path):
        # --workload replay (not --scenario) must run, not traceback
        # into TraceReplayWorkload('high').
        out = tmp_path / "replay.csv"
        assert cli_main([
            "sweep", "--workload", "replay", "--configs", "CPC1A",
            "--seeds", "1", "--duration-ms", "5", "--warmup-ms", "1",
            "--workers", "1", "--out", str(out),
        ]) == 0
        assert "replay" in out.read_text()

    def test_missing_trace_is_a_clean_cli_error(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid sweep grid"):
            cli_main([
                "sweep", "--scenario", "replay",
                "--trace", str(tmp_path / "nope.csv"),
                "--configs", "CPC1A", "--seeds", "1",
                "--duration-ms", "5", "--warmup-ms", "1",
                "--out", str(tmp_path / "x.csv"),
            ])

    def test_failed_discovery_import_is_retried(self, monkeypatch):
        from repro.scenarios import registry as reg

        monkeypatch.setenv(reg.DISCOVERY_ENV, "no_such_module_xyz")
        monkeypatch.setattr(reg, "_BUILTIN_STATE", "pending")
        with pytest.raises(ModuleNotFoundError):
            scenario_names()
        # Still broken on the next call (not silently degraded)...
        with pytest.raises(ModuleNotFoundError):
            scenario_names()
        # ...and healthy again once the environment is fixed.
        monkeypatch.delenv(reg.DISCOVERY_ENV)
        assert "memcached" in scenario_names()


# ---------------------------------------------------------------------------
# MMPP


class TestMMPPArrivals:
    def test_long_run_rate_matches_stationary_mean(self):
        process = MMPPArrivals(
            rates_per_s=(5_000, 20_000, 50_000, 20_000),
            dwell_ns=(2 * MS, 1 * MS, 1 * MS, 1 * MS),
        )
        expected = (5_000 * 2 + 20_000 + 50_000 + 20_000) / 5
        assert process.mean_rate_per_s() == pytest.approx(expected)
        rng = np.random.default_rng(7)
        gaps = [process.next_gap_ns(rng) for _ in range(40_000)]
        measured = len(gaps) * S / sum(gaps)
        assert measured == pytest.approx(expected, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPArrivals((1_000,), (1 * MS,))  # one phase
        with pytest.raises(ValueError):
            MMPPArrivals((1_000, 2_000), (1 * MS,))  # length mismatch
        with pytest.raises(ValueError):
            MMPPArrivals((0.0, 0.0), (1 * MS, 1 * MS))  # all quiet
        with pytest.raises(ValueError):
            MMPPArrivals((1_000, -1.0), (1 * MS, 1 * MS))
        with pytest.raises(ValueError):
            MMPPArrivals((1_000, 2_000), (0, 1 * MS))

    def test_quiet_phases_produce_long_gaps(self):
        process = MMPPArrivals((50_000, 0.0), (1 * MS, 1 * MS))
        rng = np.random.default_rng(3)
        gaps = [process.next_gap_ns(rng) for _ in range(5_000)]
        assert max(gaps) > 500 * US


# ---------------------------------------------------------------------------
# Trace replay


class TestTraceReplayArrivals:
    def test_ignores_rng_entirely(self):
        a = TraceReplayArrivals([10, 20, 30])
        b = TraceReplayArrivals([10, 20, 30])
        rng = np.random.default_rng(1)
        assert [a.next_gap_ns(rng) for _ in range(6)] == [10, 20, 30, 10, 20, 30]
        assert [b.next_gap_ns(None) for _ in range(6)] == [10, 20, 30, 10, 20, 30]

    def test_no_cycle_raises_on_exhaustion(self):
        process = TraceReplayArrivals([10, 20], cycle=False)
        assert process.next_gap_ns(None) == 10
        assert process.next_gap_ns(None) == 20
        with pytest.raises(IndexError, match="exhausted"):
            process.next_gap_ns(None)

    def test_mean_rate_from_trace(self):
        process = TraceReplayArrivals([100_000] * 10)
        assert process.mean_rate_per_s() == pytest.approx(10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplayArrivals([])
        with pytest.raises(ValueError):
            TraceReplayArrivals([100, 0, 100])

    def test_from_file_and_formats(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("# comment\ngap_ns\n100\n200\n")
        assert TraceReplayArrivals.from_file(csv).gaps_ns == (100, 200)
        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text('{"gap_ns": 100}\n250\n')
        assert TraceReplayArrivals.from_file(jsonl).gaps_ns == (100, 250)
        bad = tmp_path / "bad.csv"
        bad.write_text("abc\n")
        with pytest.raises(ValueError, match="expected numeric trace row"):
            TraceReplayArrivals.from_file(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("gap_ns\n")
        with pytest.raises(ValueError, match="no arrivals"):
            TraceReplayArrivals.from_file(empty)


class TestTraceReplayWorkload:
    def test_service_column_all_or_nothing(self, tmp_path):
        partial = tmp_path / "partial.csv"
        partial.write_text("gap_ns,service_ns\n100,5000\n200\n")
        with pytest.raises(ValueError, match="every row or none"):
            load_trace(partial)

    def test_committed_example_trace_parses(self):
        gaps, services = load_trace(EXAMPLE)
        assert len(gaps) == 100
        assert services is not None and len(services) == 100
        bundled_gaps, bundled_services = load_trace(EXAMPLE_TRACE)
        assert bundled_services is None
        assert len(bundled_gaps) >= 50

    def test_replay_is_seed_independent(self):
        def arrivals(seed):
            sim = Simulator(seed=seed)
            sink = _Collector()
            TraceReplayWorkload(EXAMPLE).start(sim, sink)
            sim.run(until_ns=20 * MS)
            return [(r.arrival_ns, r.service_ns) for r in sink.requests]

        first, second = arrivals(1), arrivals(999)
        assert first and first == second

    def test_serial_and_parallel_sweep_csvs_are_byte_identical(self, tmp_path):

        def argv(out, workers):
            return [
                "sweep", "--scenario", "replay", "--trace", str(EXAMPLE),
                "--configs", "Cshallow,CPC1A", "--seeds", "1,2",
                "--duration-ms", "5", "--warmup-ms", "1",
                "--workers", workers, "--out", str(out),
            ]

        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert cli_main(argv(serial, "1")) == 0
        assert cli_main(argv(parallel, "2")) == 0
        serial_bytes = serial.read_bytes()
        assert serial_bytes == parallel.read_bytes()
        # And across runs: replaying the same trace again is identical.
        rerun = tmp_path / "rerun.csv"
        assert cli_main(argv(rerun, "2")) == 0
        assert rerun.read_bytes() == serial_bytes
        rows = serial_bytes.decode().splitlines()
        assert len(rows) == 1 + 4  # 2 configs x 1 point x 2 seeds
        assert all("replay" in row for row in rows[1:])


# ---------------------------------------------------------------------------
# New workloads


class TestNginxWorkload:
    def test_offered_rate_is_respected(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        NginxWorkload(50_000).start(sim, sink)
        sim.run(until_ns=200 * MS)
        assert len(sink.requests) / 0.2 == pytest.approx(50_000, rel=0.05)

    def test_mix_is_static_dominated_and_short(self):
        sim = Simulator(seed=3)
        sink = _Collector()
        workload = NginxWorkload(40_000)
        workload.start(sim, sink)
        sim.run(until_ns=100 * MS)
        static = [r for r in sink.requests if r.kind == "http-static"]
        assert len(static) / len(sink.requests) == pytest.approx(0.85, abs=0.03)
        # Static hits are an order of magnitude shorter than memcached.
        assert np.mean([r.service_ns for r in static]) < 15 * US

    def test_utilization_stays_low_at_high_rate(self):
        assert NginxWorkload(120_000).expected_utilization() < 0.25

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            NginxWorkload(0)


class TestRpcFanoutWorkload:
    def test_fanout_requests_share_a_timestamp(self):
        sim = Simulator(seed=3)
        sink = _Collector(sim)
        RpcFanoutWorkload(2_000, fanout=4).start(sim, sink)
        sim.run(until_ns=50 * MS)
        subs = [r for r in sink.requests if r.kind.endswith("-sub")]
        merges = [r for r in sink.requests if r.kind.endswith("-merge")]
        assert subs and merges
        # Every root RPC scatters its subs at one instant: the whole
        # point of the scenario is simultaneous cross-core wakeups.
        by_rpc = {}
        for sub in subs:
            by_rpc.setdefault(sub.kind.split("-")[0], []).append(sub)
        complete = [group for group in by_rpc.values() if len(group) == 4]
        assert complete
        for group in complete:
            assert len({r.arrival_ns for r in group}) == 1

    def test_merge_arrives_after_its_subs(self):
        sim = Simulator(seed=5)
        sink = _Collector(sim)
        RpcFanoutWorkload(1_000, fanout=3).start(sim, sink)
        sim.run(until_ns=50 * MS)
        arrivals = {}
        for request in sink.requests:
            rpc, _, role = request.kind.partition("-")
            arrivals.setdefault(rpc, {}).setdefault(role, []).append(request.arrival_ns)
        checked = 0
        for roles in arrivals.values():
            if "merge" in roles and "sub" in roles:
                assert roles["merge"][0] > max(roles["sub"])
                checked += 1
        assert checked > 10

    def test_offered_qps_counts_subs_and_merge(self):
        workload = RpcFanoutWorkload(1_000, fanout=4)
        assert workload.offered_qps == 5_000
        assert workload.describe()["fanout"] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RpcFanoutWorkload(0)
        with pytest.raises(ValueError):
            RpcFanoutWorkload(1_000, fanout=0)


class TestScenarioSweeps:
    def test_spec_mixes_scenarios_in_one_grid(self):
        spec = SweepSpec(
            workloads=(
                WorkloadPoint(scenario="nginx", qps=40_000.0),
                WorkloadPoint(scenario="rpc-fanout", qps=8_000.0),
                WorkloadPoint(scenario="idle"),
            ),
            configs=("CPC1A",),
            duration_ns=4 * MS,
            warmup_ns=1 * MS,
        )
        labels = [cell.label() for cell in spec.cells()]
        assert labels == [
            "CPC1A/nginx@40000/seed0",
            "CPC1A/rpc-fanout@8000/seed0",
            "CPC1A/idle/seed0",
        ]

    def test_equivalent_idle_spellings_rejected_across_scenarios(self):
        with pytest.raises(ValueError, match="equivalent spellings"):
            SweepSpec(
                workloads=(
                    WorkloadPoint(scenario="nginx", qps=0.0),
                    WorkloadPoint(scenario="idle"),
                ),
                configs=("CPC1A",),
                duration_ns=4 * MS,
            )
