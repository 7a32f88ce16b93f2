"""Targeted tests for paths the broader suites exercise only lightly."""

import pytest

from _machines import build_machine
from repro.cli import main as cli_main
from repro.server.experiment import run_experiment
from repro.server.configs import cdeep, cpc1a
from repro.soc.package import PackageCState
from repro.units import MS, US
from repro.workloads.base import NullWorkload, Workload


class TestGpmuPc2Abort:
    def test_wake_during_pc2_drain_aborts_cheaply(self):
        """A wake inside the 1 us PC2 drain returns to PC0 without
        ever touching links, DRAM or the CLM."""
        machine = build_machine("Cdeep", seed=41)
        # Cores pick CC6 on first idle (optimistic menu prediction)
        # and finish entry at ~44 us; the GPMU then drains in PC2 for
        # 1 us. Poll in fine steps from just before that point.
        machine.sim.run(until_ns=40 * US)
        caught = False
        for _ in range(200):
            machine.sim.run(until_ns=machine.sim.now + 100)
            if machine.gpmu.package_state == PackageCState.PC2.value:
                caught = True
                break
        assert caught, "PC2 drain window never observed"
        machine.cores[0].submit(5 * US)
        machine.sim.run(until_ns=machine.sim.now + 200 * US)
        # The abort path must not have powered anything down.
        assert machine.gpmu.pc6_entries == 0
        assert all(link.state == "L0" for link in machine.links)
        assert machine.cores[0].jobs_completed == 1


class TestApmuWakeWhileExiting:
    def test_second_waiter_during_exit_is_released(self):
        machine = build_machine("CPC1A", seed=42)
        machine.sim.run(until_ns=50 * US)
        assert machine.apmu.phase == "pc1a"
        released = []
        machine.apmu.request_wake(lambda: released.append("first"))
        # Immediately queue a second waiter while the exit runs.
        machine.apmu.request_wake(lambda: released.append("second"))
        machine.sim.run(until_ns=machine.sim.now + 1 * US)
        assert released == ["first", "second"]
        assert machine.apmu.pc1a_exits == 1  # one exit served both


class TestSocWatchVisiblePeriods:
    def test_visible_periods_filtered(self, sim):
        from repro.hw.signals import Signal
        from repro.tracing.idle import IdlePeriodTracker
        from repro.tracing.socwatch import SocWatchView

        signal = Signal("idle")
        tracker = IdlePeriodTracker(sim, signal)
        for start, end in ((0, 5_000), (10_000, 40_000)):
            sim.schedule_at(start, signal.set, True)
            sim.schedule_at(end, signal.set, False)
        sim.run()
        view = SocWatchView(tracker)
        assert view.visible_periods_ns() == [30_000]


class TestExperimentResultViews:
    def test_pc6_residency_view(self):
        result = run_experiment(
            NullWorkload(), cdeep(), duration_ns=10 * MS, warmup_ns=5 * MS
        )
        assert result.pc6_residency() > 0.99
        assert result.pc1a_residency() == 0.0

    def test_reusing_a_machine_instance(self):
        from repro.server.machine import ServerMachine

        machine = ServerMachine(cpc1a(), seed=8)
        first = run_experiment(
            NullWorkload(),
            cpc1a(),
            duration_ns=5 * MS,
            warmup_ns=1 * MS,
            seed=8,
            machine=machine,
        )
        # The same machine can be measured again for a second window.
        machine.begin_measurement()
        machine.run_for(5 * MS)
        assert machine.meter.energy_j("package") > 0
        assert first.duration_ns == 5 * MS


class TestWorkloadBase:
    def test_abstract_workload_raises(self, sim):
        workload = Workload()
        with pytest.raises(NotImplementedError):
            workload.offered_qps
        with pytest.raises(NotImplementedError):
            workload.start(sim, None)

    def test_default_describe(self):
        assert NullWorkload().describe() == {"name": "idle", "offered_qps": 0.0}


class TestCliCompareAndWorkloads:
    def test_compare_command(self, capsys):
        code = cli_main([
            "compare", "--workload", "memcached", "--qps", "8000",
            "--duration-ms", "30", "--warmup-ms", "5",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "power savings vs Cshallow" in output

    def test_run_kafka_preset(self, capsys):
        code = cli_main([
            "run", "--workload", "kafka", "--preset", "low",
            "--config", "Cshallow", "--duration-ms", "40", "--warmup-ms", "10",
        ])
        assert code == 0
        assert "kafka" in capsys.readouterr().out

    def test_run_mysql_preset(self, capsys):
        code = cli_main([
            "run", "--workload", "mysql", "--preset", "mid",
            "--config", "CPC1A", "--duration-ms", "40", "--warmup-ms", "10",
        ])
        assert code == 0
        assert "mysql" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        from repro.scenarios.registry import build

        with pytest.raises(KeyError):
            build("postgres", 1000, "low")

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("window", [
        ["--duration-ms", "0"], ["--warmup-ms", "-1"],
    ])
    def test_bad_window_exits_with_one_line(self, command, window):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, *window])
        message = str(exit_info.value.code)
        assert message.startswith(window[0]) and "\n" not in message

    def test_export_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main([
            "export", "--rates", "0,8000", "--configs", "Cshallow,CPC1A",
            "--duration-ms", "25", "--warmup-ms", "5", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("offered_qps,config,")
        assert len(lines) == 1 + 4  # header + 2 rates x 2 configs
        idle_apc = [line for line in lines if line.startswith("0.0,CPC1A")][0]
        assert ",29.1" in idle_apc  # Table 1's PC1A total power

    def test_export_rejects_empty_rates(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["export", "--rates", "", "--out", str(tmp_path / "x.csv")])

    def test_export_missing_trace_exits_with_one_line(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid export grid: .*No such"):
            cli_main([
                "export", "--workload", "replay",
                "--preset", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "x.csv"),
            ])


class TestMachineTicksIntegration:
    def test_nohz_machine_still_reaches_pc1a(self):
        import dataclasses

        config = dataclasses.replace(cpc1a(), timer_tick_hz=250, tick_mode="nohz_idle")
        result = run_experiment(
            NullWorkload(), config, duration_ns=20 * MS, warmup_ns=5 * MS
        )
        # NOHZ suppresses idle ticks entirely on an idle machine.
        assert result.pc1a_residency() > 0.99

    def test_tick_counters_reported(self):
        import dataclasses

        from repro.server.machine import ServerMachine

        config = dataclasses.replace(cpc1a(), timer_tick_hz=1000)
        machine = ServerMachine(config, seed=1)
        machine.sim.run(until_ns=20 * MS)
        # 10 cores x 1 kHz x 20 ms ~ 200 ticks.
        assert machine.ticks.ticks_delivered == pytest.approx(200, rel=0.2)
