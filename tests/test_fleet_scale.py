"""Cluster-scale guarantees: recycle byte-equality, the parked-server
fast path's conservation laws, and the unified cell protocol."""

from __future__ import annotations

import ast
import csv
import io
from pathlib import Path

import pytest

from repro.api import Cell, CellRuntime, run_cell
from repro.fleet import (
    FLEET_CSV_COLUMNS,
    ClusterConfig,
    FleetCell,
    FleetMachine,
    flatten_fleet_result,
    run_fleet_experiment,
)
from repro.lint.sanitizer import verify_recycle_roundtrip
from repro.server.experiment import run_experiment
from repro.server.machine import ServerMachine
from repro.sweep.spec import ExperimentSpec
from repro.units import MS
from repro.workloads.memcached import MemcachedWorkload

NOHZ = (("tick_mode", "nohz_idle"), ("timer_tick_hz", 250))


def diurnal_cell(**overrides):
    base = dict(
        workload="memcached-diurnal", qps=40_000.0, preset="low",
        machine="CPC1A", n_servers=16, routing="power-aware-pack",
        seed=3, duration_ns=4 * MS, warmup_ns=1 * MS,
    )
    base.update(overrides)
    return FleetCell(**base)


@pytest.mark.slow
class TestClusterRecycleGolden:
    """A recycled fleet is byte-identical to a freshly built one."""

    def test_event_stream_digest_matches(self):
        # The raw dispatched event stream — stronger than any
        # aggregate: one stray event after restore diverges the digest.
        report = verify_recycle_roundtrip(
            lambda: MemcachedWorkload(qps=40_000),
            ClusterConfig("CPC1A", 16, "power-aware-pack"),
            seed=3,
            duration_ns=4 * MS,
        )
        assert report.match, report.describe()

    def test_csv_row_is_byte_identical(self):
        cell = diurnal_cell()
        fresh = run_cell(cell)
        # Warm fleet: built under another seed, dirtied by a full run,
        # then rewound into this cell's fresh state.
        warm = FleetMachine(cell.cluster(), seed=9)
        warm.checkpoint()
        run_fleet_experiment(
            MemcachedWorkload(qps=55_000), warm.cluster,
            duration_ns=3 * MS, warmup_ns=1 * MS, seed=9, fleet=warm,
        )
        cell.recycle(warm)
        recycled = run_cell(cell, runtime=warm)

        def row(result) -> str:
            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=FLEET_CSV_COLUMNS)
            writer.writeheader()
            writer.writerow(flatten_fleet_result(result, spec=cell))
            return buffer.getvalue()

        assert fresh == recycled
        assert row(fresh) == row(recycled)

    def test_recycle_retargets_the_routing_knobs(self):
        # Routing/dispatch/watermark are balancer-only: one warm fleet
        # serves every routing and watermark of the same server lineup.
        cases = [
            (diurnal_cell(n_servers=4),
             diurnal_cell(n_servers=4, routing="power-aware-spread")),
            # An explicit watermark recycled into the default one (a
            # slot per core), which must resolve as a fresh build does.
            (diurnal_cell(n_servers=4, pack_watermark=2),
             diurnal_cell(n_servers=4)),
        ]
        for first, then in cases:
            assert first.warm_slot() == then.warm_slot()
            warm = first.build()
            warm.checkpoint()
            run_cell(first, runtime=warm)  # dirty it with the first cell
            then.recycle(warm)
            assert run_cell(then, runtime=warm) == run_cell(then)

    def test_recycle_rejects_a_different_lineup(self):
        warm = FleetMachine(ClusterConfig("CPC1A", 2), seed=1)
        warm.checkpoint()
        with pytest.raises(ValueError, match="cannot be recycled"):
            warm.recycle(ClusterConfig("CPC1A", 3), seed=1)
        with pytest.raises(ValueError, match="cannot be recycled"):
            warm.recycle(ClusterConfig("Cshallow", 2), seed=1)


class TestParkedFastPath:
    """The analytic park path must be invisible in every observable."""

    def nohz_cluster(self, n=4):
        return ClusterConfig("CPC1A", n, "power-aware-pack", props=NOHZ)

    def ab_fleets(self, monkeypatch, build):
        fleets = {}
        for park in (True, False):
            monkeypatch.setenv("REPRO_FLEET_PARK", "1" if park else "0")
            fleets[park] = build()
        return fleets

    def test_parked_run_matches_the_event_driven_run(self, monkeypatch):
        cluster = self.nohz_cluster()
        results, fleets = {}, {}
        for park in (True, False):
            monkeypatch.setenv("REPRO_FLEET_PARK", "1" if park else "0")
            fleets[park] = FleetMachine(cluster, seed=2)
            results[park] = run_fleet_experiment(
                MemcachedWorkload(qps=20_000), cluster,
                duration_ns=6 * MS, warmup_ns=1 * MS, seed=2,
                fleet=fleets[park],
            )
        # Full observable equality: fleet totals, latency distribution
        # and every per-server power/residency breakdown.
        assert results[True] == results[False]
        assert results[True].servers == results[False].servers
        # ... while the parked kernel genuinely did less work.
        assert (
            fleets[True].stats().events_processed
            < fleets[False].stats().events_processed
        )

    def test_idle_servers_conserve_energy_and_tick_counters(self, monkeypatch):
        # An untouched nohz fleet parks itself; energy, residency and
        # the closed-form tick credits must match the event-driven sim.
        fleets = self.ab_fleets(
            monkeypatch, lambda: FleetMachine(self.nohz_cluster(), seed=1)
        )
        for fleet in fleets.values():
            fleet.run_for(8 * MS)
            fleet.sync_parked()
        parked, driven = fleets[True], fleets[False]
        assert parked.parked_servers == parked.n_servers
        assert driven.parked_servers == 0
        assert parked.meter.energy_j() == driven.meter.energy_j()
        for a, b in zip(parked.machines, driven.machines):
            assert a.ticks.ticks_suppressed == b.ticks.ticks_suppressed
            assert a.ticks.ticks_delivered == b.ticks.ticks_delivered
            assert (
                a.package.residency.fractions()
                == b.package.residency.fractions()
            )
        assert (
            parked.stats().events_processed < driven.stats().events_processed
        )

    def test_periodic_tick_servers_never_park(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_PARK", "1")
        cluster = ClusterConfig(
            "Cshallow", 2, props={"timer_tick_hz": 250, "tick_mode": "periodic"}
        )
        fleet = FleetMachine(cluster, seed=1)
        fleet.run_for(8 * MS)
        # Periodic ticks deliver real work to idle cores; detaching
        # them would change the physics, so those servers stay wired.
        assert fleet.parked_servers == 0

    def test_suspend_resume_rejoins_the_tick_grid(self):
        # Bit-exact grid: a park/unpark cycle must not shift any
        # timer's firing phase.
        machine = ServerMachine(
            ClusterConfig("CPC1A", 1, props=NOHZ).build_machine_config(),
            seed=1,
        )
        ticks = machine.ticks
        machine.run_for(9 * MS)
        fired_before = [timer.fire_count for timer in ticks._timers]
        next_before = [timer._event.time for timer in ticks._timers]
        ticks.suspend()
        assert ticks.suspended
        machine.run_for(13 * MS)
        ticks.resume()
        assert not ticks.suspended
        # Every missed grid point was credited...
        period = ticks.period_ns
        now = machine.sim.now
        for before, nxt, timer in zip(
            fired_before, next_before, ticks._timers
        ):
            missed = (now - nxt) // period + 1
            assert timer.fire_count == before + missed
            # ... and the re-armed event sits on the original grid.
            assert timer._event.time == nxt + missed * period


class TestCellProtocol:
    """One protocol, two cell kinds, identical results."""

    def test_both_cell_kinds_satisfy_the_protocol(self):
        fleet_cell = diurnal_cell(n_servers=2)
        spec = ExperimentSpec(
            workload="memcached", qps=30_000.0, preset="low",
            config="CPC1A", seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
        )
        assert isinstance(fleet_cell, Cell)
        assert isinstance(spec, Cell)
        assert isinstance(fleet_cell.build(), CellRuntime)
        assert isinstance(spec.build(), CellRuntime)

    def test_run_cell_matches_the_classic_server_driver(self):
        spec = ExperimentSpec(
            workload="memcached", qps=30_000.0, preset="low",
            config="CPC1A", seed=2, duration_ns=4 * MS, warmup_ns=1 * MS,
        )
        via_cell = run_cell(spec)
        classic = run_experiment(
            spec.build_workload(), spec.build_config(),
            duration_ns=spec.duration_ns, warmup_ns=spec.warmup_ns,
            seed=spec.seed,
        )
        assert via_cell == classic

    def test_run_cell_matches_the_classic_fleet_driver(self):
        cell = diurnal_cell(n_servers=2)
        via_cell = run_cell(cell)
        classic = run_fleet_experiment(
            cell.build_workload(), cell.cluster(),
            duration_ns=cell.duration_ns, warmup_ns=cell.warmup_ns,
            seed=cell.seed,
        )
        assert via_cell == classic


def imports_of(path: Path) -> set[str]:
    """Every module an AST imports, at any depth (``from repro import
    api`` counts as ``repro.api``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


class TestApiLayering:
    """``repro.api`` is a facade at the top of the import graph; the
    cell lifecycle it re-exports sits at the bottom."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    def test_no_module_imports_the_facade(self):
        offenders = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if path.name != "api.py" and "repro.api" in imports_of(path)
        ]
        assert offenders == []

    def test_cell_module_is_a_leaf(self):
        imported = imports_of(self.SRC / "cell.py")
        assert [name for name in imported if name.startswith("repro")] == []

    def test_fleet_reaches_the_sweep_layer_only_through_public_names(self):
        # The override-pair algebra lives in repro.props, and the cell
        # and grid cores are public, so the cluster needs no sweep
        # import and the fleet's specs no private one.
        cluster = imports_of(self.SRC / "fleet" / "cluster.py")
        assert [name for name in cluster if name.startswith("repro.sweep")] == []
        spec = imports_of(self.SRC / "fleet" / "spec.py")
        assert [
            name for name in spec
            if name.startswith("repro.sweep") and "._" in name
        ] == []

    def test_facade_is_plain_imports(self):
        import repro.api
        import repro.cell
        import repro.sweep.session

        assert "__getattr__" not in vars(repro.api)
        assert repro.api.SweepSession is repro.sweep.session.SweepSession
        assert repro.api.run_cell is repro.cell.run_cell
