"""The autoscaling control plane: estimators, policies, lifecycle.

Unit tests drive controllers against a fake plane (pure decision
logic), lifecycle and deep-gating tests run a real fleet, and the
acceptance pins mirror the fleet-scale guarantees: a controller-driven
sweep is serial==parallel byte-identical, and a mid-flight controller
survives checkpoint→recycle with a byte-identical event stream.
"""

from __future__ import annotations

import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ACTIVE,
    BOOTING,
    CONTROL_POLICIES,
    DRAINING,
    PARKED,
    ArrivalEstimator,
    LatencyWindow,
    build_controller,
)
from repro.control.controllers import (
    ACTIVE_IDLE_W,
    P99_OVER_MEAN,
    PARK_PATIENCE_TICKS,
    PARKED_W,
    PREDICT_MARGIN,
    RHO_CAP,
    SloPackController,
    SleepScaleController,
    controller_def,
)
from repro.control.estimators import EWMA_ALPHA, LATENCY_RING_CAPACITY
from repro.control.plane import ControlPlane
from repro.fleet import (
    FLEET_CSV_COLUMNS,
    ClusterConfig,
    FleetCell,
    FleetMachine,
    FleetSpec,
    flatten_fleet_result,
    run_fleet_experiment,
)
from repro.lint.sanitizer import verify_recycle_roundtrip
from repro.power.budgets import CorePowerSpec
from repro.soc.pstates import SKX_PSTATES
from repro.sweep import SweepSession, WorkloadPoint
from repro.units import MS
from repro.workloads.memcached import MemcachedWorkload

#: Aggressive-but-safe knobs that make lifecycle transitions happen
#: inside millisecond-scale test windows.
FAST_KNOBS = (
    ("fleet.control_period_ns", 50_000),
    ("fleet.park_drain_ns", 0),
    ("fleet.park_boot_ns", 100_000),
)

GATE_KNOBS = FAST_KNOBS + (
    ("fleet.gate_dram_ns", 200_000),
    ("fleet.gate_nic_ns", 200_000),
    ("fleet.gate_iolink_ns", 200_000),
)


class TestEstimators:
    def test_latency_window_empty_has_no_percentile(self):
        window = LatencyWindow()
        assert window.p99() is None

    def test_latency_window_exact_nearest_rank(self):
        window = LatencyWindow()
        for value in range(1, 101):  # 1..100, shuffled order irrelevant
            window.record(value)
        assert window.p99() == 100
        assert window.percentile(50.0) == 51

    def test_latency_window_ring_wraps(self):
        window = LatencyWindow()
        for _ in range(LATENCY_RING_CAPACITY):
            window.record(1)
        for _ in range(LATENCY_RING_CAPACITY):
            window.record(1_000_000)
        # The old epoch has been fully overwritten.
        assert window.p99() == 1_000_000
        assert len(window.ring) == LATENCY_RING_CAPACITY

    def test_arrival_estimator_first_tick_primes(self):
        est = ArrivalEstimator()
        for _ in range(10):
            est.observe(2_000)
        est.advance(100_000)
        assert est.rate_per_ns == pytest.approx(10 / 100_000)
        assert est.mean_service_ns == pytest.approx(2_000)

    def test_arrival_estimator_ewma_blends(self):
        est = ArrivalEstimator()
        for _ in range(10):
            est.observe(2_000)
        est.advance(100_000)
        for _ in range(30):
            est.observe(4_000)
        est.advance(100_000)
        expected_rate = (1 - EWMA_ALPHA) * 1e-4 + EWMA_ALPHA * 3e-4
        assert est.rate_per_ns == pytest.approx(expected_rate)
        expected_service = (1 - EWMA_ALPHA) * 2_000 + EWMA_ALPHA * 4_000
        assert est.mean_service_ns == pytest.approx(expected_service)

    def test_empty_tick_decays_rate_but_keeps_service_estimate(self):
        est = ArrivalEstimator()
        for _ in range(10):
            est.observe(2_000)
        est.advance(100_000)
        est.advance(100_000)  # silence
        assert est.rate_per_ns == pytest.approx((1 - EWMA_ALPHA) * 1e-4)
        assert est.mean_service_ns == pytest.approx(2_000)


class TestControllerRegistry:
    def test_policy_names_pinned(self):
        assert CONTROL_POLICIES == ("static", "slo-pack", "sleepscale")

    def test_registry_rows_carry_docs(self):
        for name in CONTROL_POLICIES:
            assert controller_def(name).doc

    def test_static_builds_no_controller(self):
        with pytest.raises(ValueError, match="no control plane"):
            build_controller("static")

    def test_unknown_policy_lists_the_names(self):
        with pytest.raises(ValueError, match="sleepscale"):
            build_controller("pid")

    def test_builders_return_fresh_instances(self):
        assert build_controller("slo-pack") is not build_controller("slo-pack")
        assert isinstance(build_controller("sleepscale"), SleepScaleController)


class FakePlane:
    """The controller-facing surface of ControlPlane, recorded."""

    def __init__(self, n_servers=4, last_p99_ns=-1, slo_p99_ns=1_000_000,
                 rate_per_ns=0.0, mean_service_ns=10_000.0):
        self.n_servers = n_servers
        self.last_p99_ns = last_p99_ns
        self.slo_p99_ns = slo_p99_ns
        self.cores_per_server = 10
        self.core_spec = CorePowerSpec()
        self.pstate_table = SKX_PSTATES
        self.overhead_ns = 12_000
        self.arrivals = ArrivalEstimator()
        self.arrivals.rate_per_ns = rate_per_ns
        self.arrivals.mean_service_ns = mean_service_ns
        self.applied_targets: list[int] = []
        self.applied_pstates: list[str] = []

    def apply_active_target(self, target):
        self.applied_targets.append(int(target))

    def set_fleet_pstate(self, name):
        self.applied_pstates.append(name)


class TestSloPackController:
    def test_latency_pressure_grows_immediately(self):
        controller = SloPackController()
        plane = FakePlane(n_servers=4, last_p99_ns=950_000)
        controller.target = 2
        controller.tick(plane)
        assert plane.applied_targets == [3]
        assert controller.comfort_ticks == 0

    def test_comfort_parks_only_after_patience(self):
        controller = SloPackController()
        plane = FakePlane(n_servers=4, last_p99_ns=100_000)
        for _ in range(PARK_PATIENCE_TICKS - 1):
            controller.tick(plane)
        assert plane.applied_targets == [4, 4]
        controller.tick(plane)
        assert plane.applied_targets[-1] == 3

    def test_middle_band_resets_the_streak(self):
        controller = SloPackController()
        plane = FakePlane(n_servers=4, last_p99_ns=100_000)
        controller.tick(plane)
        controller.tick(plane)
        plane.last_p99_ns = 700_000  # between comfort and guard bands
        controller.tick(plane)
        assert controller.comfort_ticks == 0
        assert plane.applied_targets == [4, 4, 4]

    def test_target_clamps_to_fleet_bounds(self):
        controller = SloPackController()
        plane = FakePlane(n_servers=2, last_p99_ns=999_999_999)
        controller.target = 2
        controller.tick(plane)
        assert plane.applied_targets == [2]  # cannot grow past the fleet
        plane.last_p99_ns = 0
        controller.target = 1
        for _ in range(PARK_PATIENCE_TICKS):
            controller.tick(plane)
        assert plane.applied_targets[-1] == 1  # never below one server


def reference_search_grid(plane):
    """SleepScale's grid scan cell by cell, every term recomputed."""
    table = plane.pstate_table
    rate = plane.arrivals.rate_per_ns
    service_ns = plane.arrivals.mean_service_ns
    cores = plane.cores_per_server
    core = plane.core_spec
    slo_budget = PREDICT_MARGIN * plane.slo_p99_ns - plane.overhead_ns
    best, best_power = None, math.inf
    for n_active in range(1, plane.n_servers + 1):
        for state in table.states:
            scale = table.service_scale(state)
            rho = rate * service_ns * scale / (n_active * cores)
            if rho >= RHO_CAP:
                continue
            mean_ns = service_ns * scale / (1.0 - rho)
            if P99_OVER_MEAN * mean_ns > slo_budget:
                continue
            dyn_w = core.cc0_w * table.power_scale(state) - core.cc1_w
            power = (
                n_active * (ACTIVE_IDLE_W + cores * rho * dyn_w)
                + (plane.n_servers - n_active) * PARKED_W
            )
            if power < best_power:
                best_power = power
                best = (n_active, state.name)
    return best


class TestSleepScaleController:
    @settings(max_examples=300, deadline=None)
    @given(
        n_servers=st.integers(1, 64),
        rate_per_ns=st.floats(0.0, 0.05),
        mean_service_ns=st.floats(100.0, 1e6),
        slo_p99_ns=st.integers(10_000, 20_000_000),
    )
    def test_grid_search_matches_the_cell_by_cell_reference(
        self, n_servers, rate_per_ns, mean_service_ns, slo_p99_ns
    ):
        plane = FakePlane(
            n_servers=n_servers,
            slo_p99_ns=slo_p99_ns,
            rate_per_ns=rate_per_ns,
            mean_service_ns=mean_service_ns,
        )
        choice = SleepScaleController()._search_grid(plane)
        assert choice == reference_search_grid(plane)

    def test_idle_fleet_consolidates_to_one_slow_server(self):
        # 1k qps against a 4x10-core fleet: one server at the ladder
        # floor is feasible and cheapest (park 3, crawl on 1).
        controller = SleepScaleController()
        plane = FakePlane(rate_per_ns=1e-6, mean_service_ns=10_000.0)
        choice = controller._search_grid(plane)
        assert choice == (1, "Pn")

    def test_heavy_load_needs_the_whole_fleet(self):
        # rho >= 0.95 for any 3-server subset: only n=4 is feasible,
        # and at that load a mid-ladder speed still beats nominal on
        # predicted power (the joint speed-and-sleep trade).
        controller = SleepScaleController()
        plane = FakePlane(rate_per_ns=2.85e-3, mean_service_ns=10_000.0)
        choice = controller._search_grid(plane)
        assert choice is not None
        n_active, pstate = choice
        assert n_active == 4
        assert pstate == "P2"

    def test_infeasible_load_returns_none(self):
        controller = SleepScaleController()
        plane = FakePlane(rate_per_ns=1.0, mean_service_ns=10_000.0)
        assert controller._search_grid(plane) is None

    def test_target_moves_one_step_per_tick(self):
        controller = SleepScaleController()
        plane = FakePlane(rate_per_ns=1e-6, mean_service_ns=10_000.0)
        controller.tick(plane)  # lazily inits to 4, then steps toward 1
        assert plane.applied_targets == [3]
        controller.tick(plane)
        assert plane.applied_targets == [3, 2]
        assert plane.applied_pstates[-1] == "Pn"

    def test_measured_p99_backstop_overrides_the_model(self):
        # The open-loop grid would consolidate, but measured latency
        # is over the guard band: grow and go back to nominal speed.
        controller = SleepScaleController()
        plane = FakePlane(rate_per_ns=1e-6, mean_service_ns=10_000.0,
                          last_p99_ns=950_000)
        controller.target = 2
        controller.pstate = "Pn"
        controller.tick(plane)
        assert plane.applied_targets == [3]
        assert plane.applied_pstates == ["P1"]


def controlled_cluster(n=2, control="slo-pack", knobs=FAST_KNOBS, **kw):
    return ClusterConfig(
        "CPC1A", n, "least-outstanding",
        control=control, control_props=knobs, **kw,
    )


class HandsOff:
    """Stub controller: issues no commands.

    Swapped in for lifecycle tests that drive park/unpark by hand —
    the real slo-pack policy would re-park an idle server within one
    tick, making ACTIVE unobservable at tick boundaries.
    """

    def tick(self, plane):
        pass


class TestSloBudget:
    @pytest.mark.parametrize("latencies", [(0, 500_000), (500_000, 0)])
    def test_overhead_takes_the_largest_network_latency(self, latencies):
        # The pooled p99 holds the slowest server's requests too: the
        # budget is the same conservative one in either server order.
        cluster = controlled_cluster(
            control="sleepscale",
            server_props=tuple({"network_latency_ns": ns} for ns in latencies),
        )
        plane = FleetMachine(cluster, seed=1).control
        assert plane.overhead_ns == 500_000 + cluster.dispatch_latency_ns == 502_000


class TestLifecycle:
    def test_static_builds_no_plane(self):
        fleet = FleetMachine(ClusterConfig("CPC1A", 2), seed=1)
        assert fleet.control is None

    def test_idle_fleet_parks_down_to_one_server(self):
        fleet = FleetMachine(controlled_cluster(n=4), seed=1)
        fleet.run_for(3 * MS)
        plane = fleet.control
        phases = [int(p) for p in plane.phase]
        assert phases[0] == ACTIVE
        assert phases.count(PARKED) == 3
        # Parked servers are held out of routing.
        assert fleet.state.n_unroutable == 3

    def test_park_never_strands_the_balancer(self):
        fleet = FleetMachine(controlled_cluster(n=2), seed=1)
        plane = fleet.control
        plane.park(0)
        plane.park(1)  # refused: it would leave nothing routable
        assert int(plane.phase[0]) == DRAINING
        assert int(plane.phase[1]) == ACTIVE
        assert fleet.state.n_unroutable == 1

    def test_unpark_pays_the_boot_window(self):
        fleet = FleetMachine(controlled_cluster(n=2), seed=1)
        plane = fleet.control
        fleet.run_for(1 * MS)  # server 1 parks
        assert int(plane.phase[1]) == PARKED
        plane.controller = HandsOff()  # keep the policy from re-parking
        plane.unpark(1)
        assert int(plane.phase[1]) == BOOTING
        assert fleet.state.unroutable[1]  # not routable until boot ends
        fleet.run_for(plane.park_boot_ns + 2 * plane.period_ns)
        assert int(plane.phase[1]) == ACTIVE
        assert not fleet.state.unroutable[1]

    def test_draining_cancels_straight_back_to_active(self):
        fleet = FleetMachine(controlled_cluster(n=2), seed=1)
        plane = fleet.control
        plane.park(1)
        plane.unpark(1)
        assert int(plane.phase[1]) == ACTIVE
        assert fleet.state.n_unroutable == 0

    def test_boot_power_is_metered(self):
        fleet = FleetMachine(controlled_cluster(n=2), seed=1)
        plane = fleet.control
        fleet.run_for(1 * MS)
        baseline = fleet.meter.energy_j()
        idle_j = None
        # Same span twice: once booting, once settled — the boot
        # window must cost extra energy on the package domain.
        plane.unpark(1)
        fleet.run_for(plane.park_boot_ns)
        boot_j = fleet.meter.energy_j() - baseline
        mark = fleet.meter.energy_j()
        fleet.run_for(plane.park_boot_ns)
        idle_j = fleet.meter.energy_j() - mark
        assert boot_j > idle_j


class TestDeepGates:
    def build(self):
        fleet = FleetMachine(controlled_cluster(n=2, knobs=GATE_KNOBS), seed=1)
        fleet.run_for(3 * MS)
        return fleet

    def test_long_parked_server_reaches_self_refresh_and_l1(self):
        fleet = self.build()
        plane = fleet.control
        assert int(plane.phase[1]) == PARKED
        assert plane.gated_dram[1] and plane.gated_nic[1]
        machine = fleet.machines[1]
        assert all(
            mc.state == "self_refresh" for mc in machine.memory_controllers
        )
        assert machine.links[0].state == "L1"
        # The serving server is untouched.
        assert not plane.gated_dram[0]
        assert all(
            mc.state != "self_refresh"
            for mc in fleet.machines[0].memory_controllers
        )

    def test_gates_reverse_before_the_server_serves_again(self):
        fleet = self.build()
        plane = fleet.control
        plane.controller = HandsOff()  # keep the policy from re-parking
        plane.unpark(1)
        fleet.run_for(plane.park_boot_ns + 4 * plane.period_ns)
        machine = fleet.machines[1]
        assert int(plane.phase[1]) == ACTIVE
        assert not plane.gated_dram[1] and not plane.gated_nic[1]
        assert all(
            mc.state in ("active", "cke_off")
            for mc in machine.memory_controllers
        )
        assert machine.links[0].state != "L1"

    def test_gates_defer_while_fire_and_forget_traffic_is_in_flight(
        self, shallow_machine
    ):
        # A response or DRAM charge schedules no completion event; the
        # forced gates still see it in flight and defer a tick.
        machine = shallow_machine
        sim = machine.sim
        nic, mcs = machine.links[:1], machine.memory_controllers
        delivery = nic[0].transfer(1_600)
        completion = mcs[0].access(4_096)
        assert not ControlPlane._force_l1(nic)
        assert not ControlPlane._force_self_refresh(mcs)
        assert nic[0].state == "L0" and mcs[0].state == "active"
        sim.run(until_ns=sim.now + max(delivery, completion))
        assert ControlPlane._force_l1(nic)
        assert ControlPlane._force_self_refresh(mcs)

    def test_gated_sleep_saves_energy_over_plain_park(self):
        gated = FleetMachine(controlled_cluster(n=2, knobs=GATE_KNOBS), seed=1)
        plain = FleetMachine(controlled_cluster(n=2), seed=1)
        for fleet in (gated, plain):
            fleet.run_for(6 * MS)
        assert gated.meter.energy_j() < plain.meter.energy_j()


class TestControlledExperiment:
    def test_telemetry_lands_in_the_result(self):
        cluster = controlled_cluster(n=4, control="sleepscale")
        result = run_fleet_experiment(
            MemcachedWorkload(qps=20_000), cluster,
            duration_ns=6 * MS, warmup_ns=2 * MS, seed=1,
        )
        assert result.control == "sleepscale"
        assert result.slo_windows > 0
        assert result.slo_violations == 0
        assert result.parked_residency() > 0.0
        row = flatten_fleet_result(result)
        assert row["control"] == "sleepscale"
        assert row["slo_violations"] == 0
        assert row["park_transitions"] == result.park_transitions()

    def test_controller_keeps_p99_under_the_slo(self):
        cluster = controlled_cluster(n=4, control="slo-pack")
        result = run_fleet_experiment(
            MemcachedWorkload(qps=30_000), cluster,
            duration_ns=8 * MS, warmup_ns=2 * MS, seed=2,
        )
        assert result.slo_violations == 0
        assert result.latency.p99_us < 1_000.0  # the 1 ms default SLO


class TestControlAxisIdentity:
    def cell(self, **overrides):
        base = dict(
            workload="memcached", qps=20_000.0, preset="low",
            machine="CPC1A", n_servers=4, routing="least-outstanding",
            seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
        )
        base.update(overrides)
        return FleetCell(**base)

    def test_control_axis_changes_the_cache_key(self):
        static = self.cell()
        controlled = self.cell(control="sleepscale")
        assert static.key() != controlled.key()
        assert static.warm_slot() != controlled.warm_slot()

    def test_knobs_change_the_cache_key(self):
        a = self.cell(control="sleepscale")
        b = self.cell(control="sleepscale",
                      control_props=(("fleet.slo_p99_ns", 2_000_000),))
        assert a.key() != b.key()
        assert a.warm_slot() != b.warm_slot()

    def test_explicit_default_knob_aliases_with_omitted(self):
        spelled = self.cell(control="sleepscale",
                            control_props=(("fleet.slo_p99_ns", 1_000_000),))
        omitted = self.cell(control="sleepscale")
        assert spelled.control_props == ()
        assert spelled.key() == omitted.key()

    def test_static_drops_knobs_entirely(self):
        cluster = ClusterConfig(
            "CPC1A", 2, control="static",
            control_props=(("fleet.slo_p99_ns", 2_000_000),),
        )
        assert cluster.control_props == ()

    def test_non_knob_names_are_rejected(self):
        with pytest.raises(ValueError, match="not a controller knob"):
            ClusterConfig(
                "CPC1A", 2, control="slo-pack",
                control_props=(("fleet.routing", "round-robin"),),
            )

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="sleepscale"):
            ClusterConfig("CPC1A", 2, control="pid")


@pytest.mark.slow
class TestControlDeterminism:
    """Serial == parallel, and recycle == fresh, with a live controller."""

    def spec(self):
        return FleetSpec(
            workloads=(WorkloadPoint("memcached-diurnal", qps=40_000.0),),
            clusters=(
                controlled_cluster(n=8, control="slo-pack"),
                controlled_cluster(n=8, control="sleepscale"),
            ),
            seeds=(1,),
            duration_ns=4 * MS,
            warmup_ns=1 * MS,
        )

    def render_csv(self, results) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=FLEET_CSV_COLUMNS)
        writer.writeheader()
        for cell, result in zip(results.cells, results.results):
            writer.writerow(flatten_fleet_result(result, spec=cell))
        return buffer.getvalue()

    def test_controlled_sweep_is_deterministic_across_workers(self):
        spec = self.spec()
        outputs = []
        for workers in (1, 2):
            with SweepSession(workers=workers) as session:
                outputs.append(self.render_csv(session.run(spec.cells())))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("control", ["slo-pack", "sleepscale"])
    def test_mid_flight_controller_survives_recycle(self, control):
        # The event-stream digest, not an aggregate: the priming run
        # leaves the plane mid-flight (parked servers, half-filled
        # estimator rings, pending tick), and the restored fleet must
        # replay the target seed bit-for-bit.
        report = verify_recycle_roundtrip(
            lambda: MemcachedWorkload(qps=40_000),
            controlled_cluster(n=4, control=control, knobs=GATE_KNOBS),
            seed=3,
            duration_ns=4 * MS,
        )
        assert report.match, report.describe()

    def test_recycle_rejects_a_different_controller(self):
        warm = FleetMachine(controlled_cluster(n=2), seed=1)
        warm.checkpoint()
        with pytest.raises(ValueError, match="cannot be recycled"):
            warm.recycle(controlled_cluster(n=2, control="sleepscale"), seed=1)
        with pytest.raises(ValueError, match="cannot be recycled"):
            warm.recycle(
                controlled_cluster(
                    n=2, knobs=FAST_KNOBS + (("fleet.slo_p99_ns", 500_000),)
                ),
                seed=1,
            )
