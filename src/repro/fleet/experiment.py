"""The fleet experiment driver: one workload across one cluster.

``run_fleet_experiment`` mirrors
:func:`~repro.server.experiment.run_experiment` one level up: build a
:class:`~repro.fleet.cluster.FleetMachine`, let the scenario's single
arrival stream warm the cluster through the balancer, measure one
window, and return a :class:`~repro.fleet.result.FleetResult` with
fleet totals, per-server breakdowns and the pooled latency
distribution.
"""

from __future__ import annotations

from repro.cell import measure_window
from repro.fleet.cluster import ClusterConfig, FleetMachine
from repro.fleet.result import FleetResult, ServerResult
from repro.server.experiment import collect_server
from repro.server.stats import summarize_latency_ns
from repro.units import MS, ns_to_s
from repro.workloads.base import Workload


def run_fleet_experiment(
    workload: Workload,
    cluster: ClusterConfig,
    duration_ns: int = 400 * MS,
    warmup_ns: int = 50 * MS,
    seed: int = 0,
    fleet: FleetMachine | None = None,
) -> FleetResult:
    """Run ``workload`` against ``cluster`` and measure one window.

    The classic driver, kept as a thin wrapper over
    :func:`repro.cell.measure_window`; anything starting from a
    :class:`~repro.fleet.spec.FleetCell` should prefer
    :func:`repro.cell.run_cell`.
    """
    if fleet is None:
        fleet = FleetMachine(cluster, seed=seed)
    else:
        # Same contract as run_experiment's prebuilt machine: labels
        # on the result must describe the fleet that produced it.
        if fleet.cluster != cluster:
            raise ValueError(
                f"fleet was built for cluster {fleet.cluster.label()!r} "
                f"but the experiment is labelled {cluster.label()!r}"
            )
        if fleet.sim.seed != seed:
            raise ValueError(
                f"fleet was built with seed {fleet.sim.seed} "
                f"but the experiment is labelled seed {seed}"
            )
    measure_window(fleet, workload, duration_ns, warmup_ns)
    return collect_fleet_result(fleet, workload, duration_ns, seed)


def collect_fleet_result(
    fleet: FleetMachine,
    workload: Workload,
    duration_ns: int,
    seed: int,
) -> FleetResult:
    """Assemble a :class:`FleetResult` from a measured fleet."""
    duration_s = ns_to_s(duration_ns)
    cluster = fleet.cluster
    # Parked servers first settle their closed-form bookkeeping so the
    # counters below read as if the kernel had driven them throughout.
    fleet.sync_parked()
    # One pass over the shared meter; the per-machine channel prefixes
    # split the readout into per-server package/DRAM domains.
    readout = fleet.meter.readout()
    routed = fleet.balancer.routed
    parked_residency, park_transitions = fleet.park_telemetry(duration_ns)
    servers = tuple(
        ServerResult(
            **collect_server(machine, readout, duration_s),
            index=index,
            routed=int(routed[index]),
            park_transitions=park_transitions[index],
            parked_residency=parked_residency[index],
            pstate_residency=machine.pstate_residency(duration_ns),
        )
        for index, machine in enumerate(fleet.machines)
    )
    # The pooled distribution is computed from the concatenated raw
    # samples — exact percentiles, not a merge of per-server
    # summaries (LatencySummary.merge is for when samples are gone).
    # Each sample carries its own server's network latency, as that
    # server's summary does.
    pooled_samples = [
        sample + machine.config.network_latency_ns
        for machine in fleet.machines
        for sample in machine.latency.samples_ns()
    ]
    completed = sum(server.requests_completed for server in servers)
    # The canonical built name, not the spelled base: a Cshallow
    # cluster overridden to pc1a reports (and aggregates) as CPC1A.
    config_name = fleet.machines[0].config.name
    if cluster.is_heterogeneous():
        config_name += "/mixed"
    return FleetResult(
        config_name=config_name,
        n_servers=cluster.n_servers,
        routing=cluster.routing,
        dispatch_latency_ns=cluster.dispatch_latency_ns,
        workload_name=workload.name,
        seed=seed,
        duration_ns=duration_ns,
        offered_qps=workload.offered_qps,
        requests_completed=completed,
        achieved_qps=completed / duration_s,
        package_power_w=sum(s.package_power_w for s in servers),
        dram_power_w=sum(s.dram_power_w for s in servers),
        utilization=sum(s.utilization for s in servers) / len(servers),
        latency=summarize_latency_ns(pooled_samples),
        servers=servers,
        control=cluster.control,
        slo_violations=(
            fleet.control.slo_violations if fleet.control is not None else 0
        ),
        slo_windows=(
            fleet.control.slo_windows if fleet.control is not None else 0
        ),
        kernel=fleet.stats(),
    )
