"""Fleet-level energy proportionality, measured on a simulated cluster.

Earlier revisions of this example *approximated* a fleet by sweeping
one server's power curve and multiplying by N. It now simulates the
cluster for real through :mod:`repro.fleet`: N ``ServerMachine``\\ s
share one event kernel behind a load balancer, and a single scenario-
driven arrival stream is routed across them — so routing policy and
per-server package idle states interact exactly as they would in a
rack.

The headline comparison is **pack vs spread at matched offered
load**: ``power-aware-pack`` consolidates requests onto few servers
(the rest reach deep package idle), ``power-aware-spread`` fans every
request out (best queueing, worst idleness). The example reports
fleet power, pooled p99 and the measured fleet energy-proportionality
score per policy, plus the Cshallow-vs-CPC1A fleet savings.

Every (cluster, rate, seed) cell is one independent simulation fanned
out over the sweep-orchestration worker pool. ``--wide`` expands the
grid: more servers, a denser rate axis and several seeds.

Run with::

    python examples/datacenter_fleet.py [--workers N] [--wide]
"""

import argparse

from repro.analysis import format_table
from repro.analysis.cluster import PowerCurve
from repro.fleet import ClusterConfig, FleetSpec
from repro.sweep import SweepSession, WorkloadPoint
from repro.units import MS

#: Aggregate (whole-fleet) offered rates; the band where datacenters
#: live is the low end of each server's curve.
SWEEP_QPS = (20_000, 60_000, 120_000)
WIDE_QPS = (10_000, 20_000, 40_000, 60_000, 90_000, 120_000)
ROUTINGS = ("round-robin", "power-aware-spread", "power-aware-pack")


def curve_points(rates) -> tuple[WorkloadPoint, ...]:
    """The idle anchor plus one loaded point per fleet rate."""
    points = [WorkloadPoint("idle", duration_ns=12 * MS, warmup_ns=3 * MS)]
    points.extend(
        WorkloadPoint(
            "memcached", qps=float(qps), duration_ns=25 * MS, warmup_ns=6 * MS
        )
        for qps in rates
    )
    return tuple(points)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="sweep worker processes (0 = one per core)",
    )
    parser.add_argument(
        "--wide", action="store_true", help="8 servers x dense rates x 2 seeds"
    )
    args = parser.parse_args(argv)

    n_servers = 8 if args.wide else 4
    rates = WIDE_QPS if args.wide else SWEEP_QPS
    seeds = (1, 2) if args.wide else (1,)
    clusters = tuple(
        ClusterConfig(machine="CPC1A", n_servers=n_servers, routing=routing)
        for routing in ROUTINGS
    ) + (
        # The real-world baseline fleet: no agile package states.
        ClusterConfig(
            machine="Cshallow", n_servers=n_servers, routing="round-robin"
        ),
    )
    spec = FleetSpec(workloads=curve_points(rates), clusters=clusters, seeds=seeds)
    with SweepSession(workers=args.workers or None) as session:
        results = session.run(spec.cells())
    print(f"simulated {len(spec)} fleet cells "
          f"({n_servers} servers each) in parallel\n")

    seed = seeds[0]

    print(f"CPC1A fleet of {n_servers} servers under Memcached " f"(seed {seed}):\n")
    rows = []
    for qps in rates:
        for routing in ROUTINGS:
            r = results.one(machine="CPC1A", routing=routing, qps=float(qps), seed=seed)
            rows.append([
                f"{qps:,}", routing, f"{r.total_power_w:,.1f} W",
                f"{r.latency.p99_us:.0f} us", f"{r.pc1a_residency():.1%}",
                f"{r.active_servers()}/{r.n_servers}",
            ])
    print(format_table(
        ["offered QPS", "routing", "fleet power", "p99",
         "PC1A residency", "active servers"],
        rows,
    ))

    print("\nPack vs spread at matched offered load:")
    pack_rows = []
    for qps in rates:
        pack = results.one(
            machine="CPC1A", routing="power-aware-pack", qps=float(qps), seed=seed
        )
        spread = results.one(
            machine="CPC1A", routing="power-aware-spread", qps=float(qps), seed=seed
        )
        savings = 100.0 * (1.0 - pack.total_power_w / spread.total_power_w)
        pack_rows.append([
            f"{qps:,}",
            f"{spread.total_power_w:,.1f} W", f"{pack.total_power_w:,.1f} W",
            f"{savings:.1f}%",
            f"{spread.latency.p99_us:.0f} -> {pack.latency.p99_us:.0f} us",
        ])
    print(format_table(
        ["offered QPS", "spread fleet", "pack fleet", "savings", "p99"],
        pack_rows,
    ))

    print("\nEnergy-proportionality score (1.0 = ideal, measured fleet):")
    score_rows = []
    for config, routing in [("Cshallow", "round-robin")] + [
        ("CPC1A", routing) for routing in ROUTINGS
    ]:
        scores = [
            PowerCurve.from_results(
                results.select(machine=config, routing=routing, seed=s),
                label=f"{config}/{routing}",
            ).proportionality_score()
            for s in seeds
        ]
        mean = sum(scores) / len(scores)
        row = [config, routing, f"{mean:.3f}"]
        if len(seeds) > 1:
            row.append(f"[{min(scores):.3f}, {max(scores):.3f}]")
        score_rows.append(row)
    headers = ["config", "routing", "EP score"]
    if len(seeds) > 1:
        headers.append("[min, max]")
    print(format_table(headers, score_rows))

    base = results.one(
        machine="Cshallow", routing="round-robin", qps=float(rates[0]), seed=seed
    )
    apc = results.one(
        machine="CPC1A", routing="power-aware-pack", qps=float(rates[0]), seed=seed
    )
    print(f"\nAt {rates[0]:,} QPS aggregate load, the packed CPC1A fleet "
          f"draws {apc.total_power_w:,.1f} W vs the Cshallow baseline's "
          f"{base.total_power_w:,.1f} W "
          f"({100 * (1 - apc.total_power_w / base.total_power_w):.1f}% saved).")


if __name__ == "__main__":
    main()
