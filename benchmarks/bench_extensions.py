"""Extension benches beyond the paper's evaluation.

* **OS tick rate vs PC1A residency** — quantifies why the paper's
  platform must run tickless: legacy per-core ticks fragment exactly
  the idleness PC1A harvests.
* **Race-to-halt vs DVFS** — the paper's Sec. 8 claim: with a
  nanosecond package C-state, running at nominal frequency and
  sleeping deeply beats running slowly at low voltage, at equal work.
* **Fleet energy proportionality** — lifts the single-server curves
  to a 10-server fleet and computes Wong-Annavaram EP scores, the
  datacenter framing of the paper's introduction.
"""

import dataclasses

from _common import measure, save_report
from repro.analysis.cluster import FleetModel, PowerCurve, fleet_savings_percent
from repro.analysis.report import format_table
from repro.server.configs import cpc1a, cshallow
from repro.soc.pstates import SKX_PSTATES
from repro.units import MS
from repro.workloads.base import NullWorkload
from repro.workloads.memcached import MemcachedWorkload


def bench_tick_rate_vs_pc1a(benchmark):
    results = {}

    def sweep():
        for hz in (0, 100, 250, 1000):
            config = cpc1a()
            if hz:
                config = dataclasses.replace(config, timer_tick_hz=hz)
            results[hz] = measure(
                MemcachedWorkload(10_000), config, seed=3, duration_ns=150 * MS
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            "tickless (NOHZ_FULL)" if hz == 0 else f"{hz} Hz periodic",
            f"{result.pc1a_residency():.3f}",
            f"{result.pc1a_exits}",
            f"{result.total_power_w:.1f} W",
        ]
        for hz, result in results.items()
    ]
    report = (
        format_table(
            ["kernel tick", "PC1A residency", "PC1A transitions", "power"], rows
        )
        + "\nPer-core periodic ticks fragment full-system idleness:"
        + " tickless operation is a prerequisite for agile package C-states."
    )
    save_report("ext_tick_rate", report)

    residencies = [results[hz].pc1a_residency() for hz in (0, 100, 250, 1000)]
    assert residencies == sorted(residencies, reverse=True)
    assert results[0].total_power_w < results[1000].total_power_w


def bench_race_to_halt_vs_dvfs(benchmark):
    """Equal work, two strategies: sprint-and-sleep vs slow-and-steady."""
    results = {}

    def sweep():
        qps = 20_000
        # Race-to-halt: nominal frequency + PC1A.
        results["race-to-halt (P1 + PC1A)"] = measure(
            MemcachedWorkload(qps), cpc1a(), seed=4, duration_ns=150 * MS
        )
        # DVFS: minimum frequency, no package C-state (Cshallow-like
        # since DVFS management leaves cores too active for PC6).
        pn = SKX_PSTATES.by_name("Pn")
        slow_budget = dataclasses.replace(
            cshallow().soc.budget,
            core=SKX_PSTATES.scaled_core_spec(
                cshallow().soc.budget.core, pn
            ),
        )
        slow_soc = dataclasses.replace(
            cshallow().soc, budget=slow_budget, core_freq_ghz=pn.freq_ghz
        )
        slow_config = dataclasses.replace(cshallow(), soc=slow_soc, name="Cdvfs-Pn")
        # Service stretches by the frequency ratio at the low P-state.
        scale = SKX_PSTATES.service_scale(pn)

        class _Stretched(MemcachedWorkload):
            def _make_request(self, rng):
                request = super()._make_request(rng)
                request.service_ns = int(request.service_ns * scale)
                return request

        stretched = _Stretched(qps)
        results["DVFS (Pn, no PC1A)"] = measure(
            stretched, slow_config, seed=4, duration_ns=150 * MS
        )

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            label,
            f"{result.utilization:.1%}",
            f"{result.total_power_w:.1f} W",
            f"{result.latency.mean_us:.1f} us",
            f"{result.latency.p99_us:.0f} us",
        ]
        for label, result in results.items()
    ]
    report = (
        format_table(["strategy", "util", "power", "avg latency", "p99"], rows)
        + "\nWith PC1A available, race-to-halt wins on latency at"
        + " comparable (or better) power - the paper's Sec. 8 argument"
        + " against complex DVFS management for latency-critical services."
    )
    save_report("ext_race_to_halt", report)

    race = results["race-to-halt (P1 + PC1A)"]
    dvfs = results["DVFS (Pn, no PC1A)"]
    assert race.latency.mean_us < dvfs.latency.mean_us
    assert race.total_power_w < dvfs.total_power_w * 1.15


def bench_fleet_energy_proportionality(benchmark):
    curves = {}

    def sweep():
        for config_fn in (cshallow, cpc1a):
            results = [measure(NullWorkload(), config_fn(), seed=1)]
            for qps in (10_000, 40_000, 100_000, 300_000, 700_000):
                results.append(
                    measure(MemcachedWorkload(qps), config_fn(), seed=1,
                            duration_ns=60 * MS)
                )
            curves[config_fn().name] = PowerCurve.from_results(
                results, label=config_fn().name
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_curve, apc_curve = curves["Cshallow"], curves["CPC1A"]
    base_fleet = FleetModel(curve=base_curve, n_servers=10)
    apc_fleet = FleetModel(curve=apc_curve, n_servers=10)
    max_load = 10 * base_curve.utilizations[-1]
    rows = []
    for load_fraction in (0.05, 0.10, 0.20):
        load = max_load * load_fraction / base_curve.utilizations[-1] * \
            base_curve.utilizations[-1]
        load = min(load, max_load)
        rows.append([
            f"{load_fraction:.0%} of peak",
            f"{base_fleet.fleet_power_w(load):.0f} W",
            f"{apc_fleet.fleet_power_w(load):.0f} W",
            f"{fleet_savings_percent(base_fleet, apc_fleet, load):.1f}%",
        ])
    report = (
        format_table(
            ["fleet load", "Cshallow fleet", "CPC1A fleet", "savings"], rows
        )
        + f"\nEP score (Wong-Annavaram): Cshallow "
        + f"{base_curve.proportionality_score():.3f} vs CPC1A "
        + f"{apc_curve.proportionality_score():.3f}"
        + "\nAPC moves the fleet toward energy proportionality exactly"
        + " in the 5-20% band where datacenters operate (paper Sec. 1)."
    )
    save_report("ext_fleet_proportionality", report)

    assert apc_curve.proportionality_score() > base_curve.proportionality_score()
    assert fleet_savings_percent(base_fleet, apc_fleet, max_load * 0.05) > 10.0
