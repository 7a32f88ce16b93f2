"""Control plane: the joint speed-and-sleep energy claim.

The subsystem's acceptance claim: on an 8-server CPC1A fleet under
``memcached-diurnal``, ``sleepscale`` (with the deep gates enabled)
must save at least 5 % fleet energy over the *best* static routing at
matched offered load, while the pooled p99 stays under the 1 ms SLO
with zero violation windows. ``bench_control_sleepscale_beats_static``
asserts all three under pytest at the claim's declared size.
Controlled-fleet speed is the repo benchmark's ``fleet_diurnal``
workload (``perfbench/``, A/B-gated by ``benchmarks/ab.py``).
"""

from __future__ import annotations

from repro.fleet import ClusterConfig, run_fleet_experiment
from repro.scenarios import registry as scenarios
from repro.units import MS

#: The acceptance fleet: 8 CPC1A servers under the diurnal scenario.
N_SERVERS = 8
#: Matched offered load (whole-fleet QPS at the diurnal baseline;
#: ~10 % per-server utilization — the band datacenters live in).
MATCHED_QPS = 80_000.0
CLAIM_WINDOW_NS = 30 * MS
CLAIM_WARMUP_NS = 6 * MS
#: The static routings the controller must beat (best-of).
STATIC_ROUTINGS = ("least-outstanding", "power-aware-pack", "round-robin")
#: The claim threshold: sleepscale saves at least this much fleet
#: energy over the best static routing.
MIN_SAVINGS_PERCENT = 5.0
#: Deep gates for the controlled runs: a parked server drops DRAM to
#: self-refresh and links to L1 after a 2 ms dwell.
GATE_PROPS = (
    ("fleet.gate_dram_ns", 2_000_000),
    ("fleet.gate_nic_ns", 2_000_000),
    ("fleet.gate_iolink_ns", 2_000_000),
)


def _run_point(cluster: ClusterConfig, qps, duration_ns, warmup_ns, seed) -> dict:
    result = run_fleet_experiment(
        scenarios.build("memcached-diurnal", qps, "low"),
        cluster,
        duration_ns=duration_ns,
        warmup_ns=warmup_ns,
        seed=seed,
    )
    return {
        "fleet_power_w": round(result.total_power_w, 4),
        "energy_j": round(result.energy_j, 6),
        "p99_us": round(result.latency.p99_us, 3),
        "parked_residency": round(result.parked_residency(), 6),
        "park_transitions": result.park_transitions(),
        "slo_violations": result.slo_violations,
        "slo_windows": result.slo_windows,
        "active_servers": result.active_servers(),
    }


def measure_controller_vs_static(
    qps: float = MATCHED_QPS,
    duration_ns: int = CLAIM_WINDOW_NS,
    warmup_ns: int = CLAIM_WARMUP_NS,
    seed: int = 1,
) -> dict:
    """Fleet energy of every static routing vs the controllers.

    The claim compares ``sleepscale`` against the *best* (lowest
    energy) static routing, not a strawman: whatever consolidation a
    routing policy can buy for free is the baseline the controller
    must beat by :data:`MIN_SAVINGS_PERCENT`.
    """
    statics = {}
    for routing in STATIC_ROUTINGS:
        statics[routing] = _run_point(
            ClusterConfig(machine="CPC1A", n_servers=N_SERVERS, routing=routing),
            qps, duration_ns, warmup_ns, seed,
        )
    best_routing = min(statics, key=lambda name: statics[name]["energy_j"])
    controlled = {}
    for control in ("slo-pack", "sleepscale"):
        controlled[control] = _run_point(
            ClusterConfig(
                machine="CPC1A", n_servers=N_SERVERS,
                routing="least-outstanding", control=control,
                control_props=GATE_PROPS,
            ),
            qps, duration_ns, warmup_ns, seed,
        )
    best = statics[best_routing]["energy_j"]
    sleepscale = controlled["sleepscale"]["energy_j"]
    return {
        "n_servers": N_SERVERS,
        "offered_qps": qps,
        "duration_ms": duration_ns // MS,
        "seed": seed,
        "static": statics,
        "best_static_routing": best_routing,
        "controlled": controlled,
        "savings_percent": round(100.0 * (1.0 - sleepscale / best), 3),
    }


# -- pytest entry points -----------------------------------------------------
def bench_control_sleepscale_beats_static():
    """The acceptance claim, at its declared size."""
    claim = measure_controller_vs_static()
    best = claim["static"][claim["best_static_routing"]]
    sleepscale = claim["controlled"]["sleepscale"]
    assert claim["savings_percent"] >= MIN_SAVINGS_PERCENT, claim
    assert sleepscale["slo_violations"] == 0, claim
    assert sleepscale["p99_us"] < 1_000, claim  # the shipped 1 ms SLO
    print(
        f"\n=== sleepscale vs {claim['best_static_routing']} "
        f"@ {claim['offered_qps']:g} QPS ===\n"
        f"static {best['energy_j']:.3f} J, "
        f"sleepscale {sleepscale['energy_j']:.3f} J "
        f"({claim['savings_percent']:.1f}% saved; p99 "
        f"{sleepscale['p99_us']:.0f} us, "
        f"{sleepscale['slo_violations']}/{sleepscale['slo_windows']} "
        "SLO windows violated)"
    )
