"""Fleet simulation: the routing-policy energy claim and the 1,000-server cell.

* **Does packing pay?** The subsystem's acceptance claim: at matched
  offered load, ``power-aware-pack`` must report *lower fleet energy*
  than ``round-robin`` on a CPC1A cluster (consolidation lengthens
  package idle on the drained servers) while fewer than all of its
  servers do work. ``bench_fleet_pack_beats_round_robin`` asserts
  both under pytest at the claim's declared size.
* **Do big fleets stay routine?** ``python benchmarks/bench_fleet.py``
  times one 1,000-server diurnal cell fresh and recycled and prints
  the record as one JSON line (the nightly acceptance point:
  single-digit seconds). Fleet sweep speed is the repo benchmark's
  ``fleet_diurnal`` workload (``perfbench/``, A/B-gated by
  ``benchmarks/ab.py``).
"""

from __future__ import annotations

import json
import time

from repro.api import run_cell
from repro.fleet import ClusterConfig, FleetCell, run_fleet_experiment
from repro.units import MS
from repro.workloads.memcached import MemcachedWorkload

#: The acceptance cluster: 4 CPC1A servers, default dispatch latency.
N_SERVERS = 4
#: Matched offered load for the pack-vs-round-robin claim (whole-fleet
#: QPS; ~10 % per-server utilization — the band datacenters live in).
MATCHED_QPS = 60_000.0
PACK_WINDOW_NS = 30 * MS
PACK_WARMUP_NS = 6 * MS

#: The nightly acceptance point: one 1,000-server diurnal cell.
HUGE_N_SERVERS = 1_000
HUGE_QPS = 400_000.0


def measure_huge_cell(n_servers: int = HUGE_N_SERVERS, qps: float = HUGE_QPS) -> dict:
    """Time one 1,000-server diurnal cell, fresh and recycled.

    The acceptance point for cluster-scale work: the whole cell —
    build, checkpoint, simulate, collect — must stay in single-digit
    seconds, and a recycled rerun must skip the construction cost.
    """
    cell = FleetCell(
        workload="memcached-diurnal", qps=qps, preset="low",
        machine="CPC1A", n_servers=n_servers, routing="power-aware-pack",
        seed=1, duration_ns=50 * MS, warmup_ns=10 * MS,
    )
    start = time.perf_counter()
    fleet = cell.build()
    built = time.perf_counter()
    fleet.checkpoint()
    result = run_cell(cell, runtime=fleet)
    fresh_done = time.perf_counter()
    recycled_cell = FleetCell(**{**cell.as_dict(), "seed": 2})
    recycled_cell.recycle(fleet)
    run_cell(recycled_cell, runtime=fleet)
    recycled_done = time.perf_counter()
    return {
        "n_servers": n_servers,
        "offered_qps": qps,
        "duration_ms": cell.duration_ns // MS,
        "build_seconds": round(built - start, 3),
        "fresh_seconds": round(fresh_done - start, 3),
        "recycled_seconds": round(recycled_done - fresh_done, 3),
        "requests_completed": result.requests_completed,
        "active_servers": result.active_servers(),
    }


def measure_pack_vs_round_robin(
    qps: float = MATCHED_QPS,
    duration_ns: int = PACK_WINDOW_NS,
    warmup_ns: int = PACK_WARMUP_NS,
    seed: int = 1,
) -> dict:
    """Fleet energy of round-robin vs power-aware-pack at one load."""
    out = {}
    for routing in ("round-robin", "power-aware-pack"):
        result = run_fleet_experiment(
            MemcachedWorkload(qps),
            ClusterConfig(machine="CPC1A", n_servers=N_SERVERS, routing=routing),
            duration_ns=duration_ns,
            warmup_ns=warmup_ns,
            seed=seed,
        )
        out[routing] = {
            "fleet_power_w": round(result.total_power_w, 4),
            "energy_j": round(result.energy_j, 6),
            "p99_us": round(result.latency.p99_us, 3),
            "pc1a_residency": round(result.pc1a_residency(), 6),
            "active_servers": result.active_servers(),
        }
    rr = out["round-robin"]["energy_j"]
    pack = out["power-aware-pack"]["energy_j"]
    return {
        "n_servers": N_SERVERS,
        "offered_qps": qps,
        "duration_ms": duration_ns // MS,
        "seed": seed,
        "routings": out,
        "savings_percent": round(100.0 * (1.0 - pack / rr), 3),
    }


# -- pytest entry points -----------------------------------------------------
def bench_fleet_pack_beats_round_robin():
    """The acceptance claim, at its declared size."""
    comparison = measure_pack_vs_round_robin()
    rr = comparison["routings"]["round-robin"]
    pack = comparison["routings"]["power-aware-pack"]
    assert pack["energy_j"] < rr["energy_j"], comparison
    assert pack["active_servers"] < N_SERVERS, comparison
    print(
        f"\n=== fleet pack-vs-rr @ {comparison['offered_qps']:g} QPS ===\n"
        f"round-robin {rr['energy_j']:.3f} J, pack {pack['energy_j']:.3f} J "
        f"({comparison['savings_percent']:.1f}% saved)"
    )


if __name__ == "__main__":
    print(json.dumps(measure_huge_cell(), sort_keys=True))
