"""Multi-server cluster simulation with power-aware request routing.

The paper argues agile package idle states make *individual* servers
energy proportional; the payoff it promises is at datacenter scale,
where routing policy decides how much package idleness a fleet can
actually harvest. This package simulates that interaction directly:

>>> from repro.fleet import ClusterConfig, run_fleet_experiment
>>> from repro.workloads.memcached import MemcachedWorkload
>>> cluster = ClusterConfig(machine="CPC1A", n_servers=4,
...                         routing="power-aware-pack")
>>> result = run_fleet_experiment(
...     MemcachedWorkload(qps=30_000), cluster,
...     duration_ns=10_000_000, warmup_ns=2_000_000, seed=1,
... )  # doctest: +SKIP

- :class:`FleetMachine` composes N
  :class:`~repro.server.machine.ServerMachine`\\ s under one shared
  kernel and power meter (per-machine channel prefixes);
- :class:`LoadBalancer` routes a single scenario-driven arrival
  stream across them (``round-robin``, ``least-outstanding``,
  ``power-aware-pack``, ``power-aware-spread``) with a dispatch
  latency knob;
- :class:`FleetResult` carries fleet power, the pooled latency
  distribution and one :class:`ServerResult` per server (the
  single-server record plus routing, park and P-state telemetry);
  :meth:`PowerCurve.from_results
  <repro.analysis.cluster.PowerCurve.from_results>` lifts a rate sweep
  into the energy-proportionality analysis;
- :class:`FleetSpec`/:class:`FleetCell` run fleet grids through
  :class:`~repro.sweep.session.SweepSession` with the same
  determinism and caching guarantees as single-machine sweeps;
- the ``control`` axis attaches an autoscaling control plane
  (:mod:`repro.control`) that parks/unparks servers and scales
  P-states under an SLO constraint — see ``docs/control.md``.

See ``docs/fleet.md`` for the full tour and ``repro fleet --help``
for the CLI entry point.
"""

from repro.fleet.cluster import (
    ClusterConfig,
    FleetMachine,
    park_enabled,
    server_prefix,
)
from repro.fleet.experiment import collect_fleet_result, run_fleet_experiment
from repro.fleet.result import (
    FLEET_CSV_COLUMNS,
    FleetResult,
    ServerResult,
    flatten_fleet_result,
)
from repro.fleet.routing import (
    POLICY_FUNCTIONS,
    ROUTING_POLICIES,
    LoadBalancer,
    PolicyFn,
)
from repro.fleet.spec import FLEET_SCHEMA_VERSION, FleetCell, FleetSpec
from repro.fleet.state import FleetState

__all__ = [
    "FLEET_CSV_COLUMNS",
    "FLEET_SCHEMA_VERSION",
    "ClusterConfig",
    "FleetCell",
    "FleetMachine",
    "FleetResult",
    "FleetSpec",
    "FleetState",
    "LoadBalancer",
    "POLICY_FUNCTIONS",
    "PolicyFn",
    "ROUTING_POLICIES",
    "ServerResult",
    "collect_fleet_result",
    "flatten_fleet_result",
    "park_enabled",
    "run_fleet_experiment",
    "server_prefix",
]
