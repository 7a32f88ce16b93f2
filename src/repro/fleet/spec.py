"""Declarative fleet sweep grids: workloads x clusters x seeds.

A :class:`FleetCell` is the fleet analogue of
:class:`~repro.sweep.spec.ExperimentSpec`: plain data naming one
fully-determined cluster measurement. Both implement the
:class:`repro.cell.Cell` protocol, so fleet cells run through the
ordinary :class:`~repro.sweep.session.SweepSession` and inherit the
whole orchestration stack for free: worker-pool fan-out with
serial==parallel determinism, warm-fleet recycling, content-hash
store caching (fleet records carry their own ``kind`` tag), streaming
CSV, and progress/stats plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.fleet.cluster import ClusterConfig, FleetMachine
from repro.fleet.result import FleetResult
from repro.props import PropPairs, resolve_config
from repro.sweep.spec import CellCore, GridCore, WorkloadPoint, resolve_window
from repro.units import US
from repro.workloads.base import Workload

#: Bump when the fleet cell schema or measurement semantics change;
#: independent of the single-machine SCHEMA_VERSION because the two
#: record kinds can never alias anyway (the key payloads differ).
#: v2: cells key each server by its resolved platform property set
#: instead of only the shared config name, so property hybrids and
#: heterogeneous fleets cache correctly (and a preset vs its explicit
#: property spelling share one entry).
#: v3: cells carry the autoscaling control axis (controller name +
#: canonical controller-knob pairs) and results carry controller
#: telemetry, so controlled and static runs can never alias.
#: v4: each server's result is the full single-server record (PC1A and
#: PC6 counts, core residency and wakes, the idle-period views), and
#: the pooled latency adds each server's own network latency.
FLEET_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class FleetCell(CellCore):
    """One fully-determined fleet sweep cell (a single fleet run)."""

    workload: str
    qps: float
    preset: str
    machine: str
    n_servers: int
    routing: str
    seed: int
    duration_ns: int
    warmup_ns: int
    dispatch_latency_ns: int = 2 * US
    pack_watermark: int = 0
    scenario: str = ""
    #: Platform-property overrides applied to every server.
    props: PropPairs = ()
    #: Per-server overrides (heterogeneous fleets); one entry per
    #: server, each merged over ``props``.
    server_props: tuple[PropPairs, ...] = ()
    #: Autoscaling controller (``static`` = no control plane).
    control: str = "static"
    #: Controller knob overrides (canonicalized by the cluster:
    #: non-default pairs only, forced empty under ``static``).
    control_props: PropPairs = ()

    def __post_init__(self) -> None:
        self._check_cell()
        # The cell's cluster fields are a ClusterConfig's. The cluster
        # validates them and builds every per-server hybrid config,
        # once; the cell keeps it and takes its normal forms (override
        # pairs, the control axis), so the cell's identity and key
        # payload match it.
        shape = {f.name: getattr(self, f.name) for f in fields(ClusterConfig)}
        cluster = ClusterConfig(**shape)
        for name in shape:
            object.__setattr__(self, name, getattr(cluster, name))
        object.__setattr__(self, "_cluster", cluster)

    # -- construction ------------------------------------------------------
    def cluster(self) -> ClusterConfig:
        """The cell's cluster configuration (built at construction)."""
        return self._cluster  # type: ignore[attr-defined]

    # -- cell protocol (repro.cell) ----------------------------------------
    def build(self) -> FleetMachine:
        """Construct a fresh fleet for this cell."""
        return FleetMachine(self.cluster(), seed=self.seed)

    def warm_slot(self) -> tuple:
        """Warm-reuse key: one fleet per server lineup.

        Routing policy, dispatch latency and pack watermark are
        balancer-only knobs (``FleetMachine.recycle`` retargets them),
        so they stay out of the slot — one warm fleet serves every
        routing of the same servers. The control axis is *in* the slot:
        the plane (controller object, knobs, boot channels, tick) is
        construction-time state a recycle replays verbatim, so cells
        with different controllers need different warm fleets. Legacy
        static cells all share ``("static", ())`` and behave exactly as
        before. The leading ``"fleet"`` tag is what the sweep session's
        warm-cache eviction keys on (a fleet runtime pins N machines,
        so only a few stay warm at once).
        """
        return ("fleet", self.machine, self.props, self.server_props,
                self.n_servers, self.control, self.control_props)

    def recycle(self, runtime: FleetMachine) -> None:
        """Rewind a checkpointed fleet into this cell's fresh state."""
        runtime.recycle(self.cluster(), self.seed)

    def collect(self, runtime: FleetMachine, workload: Workload) -> FleetResult:
        """Assemble the result from a measured fleet."""
        from repro.fleet.experiment import collect_fleet_result

        return collect_fleet_result(
            runtime, workload, self.duration_ns, self.seed
        )

    # -- identity ----------------------------------------------------------
    @property
    def config(self) -> str:
        """The per-server config name (diagnostic-label parity with
        :class:`~repro.sweep.spec.ExperimentSpec`)."""
        return self.machine

    def _key_fields(self) -> dict[str, Any]:
        # The whole cluster shape is folded in, so two routings of one
        # load are distinct cells while alias spellings of one physical
        # fleet experiment share an entry. The servers enter as their
        # *resolved platform property sets* (schema v2), so
        # ``machine="CPC1A"`` keys identically to ``machine="Cshallow",
        # props=(("package_policy", "pc1a"),)``. A homogeneous fleet is
        # one set plus the count, so neither key size nor key *cost*
        # scales with fleet size; a per-server list collapses to one
        # set when every entry matches.
        cluster = self.cluster()
        sets = [
            resolve_config(self.machine, pairs).props
            for pairs in cluster.server_lineup()
        ]
        if all(s == sets[0] for s in sets[1:]):
            servers: dict[str, Any] = {"all": sets[0].as_dict()}
        else:
            servers = {"each": [s.as_dict() for s in sets]}
        return {
            "fleet_schema": FLEET_SCHEMA_VERSION,
            "servers": servers,
            "n_servers": self.n_servers,
            "routing": self.routing,
            "dispatch_latency_ns": self.dispatch_latency_ns,
            # Only power-aware-pack reads the watermark, and 0 is an
            # alias for the per-core default — canonicalize both so a
            # watermark spelling can never fork the cache key of a
            # physically identical experiment.
            "pack_watermark": (
                cluster.resolved_pack_watermark()
                if self.routing == "power-aware-pack"
                else 0
            ),
            "control": self.control,
            "control_props": dict(self.control_props),
        }

    def _axis_label(self) -> str:
        return self.cluster().label()


@dataclass(frozen=True)
class FleetSpec(GridCore):
    """A declarative fleet experiment grid.

    Expansion order is deterministic: clusters (outermost) x workload
    points x seeds (innermost) — mirroring :class:`SweepSpec` with the
    cluster axis in place of the config axis.
    """

    workloads: tuple[WorkloadPoint, ...]
    clusters: tuple[ClusterConfig, ...]
    seeds: tuple[int, ...] = (0,)
    duration_ns: int | None = None
    warmup_ns: int | None = None

    def __post_init__(self) -> None:
        self._check_grid(
            "fleet sweep",
            (
                ("workload point", self.workloads),
                ("cluster", self.clusters),
                ("seed", self.seeds),
            ),
            "e.g. two rate-0 points of different scenarios",
        )

    def _expand(self) -> list[FleetCell]:
        cells = []
        for cluster in self.clusters:
            # Default windows are sized to the *per-server* rate: the
            # point's QPS is aggregate fleet load, but idle periods
            # (the thing long windows exist to observe) accrue per
            # server.
            shape = {f.name: getattr(cluster, f.name) for f in fields(cluster)}
            for point in self.workloads:
                duration, warmup = resolve_window(
                    point,
                    self.duration_ns,
                    self.warmup_ns,
                    rate_divisor=cluster.n_servers,
                )
                for seed in self.seeds:
                    cells.append(FleetCell(
                        workload=point.workload,
                        qps=point.qps,
                        preset=point.preset,
                        seed=seed,
                        duration_ns=duration,
                        warmup_ns=warmup,
                        scenario=point.scenario,
                        **shape,
                    ))
        return cells
