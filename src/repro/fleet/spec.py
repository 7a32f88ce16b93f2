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

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.fleet.cluster import ClusterConfig, FleetMachine
from repro.fleet.result import FleetResult
from repro.props import resolve_config
from repro.sweep.spec import (
    PropPairs,
    WorkloadPoint,
    _normalize_scenario,
    canonical_point,
    normalize_props,
    resolve_window,
)
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
FLEET_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class FleetCell:
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
        workload, scenario = _normalize_scenario(self.workload, self.scenario)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "props", normalize_props(self.props))
        object.__setattr__(
            self,
            "server_props",
            tuple(normalize_props(p) for p in self.server_props),
        )
        # Validates machine/n_servers/routing/dispatch latency/control
        # and builds every per-server hybrid config once. The cluster
        # also canonicalizes the control axis; fold its normal form
        # back so the cell's identity (and key payload) match it.
        cluster = self.cluster()
        object.__setattr__(self, "control_props", cluster.control_props)
        if self.duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ns}")
        if self.warmup_ns < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup_ns}")
        object.__setattr__(self, "qps", float(self.qps))

    # -- construction ------------------------------------------------------
    def cluster(self) -> ClusterConfig:
        """Instantiate the cell's cluster configuration."""
        return ClusterConfig(
            machine=self.machine,
            n_servers=self.n_servers,
            routing=self.routing,
            dispatch_latency_ns=self.dispatch_latency_ns,
            pack_watermark=self.pack_watermark,
            props=self.props,
            server_props=self.server_props,
            control=self.control,
            control_props=self.control_props,
        )

    def build_workload(self) -> Workload:
        """Instantiate the cell's workload (one stream for the fleet)."""
        from repro.scenarios import registry as scenarios

        return scenarios.build(self.scenario, self.qps, self.preset)

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

    @property
    def preset_label(self) -> str:
        """The preset, when it selects this cell's operating point."""
        from repro.scenarios import registry as scenarios

        return self.preset if scenarios.get(self.scenario).uses_preset else ""

    def as_dict(self) -> dict:
        """Plain-data form (JSON- and pickle-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetCell":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)

    def key(self) -> str:
        """Content hash identifying this cell in a result store.

        Canonicalizes the workload point exactly like single-machine
        cells (rate 0 == idle, trace contents, preset relevance) and
        folds the whole cluster shape in, so two routings of one load
        are distinct cells while alias spellings of one physical fleet
        experiment share an entry. The servers enter the hash as their
        *resolved platform property sets* (schema v2): a homogeneous
        fleet contributes one set, a heterogeneous one a per-server
        list, and ``machine="CPC1A"`` keys identically to
        ``machine="Cshallow", props=(("package_policy", "pc1a"),)``.
        """
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        cluster = self.cluster()
        if not self.server_props:
            # Homogeneous: one set + the count, so neither key size
            # nor key *cost* scales with fleet size.
            servers: object = {
                "all": resolve_config(self.machine, self.props).props.as_dict()
            }
        else:
            # Render each distinct per-server override set once; the
            # per-server list still collapses when everything matches
            # (a 1-entry server_props spelling of a homogeneous fleet
            # cannot fork the key).
            sets_by_pairs: dict[PropPairs, dict] = {}
            server_sets = []
            for index in range(self.n_servers):
                pairs = cluster.props_for_server(index)
                resolved = sets_by_pairs.get(pairs)
                if resolved is None:
                    resolved = sets_by_pairs[pairs] = (
                        resolve_config(self.machine, pairs).props.as_dict()
                    )
                server_sets.append(resolved)
            if all(s == server_sets[0] for s in server_sets[1:]):
                servers = {"all": server_sets[0]}
            else:
                servers = {"each": server_sets}
        payload = {
            "fleet_schema": FLEET_SCHEMA_VERSION,
            **canonical_point(self.scenario, self.qps, self.preset),
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
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "warmup_ns": self.warmup_ns,
            "control": self.control,
            "control_props": dict(self.control_props),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:24]
        object.__setattr__(self, "_key", digest)
        return digest

    def label(self) -> str:
        """Short human label for logs and progress lines."""
        point = WorkloadPoint(
            self.workload, self.qps, self.preset, scenario=self.scenario
        )
        return f"{self.cluster().label()}/{point.label()}/seed{self.seed}"


@dataclass(frozen=True)
class FleetSpec:
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
        if not self.workloads:
            raise ValueError("a fleet sweep needs at least one workload point")
        if not self.clusters:
            raise ValueError("a fleet sweep needs at least one cluster")
        if not self.seeds:
            raise ValueError("a fleet sweep needs at least one seed")
        for label, values in (
            ("seeds", self.seeds),
            ("clusters", self.clusters),
            ("workload points", self.workloads),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {label} in fleet sweep: {values}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ns}")
        keys = [cell.key() for cell in self.cells()]
        if len(set(keys)) != len(keys):
            raise ValueError(
                "fleet sweep contains equivalent spellings of the same "
                "experiment (e.g. two rate-0 points of different scenarios)"
            )

    def cells(self) -> list[FleetCell]:
        """Expand the grid into its fleet cells (cached; spec is frozen)."""
        cached = getattr(self, "_expanded", None)
        if cached is None:
            cached = []
            for cluster in self.clusters:
                # Default windows are sized to the *per-server* rate:
                # the point's QPS is aggregate fleet load, but idle
                # periods (the thing long windows exist to observe)
                # accrue per server.
                windows = [
                    resolve_window(
                        point,
                        self.duration_ns,
                        self.warmup_ns,
                        rate_divisor=cluster.n_servers,
                    )
                    for point in self.workloads
                ]
                for point, (duration, warmup) in zip(self.workloads, windows):
                    for seed in self.seeds:
                        cached.append(FleetCell(
                            workload=point.workload,
                            qps=point.qps,
                            preset=point.preset,
                            machine=cluster.machine,
                            n_servers=cluster.n_servers,
                            routing=cluster.routing,
                            seed=seed,
                            duration_ns=duration,
                            warmup_ns=warmup,
                            dispatch_latency_ns=cluster.dispatch_latency_ns,
                            pack_watermark=cluster.pack_watermark,
                            scenario=point.scenario,
                            props=cluster.props,
                            server_props=cluster.server_props,
                            control=cluster.control,
                            control_props=cluster.control_props,
                        ))
            object.__setattr__(self, "_expanded", cached)
        return list(cached)

    def __len__(self) -> int:
        return len(self.clusters) * len(self.workloads) * len(self.seeds)
