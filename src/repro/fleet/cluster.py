"""N server machines composed under one event kernel.

A :class:`FleetMachine` is to a cluster what
:class:`~repro.server.machine.ServerMachine` is to one server: it
builds the full component graph — N machines sharing a single
:class:`~repro.sim.engine.Simulator` and one
:class:`~repro.power.meter.PowerMeter` with per-machine channel
prefixes (``s00.package``, ``s01.package``, …) — plus the
:class:`~repro.fleet.routing.LoadBalancer` that routes a single
scenario-driven arrival stream across them. It implements the same
``inject`` protocol workloads target, so every registered scenario
drives a fleet unchanged.

Three mechanisms keep 1,000-server fleets routine rather than heroic:

* **Flat hot state.** Per-server counters the inner loops touch —
  outstanding requests, routing tallies, the parked mask — live in a
  :class:`~repro.fleet.state.FleetState` struct-of-arrays, so policy
  decisions and window resets are single array passes.
* **Cluster recycle.** ``checkpoint()`` walks kernel + meter + all N
  machines as one unit (the same
  :class:`~repro.server.recycle.MachineCheckpoint` walker single
  servers use), so a sweep session rebuilds a warm fleet per cell by
  restoring, not reconstructing.
* **Parked servers.** A fully-idle server with an empty queue is
  *parked*: its scheduler-tick events are pulled out of the kernel
  and credited in closed form until the router wakes it, so kernel
  load scales with the servers actually doing work. Power and
  residency already integrate lazily, which is exactly the closed
  form — parking changes no measurement (see ``docs/fleet.md``).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from repro.control.plane import ControlPlane
from repro.fleet.routing import LoadBalancer
from repro.fleet.state import FleetState
from repro.hw.signals import Signal
from repro.power.meter import PowerMeter
from repro.props import (
    PropPairs,
    config_axis_label,
    get_prop,
    merge_props,
    normalize_props,
    resolve_config,
)
from repro.server.configs import MachineConfig
from repro.server.machine import ServerMachine
from repro.server.recycle import MachineCheckpoint
from repro.server.stats import MachineStats
from repro.sim.engine import Simulator
from repro.units import US
from repro.workloads.base import Request


def server_prefix(index: int) -> str:
    """The power-channel prefix of server ``index`` (``s03.``)."""
    return f"s{index:02d}."


def park_enabled() -> bool:
    """Whether the parked-server fast path is on (default: yes).

    ``REPRO_FLEET_PARK=0`` disables it — the A/B switch the
    conservation tests (and any divergence hunt) flip to compare the
    analytic path against the pure event-driven run.
    """
    return os.environ.get("REPRO_FLEET_PARK", "1") != "0"


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a :class:`FleetMachine`.

    Plain data by design (like :class:`MachineConfig`): a cluster is
    named by its single-machine config plus the fleet-level knobs, so
    it pickles into sweep cells and hashes into cache keys. Each knob
    is validated by its ``fleet.*`` registry row, the check ``--set``
    applies to the same property.
    """

    machine: str = "CPC1A"
    n_servers: int = 2
    routing: str = "round-robin"
    #: Balancer decision + ToR hop added to every routed request.
    dispatch_latency_ns: int = 2 * US
    #: Concurrent requests a server absorbs before ``power-aware-pack``
    #: spills to the next one (0 = one slot per core).
    pack_watermark: int = 0
    #: Platform-property overrides applied to *every* server (the
    #: canonical pairs :func:`~repro.props.normalize_props`
    #: produces; accepts mappings too).
    props: PropPairs = ()
    #: Per-server overrides for heterogeneous fleets: one entry per
    #: server (merged over — and winning against — ``props``). Empty
    #: means a homogeneous fleet.
    server_props: tuple[PropPairs, ...] = ()
    #: Autoscaling controller (one of
    #: :data:`repro.control.CONTROL_POLICIES`); ``static`` builds no
    #: control plane at all, preserving the legacy event stream.
    control: str = "static"
    #: Controller knob overrides (``fleet.control_period_ns``,
    #: ``fleet.slo_p99_ns``, ``fleet.park_*``, ``fleet.gate_*``) in
    #: the canonical pairs ``normalize_props(..., control=True)``
    #: produces.
    #: Forced empty under ``static`` (no controller reads them), so
    #: cache keys stay canonical.
    control_props: PropPairs = ()

    def __post_init__(self) -> None:
        resolve_config(self.machine)  # friendly unknown-config error
        for name in ("n_servers", "routing", "dispatch_latency_ns",
                     "pack_watermark", "control"):
            get_prop(f"fleet.{name}").validate(getattr(self, name))
        object.__setattr__(self, "props", normalize_props(self.props))
        object.__setattr__(
            self,
            "server_props",
            tuple(normalize_props(p) for p in self.server_props),
        )
        object.__setattr__(
            self,
            "control_props",
            ()
            if self.control == "static"
            else normalize_props(self.control_props, control=True),
        )
        if self.server_props and len(self.server_props) != self.n_servers:
            raise ValueError(
                f"server_props must carry one entry per server: got "
                f"{len(self.server_props)} for {self.n_servers} servers"
            )
        # Hybrid configs only fail when built (cross-field constraints
        # like "CPC1A forbids CC6") — fail at construction, not inside
        # a worker pool. Each *distinct* per-server resolution is built
        # once: a homogeneous 1,000-server cluster validates one
        # config, not one thousand.
        for pairs in dict.fromkeys(self.server_lineup()):
            resolve_config(self.machine, pairs)

    def props_for_server(self, index: int) -> PropPairs:
        """The merged override pairs applied to server ``index``."""
        if not self.server_props:
            return self.props
        return merge_props(self.props, self.server_props[index])

    def server_lineup(self) -> tuple[PropPairs, ...]:
        """Every server's merged override pairs, in server order; a
        homogeneous cluster lists its one set once."""
        if not self.server_props:
            return (self.props,)
        return tuple(merge_props(self.props, extra) for extra in self.server_props)

    def build_machine_config(self, index: int = 0) -> MachineConfig:
        """The machine configuration of server ``index``.

        Servers with the same merged overrides share one frozen config
        (:func:`repro.props.resolve_config`).
        """
        return resolve_config(self.machine, self.props_for_server(index)).config

    def is_heterogeneous(self) -> bool:
        """Whether servers differ in their resolved configuration."""
        return len(set(self.server_lineup())) > 1

    def resolved_pack_watermark(self) -> int:
        """The watermark ``power-aware-pack`` actually applies.

        0 means "one concurrency slot per core"; resolving it against
        the machine config lets cache keys treat the default spelling
        and its explicit value as the same physical experiment. For
        heterogeneous fleets the server-0 config anchors the default
        (one watermark governs the balancer, whatever the mix).
        """
        if self.pack_watermark > 0:
            return self.pack_watermark
        return self.build_machine_config(0).soc.n_cores

    def label(self) -> str:
        """Short human label (``CPC1Ax16/power-aware-pack``)."""
        base = config_axis_label(self.machine, self.props)
        suffix = "/mixed" if self.server_props else ""
        if self.control != "static":
            suffix += f"/{self.control}"
        return f"{base}x{self.n_servers}/{self.routing}{suffix}"

    def as_dict(self) -> dict:
        """Plain-data form (JSON- and cache-key-friendly)."""
        return asdict(self)


class FleetMachine:
    """A cluster: N servers behind one load balancer.

    Servers are identical unless the cluster carries per-server
    property overrides (``ClusterConfig.server_props``), which build a
    heterogeneous mix — e.g. half the fleet on ``CPC1A``, half on
    ``Cshallow`` with a legacy 250 Hz tick.

    All machines run on one shared simulator, so cross-server event
    ordering is globally deterministic for a fixed seed — the fleet
    analogue of the single-machine determinism contract. Per-server
    hot state lives in :attr:`state` (a
    :class:`~repro.fleet.state.FleetState`); the balancer and the park
    manager read and write those arrays, never per-object mirrors.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        seed: int = 0,
        *,
        sanitize: bool | None = None,
    ):
        self.cluster = cluster
        self.sim = Simulator(seed, sanitize=sanitize)
        self.meter = PowerMeter(self.sim)
        # Per-server configs: servers with the same overrides share one
        # frozen config object (a homogeneous fleet shares one).
        configs = [
            cluster.build_machine_config(index)
            for index in range(cluster.n_servers)
        ]
        self.machines = [
            ServerMachine(
                config,
                seed=seed,
                sim=self.sim,
                meter=self.meter,
                channel_prefix=server_prefix(index),
            )
            for index, config in enumerate(configs)
        ]
        self.state = FleetState(cluster.n_servers, cluster.resolved_pack_watermark())
        self.balancer = LoadBalancer(
            self.sim,
            self.machines,
            self.state,
            policy=cluster.routing,
            dispatch_latency_ns=cluster.dispatch_latency_ns,
        )
        self.received = 0
        # Parked-server bookkeeping: only machines whose idle periods
        # are side-effect-free can be marked — tickless ones trivially,
        # nohz ones because a suppressed tick only bumps a counter
        # (credited in closed form). Legacy periodic ticks deliver work
        # to idle cores, so those machines never park. The *mask* (and
        # its park-residency telemetry) is maintained unconditionally
        # so sweep columns agree across REPRO_FLEET_PARK settings; the
        # fast path — suspending tick events — additionally needs the
        # A/B switch on.
        self._park_enabled = park_enabled()
        self._maskable = [
            machine.ticks is None or machine.ticks.mode == "nohz_idle"
            for machine in self.machines
        ]
        self._parkable = [
            self._park_enabled and maskable for maskable in self._maskable
        ]
        self.balancer.on_wake = self._unpark
        self.balancer.on_drained = self._maybe_park
        for index, machine in enumerate(self.machines):
            if self._maskable[index]:
                machine.all_idle.watch(self._park_watch(index))
                # Servers idle from birth never see an all-idle
                # *transition*; park them now so a packed fleet's
                # untouched tail stays off the kernel entirely.
                self._maybe_park(index)
        #: The autoscaling control plane (None under ``static``, which
        #: keeps the event stream byte-identical to the legacy path).
        self.control: ControlPlane | None = None
        if cluster.control != "static":
            self.control = ControlPlane(
                self, cluster.control, dict(cluster.control_props)
            )
            self.balancer.control_tap = self.control

    # -- warm reuse --------------------------------------------------------
    def checkpoint(self) -> None:
        """Capture the just-built cluster so it can be recycled.

        One walker pass covers the whole unit — shared kernel, shared
        meter, all N machines, balancer and :class:`FleetState` arrays.
        Must run before any event fires. Raises
        :class:`~repro.server.recycle.CheckpointError` for clusters
        whose state cannot be snapshotted faithfully (e.g. servers
        with OS timer ticks, whose staggered arm events are live);
        callers treat those as non-recyclable and rebuild per cell.
        """
        self._checkpoint = MachineCheckpoint(self)

    def recycle(self, cluster: ClusterConfig, seed: int) -> None:
        """Rewind to the checkpointed fresh state under a new seed.

        The recycled fleet is byte-identical to
        ``FleetMachine(cluster, seed)`` (pinned by the recycle-vs-fresh
        golden tests). The target cluster must resolve to the same
        per-server machine configs; routing policy, dispatch latency
        and pack watermark are balancer-only knobs, so one warm fleet
        serves cells that differ only in those.
        """
        checkpoint = getattr(self, "_checkpoint", None)
        if checkpoint is None:
            raise RuntimeError(
                "recycle() needs a checkpoint; call checkpoint() on the "
                "freshly built fleet first"
            )
        if cluster.n_servers != len(self.machines):
            raise ValueError(
                f"fleet was built with {len(self.machines)} servers; it "
                f"cannot be recycled into {cluster.n_servers}"
            )
        if (
            cluster.control != self.cluster.control
            or cluster.control_props != self.cluster.control_props
        ):
            # The plane (controller object, knobs, tick period, boot
            # channels) is construction-time state the checkpoint
            # replays verbatim; unlike routing knobs it cannot be
            # retargeted after restore.
            raise ValueError(
                f"fleet was built with control "
                f"{self.cluster.control!r}{dict(self.cluster.control_props)}; "
                f"it cannot be recycled into "
                f"{cluster.control!r}{dict(cluster.control_props)}"
            )
        if cluster.server_props or self.cluster.server_props:
            mismatch = next(
                (
                    index
                    for index, machine in enumerate(self.machines)
                    if cluster.build_machine_config(index) != machine.config
                ),
                None,
            )
        else:
            mismatch = (
                None
                if cluster.build_machine_config(0) == self.machines[0].config
                else 0
            )
        if mismatch is not None:
            raise ValueError(
                f"server {mismatch} was built for config "
                f"{self.machines[mismatch].config.name!r}; the fleet cannot "
                f"be recycled into cluster {cluster.label()!r}"
            )
        checkpoint.restore(seed)
        # The restore pass rebuilds this object's __dict__ from the
        # captured (checkpoint-free) snapshot; re-attach the handle so
        # the fleet stays recyclable, then re-point the balancer at the
        # target cell's routing knobs.
        self._checkpoint = checkpoint
        self.cluster = cluster
        self.balancer.retarget(
            cluster.routing,
            cluster.dispatch_latency_ns,
            cluster.resolved_pack_watermark(),
        )

    # -- parked fast path --------------------------------------------------
    def _park_watch(self, index: int) -> Callable[[Signal, bool, bool], None]:
        def on_all_idle(signal: Signal, old: bool, new: bool) -> None:
            if new:
                self._maybe_park(index)

        return on_all_idle

    def _maybe_park(self, index: int) -> None:
        """Park server ``index`` if it is fully idle with an empty queue."""
        state = self.state
        if (
            not self._maskable[index]
            or state.parked[index]
            or state.outstanding[index] != 0
            or not self.machines[index].all_idle.value
        ):
            return
        state.note_park(index, self.sim.now)
        if self._parkable[index]:
            ticks = self.machines[index].ticks
            if ticks is not None:
                ticks.suspend()

    def _unpark(self, index: int) -> None:
        """Wake a parked server (the router is about to dispatch to it)."""
        self.state.note_unpark(index, self.sim.now)
        if self._parkable[index]:
            ticks = self.machines[index].ticks
            if ticks is not None:
                ticks.resume()

    def sync_parked(self) -> None:
        """Settle parked servers' closed-form bookkeeping up to now.

        Observation points (result collection) call this so tick
        counters on still-parked servers read exactly what the
        event-driven kernel would have accumulated. Power and
        residency need no settling — their accumulators integrate
        lazily on readout anyway.
        """
        state = self.state
        if not state.parked.any():
            return
        for index in np.flatnonzero(state.parked):
            if not self._parkable[index]:
                continue  # masked but never suspended (REPRO_FLEET_PARK=0)
            ticks = self.machines[index].ticks
            if ticks is not None:
                ticks.credit_suppressed()

    @property
    def parked_servers(self) -> int:
        """Servers currently on the analytic fast path.

        Counts only servers whose tick events are actually suspended:
        with ``REPRO_FLEET_PARK`` off the mask (and its telemetry) is
        still maintained, but nothing leaves the event kernel.
        """
        if not self._park_enabled:
            return 0
        return sum(
            1
            for index in np.flatnonzero(self.state.parked)
            if self._parkable[index]
        )

    def active_servers(self) -> int:
        """Servers not currently parked (the autoscaler's active set)."""
        return self.n_servers - self.state.parked_count()

    def park_telemetry(self, duration_ns: int) -> tuple[list[float], list[int]]:
        """Per-server (parked-residency fraction, transition count).

        Folds still-open parked spans up to now first, so calling it
        at collection time (possibly more than once) is idempotent.
        """
        self.state.fold_park_residency(self.sim.now)
        if duration_ns > 0:
            residency = [
                ns / duration_ns for ns in self.state.parked_ns.tolist()
            ]
        else:
            residency = [0.0] * self.n_servers
        return residency, self.state.park_transitions.tolist()

    # -- request path ------------------------------------------------------
    def inject(self, request: Request) -> None:
        """A request arrives at the cluster edge (workload entry point).

        Arrival is stamped here — before the balancer's dispatch
        latency — so end-to-end latency includes the routing hop.
        """
        if request.arrival_ns is None:
            request.arrival_ns = self.sim.now
        self.received += 1
        self.balancer.route(request)

    # -- measurement -------------------------------------------------------
    def begin_measurement(self) -> None:
        """Zero every server's meters and the routing tallies.

        One fused :meth:`PowerMeter.reset` pass covers all N machines'
        channels; the per-machine calls then skip their own channel
        loops.
        """
        self.meter.reset()
        for machine in self.machines:
            machine.begin_measurement(reset_channels=False)
        self.balancer.reset_counters()
        self.received = 0
        self.state.reset_park_window(self.sim.now)
        if self.control is not None:
            self.control.begin_window()

    def run_for(self, duration_ns: int) -> None:
        """Advance the shared simulation by a fixed amount of time."""
        self.sim.run(until_ns=self.sim.now + duration_ns)

    # -- aggregate views ---------------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self.machines)

    @property
    def requests_completed(self) -> int:
        """Requests completed across the whole fleet."""
        return sum(machine.requests_completed for machine in self.machines)

    def stats(self) -> MachineStats:
        """Kernel counters of the shared simulator (fleet-wide)."""
        return MachineStats.from_simulator(self.sim)
