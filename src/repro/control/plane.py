"""The control plane: lifecycle mechanics, observation and actuation.

One :class:`ControlPlane` runs inside a fleet simulation when the
cluster's ``control`` axis names a real controller. It owns:

* the **control tick** — a self-re-arming callback scheduled at
  construction. Deliberately *not* a stored-handle
  :class:`~repro.sim.timers.PeriodicTimer`: the cluster checkpoint
  walker (:mod:`repro.server.recycle`) refuses components that hold
  live :class:`~repro.sim.engine.Event` references, so the tick
  re-arms by discarding the handle each firing. Construction-event
  replay then restores a recycled fleet's pending tick exactly.
* the **server lifecycle** — active → draining → parked → booting,
  tick-quantized. A draining or parked or booting server is
  *unroutable* (``FleetState.unroutable``); parking costs a drain
  dwell (``fleet.park_drain_ns``), unparking costs a boot window
  (``fleet.park_boot_ns``) during which a per-server boot channel
  draws ``fleet.park_boot_w``.
* the **deep gates** — after a configurable parked dwell, DRAM drops
  to self-refresh and IO links to L1 (``fleet.gate_dram_ns`` /
  ``fleet.gate_nic_ns`` / ``fleet.gate_iolink_ns``), reversed during
  the boot window before the server takes traffic again.
* the **estimators** — the pooled-p99 latency window and the
  SleepScale arrival estimate, fed by the balancer's control tap.

Everything the plane stores is plain data (numpy arrays, ints,
floats, a preallocated ring), so a mid-flight controller checkpoints
and recycles like any other component.
"""

from __future__ import annotations

import numpy as np

from repro.control.controllers import build_controller
from repro.control.estimators import ArrivalEstimator, LatencyWindow
from repro.props.builtin import fleet_prop_value
from repro.workloads.base import Request

#: Server lifecycle phases (int8 codes in the plane's phase array).
ACTIVE, DRAINING, PARKED, BOOTING = 0, 1, 2, 3

PHASE_NAMES = ("active", "draining", "parked", "booting")

#: LTSSM states a commanded L1 entry is legal from (plus L1 itself,
#: which is a no-op); anything else means "retry next tick".
_L1_ENTRY_STATES = ("L0", "L0s", "L0p")


class ControlPlane:
    """Periodic deterministic controller over one fleet.

    Built by :class:`~repro.fleet.cluster.FleetMachine` when the
    cluster's ``control`` axis is not ``static``; never constructed
    standalone. All decisions are pure functions of simulation state
    at tick boundaries, so serial and parallel sweeps agree bit for
    bit and a checkpointed plane replays identically.
    """

    def __init__(self, fleet, policy: str, knobs: dict | None = None):
        knobs = dict(knobs or {})
        self.fleet = fleet
        self.sim = fleet.sim
        self.policy = policy
        self.controller = build_controller(policy)
        self.period_ns = int(fleet_prop_value("fleet.control_period_ns", knobs))
        self.slo_p99_ns = int(fleet_prop_value("fleet.slo_p99_ns", knobs))
        self.park_drain_ns = int(fleet_prop_value("fleet.park_drain_ns", knobs))
        self.park_boot_ns = int(fleet_prop_value("fleet.park_boot_ns", knobs))
        self.park_boot_w = float(fleet_prop_value("fleet.park_boot_w", knobs))
        self.gate_dram_ns = int(fleet_prop_value("fleet.gate_dram_ns", knobs))
        self.gate_nic_ns = int(fleet_prop_value("fleet.gate_nic_ns", knobs))
        self.gate_iolink_ns = int(fleet_prop_value("fleet.gate_iolink_ns", knobs))
        machines = fleet.machines
        self.n_servers = len(machines)
        self.cores_per_server = len(machines[0].cores)
        self.core_spec = machines[0].budget.core
        self.pstate_table = machines[0].pstates
        #: Per-server one-way network latency, taken once: every
        #: completion adds it to the server latency.
        self.network_latency_ns = [
            machine.config.network_latency_ns for machine in machines
        ]
        #: Balancer hop + one-way network time added on top of server
        #: latency when the grid search budgets against the SLO. The
        #: pooled p99 spans every server, so the budget takes the
        #: largest network latency (the conservative one, in any order).
        self.overhead_ns = (
            max(self.network_latency_ns) + fleet.cluster.dispatch_latency_ns
        )
        n = self.n_servers
        self.phase = np.zeros(n, dtype=np.int8)
        self.phase_since = np.zeros(n, dtype=np.int64)
        self.boot_until = np.zeros(n, dtype=np.int64)
        self.gated_dram = np.zeros(n, dtype=bool)
        self.gated_nic = np.zeros(n, dtype=bool)
        self.gated_link = np.zeros(n, dtype=bool)
        #: Servers whose APMU we hold while their uncore is gated
        #: below PC1A (see :meth:`Apmu.firmware_hold`).
        self.held_apmu = np.zeros(n, dtype=bool)
        self.latency_window = LatencyWindow()
        self.arrivals = ArrivalEstimator()
        self.last_p99_ns = -1
        self.desired_pstate = machines[0].pstate
        # Window-scoped telemetry (reset at measurement boundaries).
        self.slo_windows = 0
        self.slo_violations = 0
        self.park_commands = 0
        self.unpark_commands = 0
        self.ticks_run = 0
        #: Per-server boot/warm-up power, charged to each server's
        #: package domain so fleet power totals include wake cost.
        self.boot_channels = [
            fleet.meter.channel(
                machine.channel_prefix + "ctrl", machine.package_domain
            )
            for machine in machines
        ]
        # Arm the tick. The Event handle is deliberately discarded —
        # see the module docstring — and every subsequent firing
        # re-arms the same way, so no live reference ever survives to
        # a checkpoint capture.
        self.sim.schedule(self.period_ns, self._tick)

    # -- balancer tap --------------------------------------------------------
    def observe_route(self, index: int, request: Request) -> None:
        """Every routed request feeds the arrival estimate."""
        self.arrivals.observe(request.service_ns)

    def observe_complete(self, index: int, request: Request) -> None:
        """Every completion feeds the pooled end-to-end latency window."""
        self.latency_window.record(
            request.server_latency_ns + self.network_latency_ns[index]
        )

    # -- the control tick ----------------------------------------------------
    def _tick(self) -> None:
        # Re-arm first (discarding the handle), so a controller error
        # can never silently kill the loop's periodicity mid-debug.
        self.sim.schedule(self.period_ns, self._tick)
        self.ticks_run += 1
        now = self.sim.now
        self.arrivals.advance(self.period_ns)
        p99 = self.latency_window.p99()
        self.last_p99_ns = -1 if p99 is None else int(p99)
        self.slo_windows += 1
        if self.last_p99_ns > self.slo_p99_ns:
            self.slo_violations += 1
        self._advance_lifecycle(now)
        self.controller.tick(self)
        self._deepen_parked(now)

    # -- lifecycle verbs (controller-facing) ---------------------------------
    def park(self, index: int) -> None:
        """Begin draining server ``index`` toward park.

        No-op unless the server is currently active, and refused when
        it would leave the balancer nothing to route to.
        """
        if self.phase[index] != ACTIVE:
            return
        if self.n_servers - self.fleet.state.n_unroutable <= 1:
            return
        self.phase[index] = DRAINING
        self.phase_since[index] = self.sim.now
        self.fleet.state.set_unroutable(index, True)
        self.park_commands += 1

    def unpark(self, index: int) -> None:
        """Bring server ``index`` back toward routable.

        A draining server is simply cancelled back to active; a parked
        one pays the boot window (deep gates are reversed during it).
        """
        phase = self.phase[index]
        now = self.sim.now
        if phase == DRAINING:
            self.phase[index] = ACTIVE
            self.phase_since[index] = now
            self.fleet.state.set_unroutable(index, False)
        elif phase == PARKED:
            self.phase[index] = BOOTING
            self.phase_since[index] = now
            self.boot_until[index] = now + self.park_boot_ns
            self.boot_channels[index].set_power(self.park_boot_w)
            self.unpark_commands += 1
            if self.held_apmu[index]:
                self.fleet.machines[index].apmu.firmware_release()
                self.held_apmu[index] = False

    def apply_active_target(self, target: int) -> None:
        """Keep servers ``[0, target)`` routable, park the rest.

        Low indices stay active — consistent with ``power-aware-pack``
        filling the low end of the fleet first.
        """
        target = max(1, min(self.n_servers, int(target)))
        # Only draining or parked servers below the target and active
        # ones above it are touched; for every other server the verbs
        # are no-ops.
        head = self.phase[:target]
        for index in ((head == DRAINING) | (head == PARKED)).nonzero()[0].tolist():
            self.unpark(index)
        tail = self.phase[target:]
        for index in (tail == ACTIVE).nonzero()[0].tolist():
            self.park(target + index)

    def set_fleet_pstate(self, name: str) -> None:
        """Move every serving machine to P-state ``name``.

        Parked machines are left alone (their cores are idle); a
        booting machine picks the desired state up when it activates.
        """
        self.desired_pstate = name
        machines = self.fleet.machines
        phases = self.phase
        serving = (phases == ACTIVE) | (phases == DRAINING)
        for index in serving.nonzero()[0].tolist():
            machines[index].set_pstate(name)

    # -- lifecycle progression (tick-quantized) ------------------------------
    def _advance_lifecycle(self, now: int) -> None:
        state = self.fleet.state
        phases = self.phase
        moving = ((phases == DRAINING) | (phases == BOOTING)).nonzero()[0]
        for index in moving.tolist():
            phase = phases[index]
            if phase == DRAINING:
                if (
                    state.outstanding[index] == 0
                    and self.fleet.machines[index].all_idle.value
                    and now - self.phase_since[index] >= self.park_drain_ns
                ):
                    self.phase[index] = PARKED
                    self.phase_since[index] = now
            elif phase == BOOTING:
                if self._gates_cleared(index) and now >= self.boot_until[index]:
                    self.phase[index] = ACTIVE
                    self.phase_since[index] = now
                    self.boot_channels[index].set_power(0.0)
                    state.set_unroutable(index, False)
                    self.fleet.machines[index].set_pstate(self.desired_pstate)

    def _gates_cleared(self, index: int) -> bool:
        """Reverse any deep gates on a booting server; True when done.

        Issues the exit commands that are legal right now and reports
        whether every gated domain is back in a serving state; callers
        poll once per tick until it says yes.
        """
        machine = self.fleet.machines[index]
        clear = True
        if self.gated_dram[index]:
            done = True
            for mc in machine.memory_controllers:
                if mc.state == "self_refresh":
                    mc.exit_self_refresh()
                    done = False
                elif mc.state == "transitioning":
                    done = False
            if done:
                self.gated_dram[index] = False
            else:
                clear = False
        for flags, links in (
            (self.gated_nic, machine.links[:1]),
            (self.gated_link, machine.links[1:]),
        ):
            if not flags[index]:
                continue
            done = True
            for link in links:
                if link.state == "L1":
                    link.exit_l1()
                    done = False
                elif link.state == "Recovery":
                    done = False
            if done:
                flags[index] = False
            else:
                clear = False
        return clear

    # -- deep gating (parked-dwell thresholds) -------------------------------
    def _deepen_parked(self, now: int) -> None:
        # A gate is due on a parked server that has not taken it and has
        # dwelt its threshold (0 disables the gate); visit only servers
        # with some gate due.
        parked = self.phase == PARKED
        dwells = now - self.phase_since
        want_dram, want_nic, want_link = (
            parked & ~gated & (dwells >= threshold_ns)
            if threshold_ns > 0
            else np.zeros_like(parked)
            for threshold_ns, gated in (
                (self.gate_dram_ns, self.gated_dram),
                (self.gate_nic_ns, self.gated_nic),
                (self.gate_iolink_ns, self.gated_link),
            )
        )
        for index in (want_dram | want_nic | want_link).nonzero()[0].tolist():
            machine = self.fleet.machines[index]
            dram = want_dram[index]
            nic = want_nic[index]
            link = want_link[index] and len(machine.links) > 1
            if not (dram or nic or link):
                continue
            if not self._hold_apc(index, machine):
                continue
            if dram and self._force_self_refresh(machine.memory_controllers):
                self.gated_dram[index] = True
            if nic and self._force_l1(machine.links[:1]):
                self.gated_nic[index] = True
            if link and self._force_l1(machine.links[1:]):
                self.gated_link[index] = True

    def _hold_apc(self, index: int, machine) -> bool:
        """Take the APMU firmware hold before touching its uncore.

        The forced MC/link transitions below look like IO wakes to the
        APC, whose exit flow would then deadlock against our gates; the
        hold tells it firmware owns the uncore until unpark. Machines
        without an APMU (Cshallow/Cdeep) need no hold. A False return
        defers the whole server to the next tick (APC mid-flow).
        """
        if machine.apmu is None or self.held_apmu[index]:
            return True
        if not machine.apmu.firmware_hold():
            return False
        self.held_apmu[index] = True
        return True

    @staticmethod
    def _force_self_refresh(controllers) -> bool:
        """Command self-refresh on every MC, or defer to the next tick.

        Entry is legal from ``active`` and ``cke_off`` with no
        transactions in flight; a controller mid-transition (e.g. a
        CKE entry the package flow just issued) defers the whole
        server so the gate lands atomically.
        """
        for mc in controllers:
            if mc.state not in ("active", "cke_off") or mc.outstanding:
                return False
        for mc in controllers:
            mc.enter_self_refresh()
        return True

    @staticmethod
    def _force_l1(links) -> bool:
        """Command L1 on every link in the group, or defer a tick."""
        for link in links:
            if link.state == "L1":
                continue
            if link.state not in _L1_ENTRY_STATES or link.outstanding:
                return False
        for link in links:
            if link.state != "L1":
                link.enter_l1()
        return True

    # -- measurement window --------------------------------------------------
    def begin_window(self) -> None:
        """Reset window-scoped telemetry (end of warmup)."""
        self.slo_windows = 0
        self.slo_violations = 0
        self.park_commands = 0
        self.unpark_commands = 0

    # -- observability -------------------------------------------------------
    def phase_name(self, index: int) -> str:
        """Human label of server ``index``'s lifecycle phase."""
        return PHASE_NAMES[int(self.phase[index])]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        counts = {
            name: int((self.phase == code).sum())
            for code, name in enumerate(PHASE_NAMES)
        }
        return f"ControlPlane({self.policy!r}, {counts})"
